"""Exact arithmetic for disk-band spanning surfaces of knots.

Band surfaces with explicit half-twist, attachment, and crossing data;
their framings, Gordon-Litherland and Seifert pairings; classical
concordance invariants by integer elimination; and mechanical screens
for sliceness of cable boundaries on zero-framed punctured Klein
bottles. The randomized verification battery lives in
``knotbands.battery`` and is not imported here.
"""

from .algebra import (
    AbelianInvariants,
    LaurentPoly,
    det_int,
    det_pencil,
    fp_abelian_invariants,
    inertia,
    signature_exact,
    smith_normal_form,
)
from .bandform import (
    BandSurface,
    MultipleBoundaryError,
    NormalFormError,
    NotOrientableError,
    RouteEvent,
    SurfaceAnalysis,
    SurfaceShape,
    analyze_surface,
    boundary_connect_sum,
    core_route,
    core_writhe,
    framing,
    gamma_self_linking,
    gl_form,
    klein_bottle_for_cables,
    mirror_core,
    mobius_band,
    seifert_matrix,
    shape,
    surgery_shape,
    zero_framing_stabilize,
)
from .diagram import (
    Crossing,
    CrossingList,
    NonclassicalCrossingError,
)
from .invariants import (
    DEFAULT_SAMPLES,
    Omega,
    SignatureSample,
    alexander,
    alexander_cable2,
    alexander_satellite,
    arf,
    determinant_knot,
    levine_tristram,
    sigma_satellite,
    signature,
    torus2_alexander,
)
from .obstruct import (
    ObstructionReport,
    TestResult,
    cable_concordance_check,
    slice_obstruction_report,
)
from .presets import PresetKnot, get_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "BandSurface",
    "Crossing",
    "CrossingList",
    "DEFAULT_SAMPLES",
    "LaurentPoly",
    "MultipleBoundaryError",
    "NonclassicalCrossingError",
    "NormalFormError",
    "NotOrientableError",
    "ObstructionReport",
    "Omega",
    "PresetKnot",
    "RouteEvent",
    "SignatureSample",
    "SurfaceAnalysis",
    "SurfaceShape",
    "TestResult",
    "alexander",
    "alexander_cable2",
    "alexander_satellite",
    "analyze_surface",
    "arf",
    "boundary_connect_sum",
    "cable_concordance_check",
    "core_route",
    "core_writhe",
    "det_int",
    "det_pencil",
    "determinant_knot",
    "fp_abelian_invariants",
    "framing",
    "gamma_self_linking",
    "gl_form",
    "inertia",
    "klein_bottle_for_cables",
    "levine_tristram",
    "mirror_core",
    "mobius_band",
    "seifert_matrix",
    "shape",
    "sigma_satellite",
    "signature",
    "signature_exact",
    "slice_obstruction_report",
    "smith_normal_form",
    "surgery_shape",
    "torus2_alexander",
    "zero_framing_stabilize",
    "get_preset",
    "preset_names",
]
