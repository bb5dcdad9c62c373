"""The benchmark's tracer still loads and counts against the library.

``bench/tracing.py`` imports ``knotbands.diagram`` and wraps the public
functions of every layer; its ``bandform.compile_curves.crossings``
counter reads ``compile_curves(...).diagram.crossings``. A library change
that breaks either shows up here, in the tier-1 suite, and not only when
the benchmark runs. The test only reads ``bench/``.
"""

import contextlib
import importlib.util
import io
import pathlib

from knotbands import bandform, cli, get_preset

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_compiled_crossings():
    tracer = _load_tracing().Tracer()
    F = get_preset("trefoil").orientable_surface
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(["klein", "--presetK", "trefoil", "--presetJ", "t25", "-p", "3"])
        bandform.shape(F)
        bandform.framing(F)
        bandform.gl_form(F)
        bandform.seifert_matrix(F)
    assert code == 0 and '"verdict": "consistent"' in out.getvalue()
    assert tracer.counters["bandform.compile_curves.crossings"] > 0
    traced = {tracer.names[span[0]] for span in tracer.spans}
    assert {"cli.run", "bandform.compile_curves"} <= traced
    # the wrappers are gone again once the block ends
    assert bandform.compile_curves.__module__ == "knotbands.bandform"
    assert not hasattr(bandform.compile_curves, "__wrapped__")
