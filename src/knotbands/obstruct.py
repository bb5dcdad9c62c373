"""Mechanical consistency checkers and sliceness obstructions.

Every checker is one-sided: "fail" is a certificate that the claimed
data cannot all hold (for example, that a knot cannot be slice with the
given surface), while "pass" only means this screen found nothing.
"""

from __future__ import annotations

from collections.abc import Iterable

from .algebra import det_int, signature_exact
from .bandform import SurfaceAnalysis
from .invariants import (
    DEFAULT_SAMPLES,
    Omega,
    alexander,
    alexander_cable2,
    levine_tristram,
)
from .record import Record, odd_p


# ---------------------------------------------------------------------------
# reports


class TestResult(Record):
    __slots__ = ("name", "status", "details")
    name: str
    status: str  # "pass" | "fail"
    details: str

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"unknown test status {self.status!r}")


class ObstructionReport(Record):
    __slots__ = ("tests",)
    tests: tuple[TestResult, ...]

    def __post_init__(self):
        names = set()
        for t in self.tests:
            if t.name in names:
                raise ValueError(f"duplicate test name in report: {t.name}")
            names.add(t.name)

    @property
    def verdict(self) -> str:
        return "obstructed" if any(t.status == "fail" for t in self.tests) else "consistent"

    def to_json(self) -> dict:
        return {
            "tests": [
                {"name": t.name, "status": t.status, "details": t.details}
                for t in self.tests
            ],
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [
            f"{t.status:>16}  {t.name}: {t.details}" for t in self.tests
        ]
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkers


def slice_obstruction_report(surface: SurfaceAnalysis) -> ObstructionReport:
    """Screen the boundary of a zero-framed punctured Klein bottle, given
    by its ``analyze_surface``, against the invariant constraints that
    sliceness would impose: det = +-1 mod 8 and ordinary signature 0."""
    sh = surface.shape
    if sh.orientable or sh.genus != 2:
        raise ValueError(
            "not a punctured Klein bottle: need a single-boundary non-orientable genus-2 surface"
        )
    if surface.framing != 0:
        raise ValueError(f"framing must be 0, got {surface.framing}")
    G = surface.gl_form
    d = abs(det_int(G))
    sig_g = signature_exact(G)
    return ObstructionReport(
        (
            TestResult(
                "determinant-mod-8",
                "pass" if d % 8 in (1, 7) else "fail",
                f"|det GL| = {d} = {d % 8} mod 8",
            ),
            TestResult(
                "ordinary-signature",
                "pass" if sig_g == 0 else "fail",
                f"sign(GL) - framing/2 = {sig_g}, slice boundary needs 0",
            ),
        )
    )


def cable_concordance_check(
    v_k, v_j, p: int, samples: Iterable[Omega] | None = None
) -> ObstructionReport:
    """Necessary conditions for the (2,p) cables of K and J to be
    concordant: the signature functions of K and J must agree at every
    sample, and the cable determinants must match.

    No claim is made for concordance over Z[1/2]: five of the six
    DEFAULT_SAMPLES are roots of an integer polynomial f with f(1) = +-2^k,
    where the known proof that a signature is invariant under such a
    concordance does not reach (Nagel-Powell, IMRN 2017)."""
    odd_p(p)
    # alexander rejects every matrix with |Delta(1)| != 1, and then no
    # sample is a root of Delta: Delta(-1) = 0 would make Delta(1) even,
    # and any other sample (a + ib)/c in lowest terms has the primitive
    # minimal polynomial c t^2 - 2a t + c, whose value 2(c - a) at t = 1
    # would divide Delta(1). So both sides are checked first, and no
    # sigma leg is singular.
    delta_k, delta_j = alexander(v_k), alexander(v_j)
    tests = []
    for omega in DEFAULT_SAMPLES if samples is None else samples:
        sk = levine_tristram(v_k, omega).value
        sj = levine_tristram(v_j, omega).value
        tests.append(
            TestResult(
                f"sigma-match {omega.label()}",
                "pass" if sk == sj else "fail",
                f"sigma_K = {sk}, sigma_J = {sj}",
            )
        )
    dk = abs(alexander_cable2(delta_k, p).evaluate_int(-1))
    dj = abs(alexander_cable2(delta_j, p).evaluate_int(-1))
    tests.append(
        TestResult(
            "cable-determinant",
            "pass" if dk == dj == abs(p) else "fail",
            f"|det K_(2,{p})| = {dk}, |det J_(2,{p})| = {dj}, formula forces {abs(p)}",
        )
    )
    return ObstructionReport(tuple(tests))
