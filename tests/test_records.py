"""The record contract: every record class the package exports, and the
verify battery's two, is a frozen value built positionally or by keyword, compared and hashed by its
field values within its own class, and printed like a literal; and the
package imports none of the heavy standard modules it used to.
"""

import copy
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import knotbands
from knotbands import (
    AbelianInvariants,
    BandSurface,
    Crossing,
    CrossingList,
    ObstructionReport,
    Omega,
    PresetKnot,
    RouteEvent,
    SignatureSample,
    SurfaceAnalysis,
    SurfaceShape,
    analyze_surface,
    battery,
    mobius_band,
    presets,
)
from knotbands.battery import VerifyProperty, VerifySummary
from knotbands.record import Record

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

Result = knotbands.TestResult  # not named Test*, so pytest does not collect it


def _result(status="pass"):
    return Result("sigma-match omega=-1", status, "sigma_K = 0, sigma_J = 0")


def _prop(failures=0):
    return VerifyProperty("gamma-law", 10, failures, "")


# each record class: a factory for one value, built from fresh objects on
# every call, and a factory for a different value of the same class
EXAMPLES = {
    AbelianInvariants: (lambda: AbelianInvariants(1, (2, 4)), lambda: AbelianInvariants(1, (2,))),
    BandSurface: (
        lambda: BandSurface.build([1], [(0, "A"), (0, "B")]),
        lambda: BandSurface.build([3], [(0, "A"), (0, "B")]),
    ),
    Crossing: (lambda: Crossing(1, 0, 2), lambda: Crossing(-1, 0, 2)),
    CrossingList: (
        lambda: CrossingList(3, (Crossing(1, 0, 2),)),
        lambda: CrossingList(3, (Crossing(1, 2, 0),)),
    ),
    ObstructionReport: (
        lambda: ObstructionReport((_result(),)),
        lambda: ObstructionReport((_result("fail"),)),
    ),
    Omega: (lambda: Omega(Fraction(1, 2)), lambda: Omega(None)),
    PresetKnot: (lambda: presets._load()["trefoil"], lambda: presets._load()["t25"]),
    RouteEvent: (lambda: RouteEvent((0, 1), (0, 3), -1), lambda: RouteEvent((0, 3), (0, 1), -1)),
    SignatureSample: (
        lambda: SignatureSample(Omega(None), -2),
        lambda: SignatureSample(Omega(None), None),
    ),
    SurfaceAnalysis: (
        lambda: analyze_surface(mobius_band((), 3)),
        lambda: analyze_surface(mobius_band((), -3)),
    ),
    SurfaceShape: (lambda: SurfaceShape(False, 2, -1, 1), lambda: SurfaceShape(True, 1, -1, 1)),
    Result: (lambda: _result(), lambda: _result("fail")),
    VerifyProperty: (lambda: _prop(), lambda: _prop(1)),
    VerifySummary: (
        lambda: VerifySummary(0, 10, (_prop(),)),
        lambda: VerifySummary(1, 10, (_prop(),)),
    ),
}

RECORDS = sorted(EXAMPLES, key=lambda cls: cls.__name__)


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_every_exported_record_has_an_example():
    exported = {
        obj
        for obj in (getattr(knotbands, name) for name in knotbands.__all__)
        if isinstance(obj, type) and issubclass(obj, Record)
    }
    in_battery = {
        obj
        for obj in vars(battery).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == battery.__name__
    }
    assert exported | in_battery == set(EXAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestContract:
    def test_assignment_is_refused(self, cls):
        x = EXAMPLES[cls][0]()
        for name, value in _fields(x).items():
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert _fields(x) == _fields(EXAMPLES[cls][0]())

    def test_keyword_construction(self, cls):
        x = EXAMPLES[cls][0]()
        fields = _fields(x)
        assert cls(**fields) == x
        assert cls(*fields.values()) == x
        first, *rest = fields
        assert cls(fields[first], **{name: fields[name] for name in rest}) == x
        with pytest.raises(TypeError):
            cls(*fields.values(), 0)
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])

    def test_equality_and_hash_by_value(self, cls):
        make, make_other = EXAMPLES[cls]
        x, y, other = make(), make(), make_other()
        assert x is not y and x == y and not x != y
        assert x != other and not x == other
        assert hash(x) == hash(y)
        assert len({x, y, other}) == 2

    def test_never_equal_to_another_class(self, cls):
        x = EXAMPLES[cls][0]()
        twin = type("Twin", (Record,), {"__slots__": cls.__slots__})(**_fields(x))
        assert _fields(twin) == _fields(x)
        assert x != twin and twin != x
        assert x != tuple(_fields(x).values())

    def test_copy_and_pickle_rebuild_an_equal_record(self, cls):
        x = EXAMPLES[cls][0]()
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x

    def test_repr_names_every_field(self, cls):
        x = EXAMPLES[cls][0]()
        body = ", ".join(f"{name}={value!r}" for name, value in _fields(x).items())
        assert repr(x) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(Omega(Fraction(1, 2))) == "Omega(s=Fraction(1, 2))"
    assert repr(Omega.minus_one()) == "Omega(s=None)"
    assert repr(Crossing(1, 0, 2)) == "Crossing(sign=1, over=0, under=2)"
    assert (
        repr(SurfaceShape(False, 2, -1, 1))
        == "SurfaceShape(orientable=False, genus=2, euler=-1, boundary_components=1)"
    )


def test_post_init_errors():
    with pytest.raises(ValueError, match="^omega = 1 is excluded$"):
        Omega(Fraction(0))
    with pytest.raises(ValueError, match="^free rank must be nonnegative$"):
        AbelianInvariants(-1, ())
    with pytest.raises(ValueError, match="^unknown test status 'maybe'$"):
        Result("x", "maybe", "")
    with pytest.raises(ValueError, match="^unknown test status 'maybe'$"):
        Result(name="x", status="maybe", details="")


def test_import_adds_no_standard_module():
    # the modules a CLI run loads anyway come first; importing knotbands
    # must then add nothing outside the package but __future__
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import argparse, json, fractions, os\n"
        "before = set(sys.modules)\n"
        "import knotbands\n"
        "added = set(sys.modules) - before\n"
        "print(' '.join(sorted(m for m in added if m.split('.')[0] != 'knotbands')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["__future__"]
