import pytest

from knotbands.diagram import (
    Crossing,
    CrossingList,
    NonclassicalCrossingError,
    classical_linking,
    over_counts,
)
from oracles import validate_diagram as validate


def hopf(sign=1):
    return CrossingList(
        2, (Crossing(sign, over=0, under=1), Crossing(sign, over=1, under=0))
    )


def trefoil_diagram():
    # the standard diagram: three right-handed self crossings
    return CrossingList(1, (Crossing(1, over=0, under=0),) * 3)


class TestValidate:
    def test_clean_fixtures(self):
        assert validate(hopf()) == []
        assert validate(trefoil_diagram()) == []
        assert validate(CrossingList(1, ())) == []

    def test_bad_sign(self):
        d = CrossingList(1, (Crossing(2, over=0, under=0),))
        assert any("expected +1 or -1" in p for p in validate(d))

    def test_out_of_range_passage(self):
        d = CrossingList(1, (Crossing(1, over=0, under=1),))
        assert any("under component 1 out of range" in p for p in validate(d))


class TestCounts:
    def test_linking_number(self):
        assert over_counts(hopf(), 0, 1) == (1, 1)
        assert classical_linking(0, 1, *over_counts(hopf(), 0, 1)) == 1
        assert classical_linking(0, 1, *over_counts(hopf(-1), 0, 1)) == -1
        assert classical_linking(1, 0, *over_counts(hopf(), 1, 0)) == 1
        with pytest.raises(ValueError, match="distinct"):
            over_counts(hopf(), 0, 0)
        with pytest.raises(IndexError):
            over_counts(hopf(), 0, 2)

    def test_nonclassical_guard(self):
        # both crossings claim component 0 on top: no classical diagram
        d = CrossingList(2, (Crossing(1, over=0, under=1),) * 2)
        assert over_counts(d, 0, 1) == (2, 0)
        with pytest.raises(NonclassicalCrossingError, match="nonclassical"):
            classical_linking(0, 1, *over_counts(d, 0, 1))
