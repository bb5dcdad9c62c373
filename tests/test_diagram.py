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
        ((0, 1), (0, 1)),
        (
            Crossing(0, sign, over=(0, 0), under=(1, 0)),
            Crossing(1, sign, over=(1, 1), under=(0, 1)),
        ),
    )


def trefoil_diagram():
    # standard alternating Gauss sequence, all crossings right handed
    return CrossingList(
        ((0, 1, 2, 0, 1, 2),),
        (
            Crossing(0, 1, over=(0, 0), under=(0, 3)),
            Crossing(1, 1, over=(0, 4), under=(0, 1)),
            Crossing(2, 1, over=(0, 2), under=(0, 5)),
        ),
    )


class TestValidate:
    def test_clean_fixtures(self):
        assert validate(hopf()) == []
        assert validate(trefoil_diagram()) == []
        assert validate(CrossingList(((),), ())) == []

    def test_duplicate_id(self):
        d = CrossingList(
            ((0, 0),),
            (
                Crossing(0, 1, over=(0, 0), under=(0, 1)),
                Crossing(0, 1, over=(0, 1), under=(0, 0)),
            ),
        )
        assert any("duplicate crossing id" in p for p in validate(d))

    def test_bad_sign(self):
        d = CrossingList(
            ((0, 0),), (Crossing(0, 2, over=(0, 0), under=(0, 1)),)
        )
        assert any("expected +1 or -1" in p for p in validate(d))

    def test_out_of_range_passage(self):
        d = CrossingList(
            ((0, 0),), (Crossing(0, 1, over=(0, 0), under=(1, 5)),)
        )
        assert any("out of range" in p for p in validate(d))

    def test_slot_id_mismatch(self):
        d = CrossingList(
            ((0, 5),), (Crossing(0, 1, over=(0, 0), under=(0, 1)),)
        )
        problems = validate(d)
        assert any("refers to unknown crossing 5" in p for p in problems)
        assert any("holds id 5" in p for p in problems)

    def test_unclaimed_slot(self):
        d = CrossingList(
            ((0, 0, 0),), (Crossing(0, 1, over=(0, 0), under=(0, 1)),)
        )
        assert any("claimed by no crossing role" in p for p in validate(d))


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
        d = CrossingList(
            ((0, 1), (0, 1)),
            (
                Crossing(0, 1, over=(0, 0), under=(1, 0)),
                Crossing(1, 1, over=(0, 1), under=(1, 1)),
            ),
        )
        assert over_counts(d, 0, 1) == (2, 0)
        with pytest.raises(NonclassicalCrossingError, match="nonclassical"):
            classical_linking(0, 1, *over_counts(d, 0, 1))
