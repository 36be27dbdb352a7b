"""Cantor-with-gaps stage constructions, covering stages and shifted unions."""

from fractions import Fraction

import pytest

from unitdist.cantor import (
    CantorSpec,
    cantor_stage,
    shift_union,
    stage_for_scale,
)


def test_first_stages_of_half_dimensional_set():
    spec = CantorSpec(1, 2)
    assert cantor_stage(spec, 0).intervals == ((Fraction(0), Fraction(1)),)
    assert cantor_stage(spec, 1).intervals == (
        (Fraction(0), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1)),
    )
    s2 = cantor_stage(spec, 2)
    assert s2.n_intervals == 4
    assert s2.intervals[1] == (Fraction(3, 16), Fraction(1, 4))
    assert s2.intervals[2] == (Fraction(3, 4), Fraction(13, 16))


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (3, 4)])
def test_stage_counting_invariants(p, q):
    spec = CantorSpec(p, q)
    for j in range(4):
        stage = cantor_stage(spec, j)
        assert stage.n_intervals == 2 ** (j * p)
        # every interval has length exactly 2^{-jq}
        for lo, hi in stage.intervals:
            assert hi - lo == Fraction(1, 2 ** (j * q))
        assert stage.total_length == Fraction(2 ** (j * p), 2 ** (j * q))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (1, 4)])
def test_stages_are_nested_and_flush(p, q):
    spec = CantorSpec(p, q)
    prev = cantor_stage(spec, 0)
    for j in range(1, 4):
        cur = cantor_stage(spec, j)
        assert prev.union(cur) == prev
        # first and last subintervals stay flush with the unit interval
        assert cur.intervals[0][0] == 0
        assert cur.intervals[-1][1] == 1
        prev = cur


def test_gaps_within_a_parent_are_equal():
    # inside each parent interval of stage j, the 2^p children are separated
    # by 2^p - 1 identical gaps
    spec = CantorSpec(2, 3)
    s1 = cantor_stage(spec, 1)
    gaps = {
        s1.intervals[k + 1][0] - s1.intervals[k][1] for k in range(s1.n_intervals - 1)
    }
    assert len(gaps) == 1
    (gap,) = gaps
    assert gap == (1 - 4 * Fraction(1, 8)) / 3


def test_spec_validation():
    with pytest.raises(ValueError):
        CantorSpec(0, 2)
    with pytest.raises(ValueError):
        CantorSpec(2, 2)  # needs q > p for any gaps to exist
    with pytest.raises(ValueError):
        CantorSpec(-1, 3)


def test_stage_depth_cap():
    spec = CantorSpec(1, 2)
    with pytest.raises(ValueError):
        cantor_stage(spec, 21)  # 2^{-42} endpoints fall off the exact lattice


def test_stage_for_scale():
    spec = CantorSpec(1, 2)
    assert stage_for_scale(spec, Fraction(1, 64)) == 3
    assert stage_for_scale(spec, Fraction(1, 63)) == 3
    assert stage_for_scale(spec, Fraction(1, 65)) == 4
    assert stage_for_scale(CantorSpec(1, 3), Fraction(1, 8)) == 1
    # 2^-42 needs stage 21 of the q = 2 set, past the exact lattice
    with pytest.raises(ValueError, match="depth"):
        stage_for_scale(spec, Fraction(1, 2**42))


def test_shift_union_overlays_translate():
    A = cantor_stage(CantorSpec(1, 2), 2)
    F = shift_union(A, 1)
    assert F.total_length == 2 * A.total_length
    assert F.union(A) == F
    assert F.union(A.shift(1)) == F
    # shifting by less than a block length makes the copies overlap
    assert shift_union(A, Fraction(1, 32)).total_length < 2 * A.total_length
