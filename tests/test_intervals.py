"""Exact interval-union arithmetic: the backbone every other module leans on."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unitdist.intervals import IntervalUnion


def test_from_pairs_sorts_and_merges():
    u = IntervalUnion.from_pairs([(Fraction(1, 2), 1), (0, Fraction(1, 4))])
    assert u.intervals == (
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1)),
    )
    # touching intervals collapse into one
    v = IntervalUnion.from_pairs([(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert v.n_intervals == 1
    assert v.total_length == 1


def test_from_pairs_rejects_reversed():
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs([(1, 0)])


def test_empty_and_points():
    e = IntervalUnion.from_pairs([])
    assert e.is_empty
    assert e.total_length == 0
    p = IntervalUnion.points([Fraction(1, 3), 0])
    assert p.n_intervals == 2
    assert p.total_length == 0
    assert (Fraction(1, 3), Fraction(1, 3)) in p.intervals


def test_shift_preserves_length():
    u = IntervalUnion.from_pairs([(0, Fraction(1, 4)), (Fraction(3, 4), 1)])
    s = u.shift(Fraction(7, 3))
    assert s.total_length == u.total_length
    assert s.intervals[0][0] == Fraction(7, 3)


def test_union_overlapping():
    a = IntervalUnion.single(0, Fraction(1, 2))
    b = IntervalUnion.single(Fraction(1, 4), 1)
    assert a.union(b).intervals == ((Fraction(0), Fraction(1)),)


def test_neighborhood_merges_close_blocks():
    u = IntervalUnion.from_pairs([(0, Fraction(1, 8)), (Fraction(1, 4), Fraction(3, 8))])
    fat = u.neighborhood(Fraction(1, 16))
    # gap of 1/8 equals twice the radius, so the fattened blocks just touch
    assert fat.n_intervals == 1
    assert fat.span == (Fraction(-1, 16), Fraction(7, 16))


def test_neighborhood_zero_radius_is_identity():
    u = IntervalUnion.single(0, 1)
    assert u.neighborhood(0) == u
    with pytest.raises(ValueError):
        u.neighborhood(Fraction(-1, 4))


def test_contains_union():
    inner = IntervalUnion.from_pairs([(Fraction(1, 8), Fraction(1, 4))])
    outer = IntervalUnion.single(0, 1)
    assert outer.union(inner) == outer
    assert inner.union(outer) != inner


def test_text_round_trip():
    u = IntervalUnion.from_pairs(
        [(Fraction(-3, 32), Fraction(1, 8)), (Fraction(9, 4), Fraction(19, 4))]
    )
    again = IntervalUnion.from_text(u.to_text())
    assert again == u


def test_text_non_dyadic_uses_over_form():
    u = IntervalUnion.from_pairs([(0, Fraction(1, 3)), (Fraction(1, 2), 1)])
    assert u.to_text() == "intervals 2 over 6\n0 2\n3 6\n"
    assert IntervalUnion.from_text(u.to_text()) == u


@pytest.mark.parametrize("radius", [Fraction(1, 64), Fraction(1, 16), Fraction(1, 4)])
def test_neighborhood_length_bound(radius):
    # fattening k blocks grows the measure by at most 2 * radius * k
    u = IntervalUnion.from_pairs([(0, Fraction(1, 8)), (Fraction(1, 2), Fraction(5, 8))])
    fat = u.neighborhood(radius)
    assert fat.total_length <= u.total_length + 2 * radius * u.n_intervals
    assert fat.union(u) == fat


# ---- property tests: the lattice layer against point sampling --------------

_PROPS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def _pairs(draw):
    """Up to 8 closed intervals (points included) on one random lattice 1/L."""
    L = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 40, 64, 96, 1 << 20]))
    ends = st.integers(-3 * L, 3 * L).map(lambda i: Fraction(i, L))
    raw = draw(st.lists(st.tuples(ends, ends), max_size=8))
    return [(min(a, b), max(a, b)) for a, b in raw]


_RADII = st.sampled_from([0, Fraction(1, 8), Fraction(1, 6), Fraction(3, 5), Fraction(2)])


def _member(pairs, x) -> bool:
    return any(lo <= x <= hi for lo, hi in pairs)


def _abscissas(*unions):
    """Every endpoint, the midpoint of each gap between consecutive
    endpoints, and one point beyond each end: membership of a finite union
    of closed intervals is constant between consecutive endpoints."""
    ends = sorted({x for U in unions for pair in U.intervals for x in pair})
    if not ends:
        return [Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return [ends[0] - 1, *ends, *mids, ends[-1] + 1]


@_PROPS
@given(_pairs(), _pairs(), _RADII, _RADII)
def test_set_algebra_matches_point_sampling(pa, pb, delta, s):
    A, B = IntervalUnion.from_pairs(pa), IntervalUnion.from_pairs(pb)
    union, fat, moved = A.union(B), A.neighborhood(delta), A.shift(s)
    for x in _abscissas(A, B, union, fat, moved):
        assert _member(A.intervals, x) == _member(pa, x)
        assert _member(union.intervals, x) == (_member(pa, x) or _member(pb, x))
        assert _member(fat.intervals, x) == any(
            lo - delta <= x <= hi + delta for lo, hi in pa
        )
        assert _member(moved.intervals, x) == _member(pa, x - s)


@_PROPS
@given(_pairs(), _RADII)
def test_den_is_the_reduced_common_denominator(pairs, delta):
    A = IntervalUnion.from_pairs(pairs)
    for U in (A, A.neighborhood(delta), A.shift(delta), A.union(A.shift(delta))):
        dens = [x.denominator for pair in U.intervals for x in pair]
        assert U.den == math.lcm(*dens)
        assert U == IntervalUnion.from_pairs(U.intervals)


@_PROPS
@given(_pairs(), _RADII)
def test_text_round_trips_in_both_forms(pairs, delta):
    U = IntervalUnion.from_pairs(pairs).neighborhood(delta)
    text = U.to_text()
    head = text.splitlines()[0]
    dyadic_den = U.den & (U.den - 1) == 0
    assert head == (
        f"intervals {U.n_intervals}"
        if dyadic_den
        else f"intervals {U.n_intervals} over {U.den}"
    )
    again = IntervalUnion.from_text(text)
    assert again == U
    assert again.to_text() == text


@_PROPS
@given(_pairs(), st.integers(1, 1 << 70))
def test_overflowing_lattice_raises_naming_den(pairs, m):
    A = IntervalUnion.from_pairs(pairs)
    delta = Fraction(1, m)
    den = math.lcm(A.den, m)
    reach = max((max(abs(lo - delta), abs(hi + delta)) for lo, hi in pairs), default=0)
    if A.is_empty or reach * den < 1 << 62:
        assert A.neighborhood(delta).union(A) == A.neighborhood(delta)
        return
    with pytest.raises(ValueError, match=f"1/{den} "):
        A.neighborhood(delta)


def test_lattice_overflow_examples():
    third = Fraction(1, 3**40)  # 3^40 > 2^62: the number 1 no longer fits
    with pytest.raises(ValueError, match=f"1/{3**40} "):
        IntervalUnion.single(0, 1).neighborhood(third)
    with pytest.raises(ValueError, match="1/1 "):
        IntervalUnion.single(0, 1 << 62)
    # a huge denominator alone is fine while the numerators stay small
    tiny = IntervalUnion.points([0]).neighborhood(Fraction(1, 1 << 63))
    assert tiny.den == 1 << 63
    assert tiny.span == (Fraction(-1, 1 << 63), Fraction(1, 1 << 63))
    assert IntervalUnion.from_text(tiny.to_text()) == tiny


def test_dyadic_text_form_is_lowest_terms():
    u = IntervalUnion.from_pairs([(Fraction(-3, 4), 0), (Fraction(1, 2), 5)])
    assert u.to_text() == "intervals 2\n-3 2 0 0\n1 1 5 0\n"


def test_from_text_rejects_malformed_lines():
    with pytest.raises(ValueError):
        IntervalUnion.from_text("intervals 2\n0 0 1 0\n2 0 3\n")
    with pytest.raises(ValueError):
        IntervalUnion.from_text("intervals 1 over 3\n0 1 2\n")
    with pytest.raises(ValueError, match="not disjoint"):
        IntervalUnion.from_text("intervals 2 over 3\n0 2\n1 3\n")
