"""Exact arithmetic on finite unions of closed intervals.

Every one-dimensional set in this package is a finite union of closed
intervals with rational endpoints, held on one integer lattice: a
denominator `den` and sorted int64 arrays `lo`, `hi` of numerators, so the
k-th interval is [lo[k] / den, hi[k] / den]. Deep refinement stages and tiny
neighborhood radii never accumulate float drift, and every set operation is
a few array passes over the numerators. `den` is always reduced (the least
common multiple of the endpoints' reduced denominators), so equal sets have
equal fields.

Numerators stay below 2**62 in magnitude, which leaves headroom for one sum
or difference of two of them (a neighborhood, a shift, an interval length)
inside int64. An operation whose lattice would leave that range raises a
ValueError that names the denominator; there is no second, slower path.
`fractions.Fraction` appears only at the edges: exact input (`from_pairs`,
`single`, `points`), the scalars `total_length` and `span`, and the
read-only `intervals` view. No method returns a float; a consumer that
needs one divides the numerators by `den` itself.

Text form: a union with a power-of-two `den` is written as
`intervals <count>` followed by one `num_lo exp_lo num_hi exp_hi` line per
interval (endpoint = num / 2**exp in lowest terms); any other union as
`intervals <count> over <den>` followed by `num_lo num_hi` lines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = ["IntervalUnion"]

# bound on |numerator|: a sum or difference of two stays inside int64
_LIMIT = 1 << 62


def _as_rational(x) -> Fraction:
    # Fraction(float) is exact (binary expansion), so floats are safe inputs
    # as long as the caller meant the float they passed.
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            raise ValueError(f"endpoint {x!r} is not finite")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact endpoint")


def check_lattice(den: int, reach: int) -> None:
    """ValueError unless numerators up to |reach| over `den` fit with headroom."""
    if reach >= _LIMIT:
        raise ValueError(
            f"interval lattice 1/{den} needs numerators up to {reach}, "
            "beyond the int64 range with headroom (2**62)"
        )


def _dyadic_parts(nums: np.ndarray, exp: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest terms of nums / 2**exp as (numerators, exponents)."""
    lowest_bit = nums & -nums
    zeros = np.frexp(lowest_bit.astype(np.float64))[1] - 1  # trailing zeros
    drop = np.where(nums == 0, exp, np.minimum(zeros, exp))
    return nums >> drop, exp - drop


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Sorted union of pairwise disjoint closed intervals [lo, hi], lo <= hi,
    on the lattice 1/den.

    Degenerate intervals (lo == hi) are allowed and represent points; they
    carry zero length but participate in neighborhoods and distance bands.
    The constructor takes numerators already sorted and disjoint, reduces
    `den`, and stores read-only int64 copies; `from_pairs` normalizes
    arbitrary input.
    """

    den: int
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        den = int(self.den)
        lo = np.array(self.lo, dtype=np.int64)
        hi = np.array(self.hi, dtype=np.int64)
        if den < 1:
            raise ValueError(f"lattice denominator {den} must be positive")
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of one length")
        if (hi < lo).any() or (lo[1:] <= hi[:-1]).any():
            raise ValueError("intervals must be sorted, disjoint and not reversed")
        if lo.size:
            check_lattice(den, max(-int(lo[0]), int(hi[-1])))
        g = math.gcd(den, int(np.gcd.reduce(lo)), int(np.gcd.reduce(hi)))
        if g > 1:
            den, lo, hi = den // g, lo // g, hi // g
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return (
            self.den == other.den
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self) -> int:
        return hash((self.den, self.lo.tobytes(), self.hi.tobytes()))

    # -- construction ------------------------------------------------------

    @classmethod
    def _merged(cls, den: int, lo: np.ndarray, hi: np.ndarray) -> "IntervalUnion":
        """Union of arbitrary intervals [lo[k], hi[k]] / den: sort by start,
        then merge every interval that meets the running maximum end of the
        ones before it. Touching closed intervals merge."""
        reversed_ = np.flatnonzero(hi < lo)
        if reversed_.size:
            k = reversed_[0]
            raise ValueError(
                f"interval [{Fraction(int(lo[k]), den)}, {Fraction(int(hi[k]), den)}]"
                " is reversed"
            )
        if lo.size == 0:
            return cls(1, lo, hi)
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        reach = np.maximum.accumulate(hi[order])
        start = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
        end = np.concatenate([start[1:], [lo.size]]) - 1
        return cls(den, lo[start], reach[end])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """Normalize arbitrary (lo, hi) pairs: sort and merge overlaps.

        Touching closed intervals merge, since their union is one interval.
        """
        exact = [(_as_rational(lo), _as_rational(hi)) for lo, hi in pairs]
        den = math.lcm(*(x.denominator for pair in exact for x in pair))
        nums = [x.numerator * (den // x.denominator) for pair in exact for x in pair]
        check_lattice(den, max(map(abs, nums), default=0))
        pairs_arr = np.array(nums, dtype=np.int64).reshape(-1, 2)
        return cls._merged(den, pairs_arr[:, 0], pairs_arr[:, 1])

    @classmethod
    def single(cls, lo, hi) -> "IntervalUnion":
        return cls.from_pairs([(lo, hi)])

    @classmethod
    def points(cls, xs: Iterable) -> "IntervalUnion":
        return cls.from_pairs([(x, x) for x in xs])

    # -- basic queries -----------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The intervals as exact (lo, hi) Fraction pairs (a read-only view)."""
        den = self.den
        return tuple(
            (Fraction(a, den), Fraction(b, den))
            for a, b in zip(self.lo.tolist(), self.hi.tolist())
        )

    @property
    def is_empty(self) -> bool:
        return self.lo.size == 0

    @property
    def n_intervals(self) -> int:
        return self.lo.size

    @property
    def total_length(self) -> Fraction:
        # disjoint intervals: the sum is at most the span, inside int64
        return Fraction(int((self.hi - self.lo).sum()), self.den)

    @property
    def span(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty union has no span")
        return Fraction(int(self.lo[0]), self.den), Fraction(int(self.hi[-1]), self.den)

    def numerators(self, den: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) as numerators over `den`, a multiple of this union's den."""
        factor, rest = divmod(den, self.den)
        if rest:
            raise ValueError(f"lattice 1/{den} does not contain the lattice 1/{self.den}")
        if factor == 1 or self.is_empty:
            return self.lo, self.hi
        reach = max(-int(self.lo[0]), int(self.hi[-1]))
        check_lattice(den, reach * factor)
        if reach == 0:  # only zeros, which every lattice holds
            return self.lo, self.hi
        return self.lo * factor, self.hi * factor

    def _cells(
        self, size: Fraction
    ) -> tuple[np.ndarray, np.ndarray, int, int, Fraction]:
        """This non-empty union on the grid of cells of width `size` that
        has a grid line at 0.

        Returns (lo, hi, step, n, origin): the endpoints as integer
        numerators over lcm(den, size.denominator), measured from `origin`,
        the grid line at or below the union's start; the cell width in the
        same units; and the number of cells from `origin` up to the union's
        end (at least one).
        """
        den = math.lcm(self.den, size.denominator)
        lo, hi = self.numerators(den)
        step = size.numerator * (den // size.denominator)
        base = int(lo[0]) // step * step
        n = max(-((base - int(hi[-1])) // step), 1)
        return lo - base, hi - base, step, n, Fraction(base, den)

    # -- set operations ----------------------------------------------------

    def shift(self, s) -> "IntervalUnion":
        s = _as_rational(s)
        if self.is_empty:
            return self
        den = math.lcm(self.den, s.denominator)
        lo, hi = self.numerators(den)
        step = s.numerator * (den // s.denominator)
        check_lattice(den, max(-(int(lo[0]) + step), int(hi[-1]) + step))
        return IntervalUnion(den, lo + step, hi + step)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        den = math.lcm(self.den, other.den)
        a_lo, a_hi = self.numerators(den)
        b_lo, b_hi = other.numerators(den)
        return IntervalUnion._merged(
            den, np.concatenate([a_lo, b_lo]), np.concatenate([a_hi, b_hi])
        )

    def neighborhood(self, delta) -> "IntervalUnion":
        """Closed delta-neighborhood: every interval grows by delta each side."""
        delta = _as_rational(delta)
        if delta < 0:
            raise ValueError("neighborhood radius must be nonnegative")
        if self.is_empty:
            return self
        den = math.lcm(self.den, delta.denominator)
        lo, hi = self.numerators(den)
        r = delta.numerator * (den // delta.denominator)
        check_lattice(den, max(-int(lo[0]), int(hi[-1])) + r)
        return IntervalUnion._merged(den, lo - r, hi + r)

    # -- export ------------------------------------------------------------

    def to_text(self) -> str:
        """Serialize the union, exactly.

        A power-of-two `den` gives one `num_lo exp_lo num_hi exp_hi` line per
        interval, endpoint value = num / 2**exp in lowest terms, under the
        header `intervals <count>`. Any other `den` gives `num_lo num_hi`
        lines over the header `intervals <count> over <den>`.
        """
        count = self.n_intervals
        if self.den & (self.den - 1):
            head = f"intervals {count} over {self.den}"
            cols = (self.lo, self.hi)
        else:
            head = f"intervals {count}"
            exp = self.den.bit_length() - 1
            cols = (*_dyadic_parts(self.lo, exp), *_dyadic_parts(self.hi, exp))
        line = " ".join(["%d"] * len(cols)) + "\n"
        return f"{head}\n" + (line * count) % tuple(np.column_stack(cols).ravel().tolist())

    @classmethod
    def from_text(cls, text: str) -> "IntervalUnion":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split() if lines else []
        over = len(head) == 4 and head[2] == "over"
        if head[:1] != ["intervals"] or len(head) != (4 if over else 2):
            raise ValueError("missing 'intervals <count> [over <den>]' header")
        count = int(head[1])
        if len(lines) - 1 != count:
            raise ValueError(f"header promises {count} intervals, file has {len(lines) - 1}")
        width = 2 if over else 4
        # one token stream for the whole body; its length must match too
        tokens = text.split()[len(head):]
        if len(tokens) != width * count:
            raise ValueError(f"expected {width} integers per interval line")
        try:
            rows = np.array(tokens, dtype=np.int64).reshape(count, width)
        except OverflowError as exc:
            raise ValueError(f"serialized numerator does not fit int64: {exc}") from None
        if over:
            den = int(head[3])
            if den < 1:
                raise ValueError(f"lattice denominator {den} must be positive")
            lo, hi = rows[:, 0], rows[:, 1]
        else:
            nums, exps = rows[:, 0::2], rows[:, 1::2]
            top = int(exps.max(initial=0))
            shift = top - np.maximum(exps, top - 63)  # clipped at 63, no wrap
            bound = np.right_shift(_LIMIT - 1, shift)
            if ((nums > bound) | (nums < -bound)).any():
                raise ValueError(f"serialized endpoints overflow the lattice 1/2**{top}")
            den = 1 << top
            scaled = np.where(nums == 0, 0, nums << np.minimum(shift, 62))
            lo, hi = scaled[:, 0], scaled[:, 1]
        out = cls._merged(den, lo, hi)
        if out.n_intervals != count:
            raise ValueError("serialized intervals were not disjoint")
        return out
