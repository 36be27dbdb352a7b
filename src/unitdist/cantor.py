"""Self-similar Cantor-type subsets of [0, 1] with prescribed box dimension.

A construction `CantorSpec(p, q)` (integers, 0 < p < q) keeps, at each
refinement step, 2**p evenly spaced children of relative length 2**-q inside
every interval of the previous stage: the first child flush left, the last
flush right, equal gaps between. Stage j therefore has 2**(j*p) intervals of
length 2**(-j*q), and the limit set has box (and Hausdorff) dimension p/q.

Endpoints are exact rationals. For p = 1 every endpoint is dyadic; for p >= 2
the equal gaps introduce denominators divisible by 2**p - 1 (e.g. gap 1/6 for
p=2, q=3). Stage j therefore lives on the integer lattice
1 / ((2**p - 1) * 2**(j*q)), and is built there as int64 numerators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import IntervalUnion, check_lattice

__all__ = [
    "CantorSpec",
    "cantor_stage",
    "stage_for_scale",
    "shift_union",
]

# Refinement depth guard: stage * q <= MAX_DEPTH keeps interval lengths at or
# above 2**-40, so exact numerators stay small and interval counts bounded.
MAX_DEPTH = 40


@dataclass(frozen=True)
class CantorSpec:
    """Parameters of the construction; dimension() == p/q < 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if not 0 < self.p < self.q:
            raise ValueError(f"need 0 < p < q, got p={self.p}, q={self.q}")

    def dimension(self) -> float:
        return self.p / self.q


def cantor_stage(spec: CantorSpec, stage: int) -> IntervalUnion:
    """The stage-j approximation: 2**(j*p) intervals of length 2**(-j*q)."""
    if stage < 0:
        raise ValueError("stage must be nonnegative")
    if stage * spec.q > MAX_DEPTH:
        raise ValueError(
            f"stage {stage} at q={spec.q} exceeds depth limit {MAX_DEPTH}"
        )
    children = 1 << spec.p
    # On the lattice 1/den, den = (2^p - 1) 2^(stage q), a stage-(j-1)
    # interval has length (2^p - 1) 2^((stage - j + 1) q) and its children
    # start every (2^q - 1) 2^((stage - j) q): the first flush left, the
    # last flush right. Each level is an outer add, and keeps the order.
    den = (children - 1) << (stage * spec.q)
    check_lattice(den, den)
    lows = np.zeros(1, dtype=np.int64)
    for j in range(1, stage + 1):
        step = ((1 << spec.q) - 1) << ((stage - j) * spec.q)
        lows = (lows[:, None] + np.arange(children, dtype=np.int64) * step).ravel()
    # the constructor rejects overlapping or unsorted children
    return IntervalUnion(den, lows, lows + (children - 1))


def stage_for_scale(spec: CantorSpec, delta) -> int:
    """Smallest stage whose interval length 2**(-j*q) is <= delta.

    At that stage the delta-neighborhood of the approximation carries the
    same coarse geometry as the limit set: each stage interval is entirely
    within delta of the set, so neighborhoods at scale >= delta agree up to
    a bounded dilate.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    j = 0
    length = Fraction(1)
    ratio = Fraction(1, 1 << spec.q)
    while length > delta:
        j += 1
        length *= ratio
        if j * spec.q > MAX_DEPTH:
            raise ValueError(f"delta={float(delta):g} needs depth beyond {MAX_DEPTH}")
    return j


def shift_union(A: IntervalUnion, s) -> IntervalUnion:
    """A together with its translate A + s, in normalized form.

    The doubled set has strictly larger pair-distance structure than A
    itself: differences near s appear with the mass of A's autocorrelation
    at 0. The canonical use is s = 1, which plants unit distances.
    """
    return A.union(A.shift(Fraction(s)))

