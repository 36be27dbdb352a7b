"""Rasterization of interval-union products to uniform grids.

A GridIndicator is the cell-level picture of a delta-neighborhood
K_delta = (A1)_delta x ... x (Ad)_delta, d <= 3. Because every set we
rasterize is an axis product, occupancy is stored per axis (outer = cells
meeting the neighborhood in positive length, inner = cells fully inside)
and the full d-dimensional bitmaps are materialized only on demand. Outer
and inner cell measures bracket |K_delta| exactly.

All index arithmetic happens on the exact integer lattice shared by the
union's endpoints and the cell size, so a cell is never misclassified by
float rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .intervals import IntervalUnion

__all__ = [
    "GridIndicator",
    "rasterize",
    "AlphaSetReport",
    "alpha_set_verify",
    "fft_length",
]

INT64_LIMIT = 1 << 63  # an exact integer sum bounded below this fits int64
MEMORY_BUDGET = 3 << 30  # bytes one step may allocate


def _within_budget(step: str, nbytes: int) -> None:
    """Refuse a step whose bytes, predicted from sizes known before it
    allocates anything, exceed MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        budget = f"the memory budget of {MEMORY_BUDGET} bytes"
        raise ValueError(f"{step}: {nbytes} bytes predicted, over {budget}")


def fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m: a transform length that NumPy's FFT runs
    about as fast as a power of two, without doubling a length that only
    just passes one."""
    if m < 1:
        raise ValueError("transform length must be positive")
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to m or beyond
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _certified_counts(raw: np.ndarray) -> np.ndarray:
    """FFT counts rounded to int64. Raises if any value lies 0.25 or more
    from its integer, so rounding never hides a wrong count."""
    counts = np.rint(raw)
    if np.any(np.abs(raw - counts) >= 0.25):
        raise FloatingPointError("FFT counts are not within 0.25 of integers")
    return counts.astype(np.int64)


@dataclass(frozen=True)
class GridIndicator:
    """Per-axis occupancy of a product neighborhood on a uniform grid."""

    axis_masks: tuple[np.ndarray, ...]
    axis_masks_inner: tuple[np.ndarray, ...]
    origin: tuple[Fraction, ...]
    cell: Fraction
    delta: Fraction
    alpha: float

    def __post_init__(self) -> None:
        if not 1 <= len(self.axis_masks) <= 3:
            raise ValueError("grids support 1 to 3 axes")
        if self.cell <= 0 or self.delta <= 0:
            raise ValueError("cell and delta must be positive")
        if self.cell > self.delta:
            raise ValueError("cell must not exceed delta")
        for outer, inner in zip(self.axis_masks, self.axis_masks_inner):
            outer.setflags(write=False)
            inner.setflags(write=False)
            if inner.shape != outer.shape:
                raise ValueError("inner/outer axis masks must align")
            if np.any(inner & ~outer):
                raise ValueError("inner occupancy must be a subset of outer")

    @property
    def d(self) -> int:
        return len(self.axis_masks)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.axis_masks)

    def axis_centers(self, axis: int) -> np.ndarray:
        n = len(self.axis_masks[axis])
        o, c = float(self.origin[axis]), float(self.cell)
        return o + (np.arange(n) + 0.5) * c

    def dense_mask(self) -> np.ndarray:
        """Materialize the full d-dim boolean outer occupancy."""
        out = self.axis_masks[0]
        for m in self.axis_masks[1:]:
            out = np.multiply.outer(out, m)
        return out


def _axis_occupancy(
    fattened: IntervalUnion, cell: Fraction
) -> tuple[np.ndarray, np.ndarray, Fraction]:
    """Outer/inner cell masks for one axis, plus the grid origin.

    Outer marks cells overlapping the union in positive length (a cell
    touching only at an endpoint carries no measure and stays empty);
    inner marks cells entirely inside one interval.
    """
    if fattened.is_empty:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool), Fraction(0)
    lo, hi, step, n, origin = fattened._cells(cell)
    _within_budget("rasterize", 24 * n)  # the covers' int64 counts: 18 bytes a cell
    outer = _cover(lo // step, -(-hi // step), n)
    inner = _cover(-(-lo // step), hi // step, n)
    return outer, inner, origin


def _cover(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """Mask of the n cells in the union of the index ranges [start, stop)."""
    keep = stop > start
    edges = np.bincount(start[keep], minlength=n + 1) - np.bincount(
        stop[keep], minlength=n + 1
    )
    return np.cumsum(edges[:n]) > 0


def rasterize(
    sets: IntervalUnion | Sequence[IntervalUnion],
    delta,
    cell,
    alpha: float = float("nan"),
) -> GridIndicator:
    """Rasterize the product of 1-3 interval unions' delta-neighborhoods.

    Occupied-cell measure over-approximates |K_delta| by at most the factor
    (1 + 2 cell/delta)^d; the inner masks give the matching lower bracket.
    """
    axes = [sets] if isinstance(sets, IntervalUnion) else list(sets)
    if not 1 <= len(axes) <= 3:
        raise ValueError("need 1 to 3 axis unions")
    delta_q, cell_q = Fraction(delta), Fraction(cell)
    if cell_q > delta_q or delta_q <= 0 or cell_q <= 0:
        raise ValueError("need 0 < cell <= delta")
    outers, inners, origins = [], [], []
    for axis_set in axes:
        outer, inner, origin = _axis_occupancy(
            axis_set.neighborhood(delta_q), cell_q
        )
        outers.append(outer)
        inners.append(inner)
        origins.append(origin)
    return GridIndicator(
        axis_masks=tuple(outers),
        axis_masks_inner=tuple(inners),
        origin=tuple(origins),
        cell=cell_q,
        delta=delta_q,
        alpha=alpha,
    )


@dataclass(frozen=True)
class AlphaSetReport:
    """Empirical constant for the ball-growth condition
    |K_delta ∩ B(x, r)| <= C (r/delta)^alpha delta^d, r >= delta."""

    sup_ratio: float
    samples_tested: int
    worst_x: tuple[float, ...]
    worst_r: float


def _ball_cell_counts(G: GridIndicator, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Occupied cells of a 1-D grid with center within r[s] of x[s], for
    every sample s, from one prefix sum over the mask."""
    cell = float(G.cell)
    first = float(G.origin[0]) + 0.5 * cell
    n = len(G.axis_masks[0])
    prefix = np.concatenate([[0], np.cumsum(G.axis_masks[0])])
    lo = np.clip(np.ceil((x - r - first) / cell).astype(np.int64), 0, n)
    hi = np.clip(np.floor((x + r - first) / cell).astype(np.int64) + 1, 0, n)
    return prefix[np.maximum(hi, lo)] - prefix[lo]


def alpha_set_verify(
    G: GridIndicator, alpha: float, sample_count: int, seed: int = 0
) -> AlphaSetReport:
    """Sample the ball-growth ratio of a 1-D grid over occupied-cell centers
    and radii r in [delta, diameter], returning the empirical supremum and
    its ball.

    Centers are restricted to occupied cells: the supremum of the ratio is
    attained near the set, so off-set centers only waste samples. All
    samples are drawn up front and their balls counted at once
    (`_ball_cell_counts`); the first sample attaining the maximum ratio is
    reported. The ratio's denominator uses Python's float power, because
    `np.power` can differ from it in the last bit.
    """
    if G.d != 1:
        raise ValueError(f"alpha_set_verify needs a 1-D grid, got d = {G.d}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    occupied = np.nonzero(G.axis_masks[0])[0]
    if occupied.size == 0:
        raise ValueError("grid has no occupied cells")
    delta = float(G.delta)
    cell = float(G.cell)
    diameter = max(len(G.axis_masks[0]) * cell, 2 * delta)
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(delta), math.log(diameter), sample_count))
    x = G.axis_centers(0)[occupied[rng.integers(0, occupied.size, sample_count)]]
    measure = _ball_cell_counts(G, x, radii) * cell
    ratio = measure / np.array([(r / delta) ** alpha * delta for r in radii.tolist()])
    worst = int(np.argmax(ratio))
    return AlphaSetReport(
        sup_ratio=float(ratio[worst]),
        samples_tested=sample_count,
        worst_x=(float(x[worst]),),
        worst_r=float(radii[worst]),
    )
