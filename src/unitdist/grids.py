"""Rasterization of interval-union products to uniform grids.

A GridIndicator is the cell-level picture of a delta-neighborhood
K_delta = (A1)_delta x ... x (Ad)_delta, d <= 3. Because every set we
rasterize is an axis product, occupancy is stored per axis (outer = cells
meeting the neighborhood in positive length, inner = cells fully inside)
and the full d-dimensional bitmaps are materialized only on demand, under a
size cap. Outer and inner cell measures bracket |K_delta| exactly.

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

OCCUPANCY_CAP = 10**8
DENSE_CAP = 1 << 26
_BALL_BLOCK = 1 << 16  # (sample, row[, plane]) expansions evaluated at once


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


@dataclass(frozen=True)
class GridIndicator:
    """Per-axis occupancy of a product neighborhood on a uniform grid."""

    axis_masks: tuple[np.ndarray, ...]
    axis_masks_inner: tuple[np.ndarray, ...]
    origin: tuple[Fraction, ...]
    cell: Fraction
    delta: Fraction
    alpha: float
    label: str = ""

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

    def occupied_count(self, which: str = "outer") -> int:
        masks = self.axis_masks if which == "outer" else self.axis_masks_inner
        out = 1
        for m in masks:
            out *= int(m.sum())
        return out

    def occupied_measure(self, which: str = "outer") -> Fraction:
        return self.occupied_count(which) * self.cell**self.d

    def axis_centers(self, axis: int) -> np.ndarray:
        n = len(self.axis_masks[axis])
        o, c = float(self.origin[axis]), float(self.cell)
        return o + (np.arange(n) + 0.5) * c

    def dense_mask(self) -> np.ndarray:
        """Materialize the full d-dim boolean outer occupancy (size-capped)."""
        total = 1
        for n in self.dims:
            total *= n
        if total > DENSE_CAP:
            raise ValueError(f"dense mask of {total} cells exceeds cap {DENSE_CAP}")
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
    label: str = "",
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
    count = 1
    for axis_set in axes:
        outer, inner, origin = _axis_occupancy(
            axis_set.neighborhood(delta_q), cell_q
        )
        count *= int(outer.sum())
        if count > OCCUPANCY_CAP:
            raise ValueError(f"occupied-cell count exceeds cap {OCCUPANCY_CAP}")
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
        label=label,
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
    """Occupied cells with center within r[s] of x[s], for every sample s.

    Axis 0 is counted with one prefix sum over its mask. For d = 2, 3 each
    sample is expanded against the occupied rows (and planes) within its
    reach, at most _BALL_BLOCK expansions at a time, and a row contributes
    the axis-0 cells within its chord half-width.
    """
    cell = float(G.cell)
    first = float(G.origin[0]) + 0.5 * cell
    n0 = len(G.axis_masks[0])
    prefix = np.concatenate([[0], np.cumsum(G.axis_masks[0])])

    def axis0_count(center: np.ndarray, halfwidth: np.ndarray) -> np.ndarray:
        lo = np.ceil((center - halfwidth - first) / cell).astype(np.int64)
        hi = np.floor((center + halfwidth - first) / cell).astype(np.int64)
        lo = np.clip(lo, 0, n0)
        hi = np.clip(hi + 1, 0, n0)
        return prefix[np.maximum(hi, lo)] - prefix[lo]

    if G.d == 1:
        return axis0_count(x[:, 0], r)
    # Per outer axis, the occupied centers and, per sample, the run of them
    # within reach. The run is found with a one-cell guard; the distance
    # tests below decide membership exactly.
    occupied, start, length = [], [], []
    for ax in range(1, G.d):
        centers = G.axis_centers(ax)[G.axis_masks[ax]]
        lo = np.searchsorted(centers, x[:, ax] - r - cell, "left")
        hi = np.searchsorted(centers, x[:, ax] + r + cell, "right")
        occupied.append(centers)
        start.append(lo)
        length.append(hi - lo)
    sizes = length[0] if G.d == 2 else length[0] * length[1]
    ends = np.cumsum(sizes)
    counts = np.zeros(len(sizes), dtype=np.int64)
    s0 = 0
    while s0 < len(sizes):
        base = ends[s0] - sizes[s0]
        s1 = max(s0 + 1, int(np.searchsorted(ends, base + _BALL_BLOCK, "right")))
        s = np.repeat(np.arange(s0, s1), sizes[s0:s1])
        local = np.arange(ends[s1 - 1] - base) - (ends[s] - sizes[s] - base)
        rs = r[s]
        if G.d == 2:
            dy = occupied[0][start[0][s] + local] - x[s, 1]
            ok = np.abs(dy) <= rs
            hw = np.sqrt(np.maximum(0.0, rs * rs - dy * dy))
        else:
            nz = length[1][s]
            iy = local // nz
            dy = occupied[0][start[0][s] + iy] - x[s, 1]
            dz = occupied[1][start[1][s] + local - iy * nz] - x[s, 2]
            hw2 = rs * rs - dy * dy - dz * dz
            ok = (np.abs(dy) <= rs) & (np.abs(dz) <= rs) & (hw2 > 0)
            hw = np.sqrt(np.where(ok, hw2, 0.0))
        cum = np.concatenate([[0], np.cumsum(np.where(ok, axis0_count(x[s, 0], hw), 0))])
        seg = ends[s0:s1] - base
        counts[s0:s1] = cum[seg] - cum[seg - sizes[s0:s1]]
        s0 = s1
    return counts


def alpha_set_verify(
    G: GridIndicator, alpha: float, sample_count: int, seed: int = 0
) -> AlphaSetReport:
    """Sample the ball-growth ratio over occupied-cell centers and radii
    r in [delta, diameter], returning the empirical supremum and its ball.

    Centers are restricted to occupied cells: the supremum of the ratio is
    attained near the set, so off-set centers only waste samples. All
    samples are drawn up front and their balls counted in NumPy blocks
    (`_ball_cell_counts`); the first sample attaining the maximum ratio is
    reported. The ratio's denominator uses Python's float power, because
    `np.power` can differ from it in the last bit.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    occ_idx = [np.nonzero(m)[0] for m in G.axis_masks]
    if any(idx.size == 0 for idx in occ_idx):
        raise ValueError("grid has no occupied cells")
    delta = float(G.delta)
    cell = float(G.cell)
    spans = [len(m) * cell for m in G.axis_masks]
    diameter = max(math.sqrt(sum(s * s for s in spans)), 2 * delta)
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(math.log(delta), math.log(diameter), sample_count))
    x = np.stack(
        [
            G.axis_centers(ax)[idx[rng.integers(0, idx.size, sample_count)]]
            for ax, idx in enumerate(occ_idx)
        ],
        axis=1,
    )
    measure = _ball_cell_counts(G, x, radii) * cell**G.d
    volume = delta**G.d
    ratio = measure / np.array([(r / delta) ** alpha * volume for r in radii.tolist()])
    worst = int(np.argmax(ratio))
    return AlphaSetReport(
        sup_ratio=float(ratio[worst]),
        samples_tested=sample_count,
        worst_x=tuple(float(v) for v in x[worst]),
        worst_r=float(radii[worst]),
    )
