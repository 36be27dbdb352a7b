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
from functools import reduce
from typing import Sequence

import numpy as np

from .intervals import IntervalUnion

__all__ = ["GridIndicator", "rasterize", "AlphaSetReport", "alpha_set_verify"]

OCCUPANCY_CAP = 10**8
DENSE_CAP = 1 << 26


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)
    return Fraction(x)


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

    def dense_mask(self, which: str = "outer") -> np.ndarray:
        """Materialize the full d-dim boolean occupancy (size-capped)."""
        total = 1
        for n in self.dims:
            total *= n
        if total > DENSE_CAP:
            raise ValueError(f"dense mask of {total} cells exceeds cap {DENSE_CAP}")
        masks = self.axis_masks if which == "outer" else self.axis_masks_inner
        out = masks[0]
        for m in masks[1:]:
            out = np.multiply.outer(out, m)
        return out

    # -- serialization: header + per-axis run-length bitmaps ---------------

    def to_text(self) -> str:
        lines = [
            f"gridindicator d={self.d} cell={self.cell} delta={self.delta} "
            f"alpha={self.alpha:.17g}",
            f"label {self.label}",
        ]
        for ax in range(self.d):
            lines.append(f"axis origin={self.origin[ax]} n={self.dims[ax]}")
            lines.append("outer " + _rle_encode(self.axis_masks[ax]))
            lines.append("inner " + _rle_encode(self.axis_masks_inner[ax]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GridIndicator":
        lines = text.splitlines()
        head = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
        if not lines[0].startswith("gridindicator "):
            raise ValueError("missing gridindicator header")
        d = int(head["d"])
        label = lines[1].removeprefix("label ").strip() if len(lines) > 1 else ""
        masks, inners, origins = [], [], []
        at = 2
        for _ in range(d):
            ax_head = dict(tok.split("=", 1) for tok in lines[at].split()[1:])
            n = int(ax_head["n"])
            origins.append(Fraction(ax_head["origin"]))
            masks.append(_rle_decode(lines[at + 1].removeprefix("outer "), n))
            inners.append(_rle_decode(lines[at + 2].removeprefix("inner "), n))
            at += 3
        return cls(
            axis_masks=tuple(masks),
            axis_masks_inner=tuple(inners),
            origin=tuple(origins),
            cell=Fraction(head["cell"]),
            delta=Fraction(head["delta"]),
            alpha=float(head["alpha"]),
            label=label,
        )


def _rle_encode(mask: np.ndarray) -> str:
    """Run lengths of alternating values, first run counting zeros."""
    runs = []
    current, count = False, 0
    for bit in mask:
        if bool(bit) == current:
            count += 1
        else:
            runs.append(count)
            current, count = bool(bit), 1
    runs.append(count)
    return " ".join(str(r) for r in runs)


def _rle_decode(text: str, n: int) -> np.ndarray:
    runs = [int(tok) for tok in text.split()]
    out = np.zeros(n, dtype=bool)
    at, value = 0, False
    for r in runs:
        if value:
            out[at : at + r] = True
        at += r
        value = not value
    if at != n:
        raise ValueError(f"run lengths sum to {at}, expected {n}")
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
    den = math.lcm(fattened.den, cell.denominator)
    lo, hi = fattened.numerators(den)
    step = cell.numerator * (den // cell.denominator)  # the cell in 1/den units
    base = int(lo[0]) // step
    lo, hi = lo - base * step, hi - base * step
    n = -(-int(hi[-1]) // step)
    outer = _cover(lo // step, -(-hi // step), n)
    inner = _cover(-(-lo // step), hi // step, n)
    return outer, inner, Fraction(base * step, den)


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
    delta_q, cell_q = _frac(delta), _frac(cell)
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


def _ball_cell_count(G: GridIndicator, x: np.ndarray, r: float) -> int:
    """Occupied cells with center within r of x, via per-axis prefix sums."""
    cell = float(G.cell)
    prefixes = []
    first_centers = []
    for ax in range(G.d):
        mask = G.axis_masks[ax]
        prefixes.append(np.concatenate([[0], np.cumsum(mask)]))
        first_centers.append(float(G.origin[ax]) + 0.5 * cell)

    def axis_count(ax: int, center: float, halfwidth) -> np.ndarray:
        lo = np.ceil((center - halfwidth - first_centers[ax]) / cell).astype(np.int64)
        hi = np.floor((center + halfwidth - first_centers[ax]) / cell).astype(np.int64)
        n = len(G.axis_masks[ax])
        lo = np.clip(lo, 0, n)
        hi = np.clip(hi + 1, 0, n)
        return prefixes[ax][np.maximum(hi, lo)] - prefixes[ax][lo]

    if G.d == 1:
        return int(axis_count(0, x[0], np.array(r)))
    # enumerate occupied rows (and planes) within reach, prefix-count axis 0
    last = G.d - 1
    centers_last = G.axis_centers(last)
    sel = np.nonzero(G.axis_masks[last] & (np.abs(centers_last - x[last]) <= r))[0]
    if G.d == 2:
        dy = centers_last[sel] - x[1]
        hw = np.sqrt(np.maximum(0.0, r * r - dy * dy))
        return int(axis_count(0, x[0], hw).sum())
    centers_mid = G.axis_centers(1)
    sel_mid = np.nonzero(G.axis_masks[1] & (np.abs(centers_mid - x[1]) <= r))[0]
    if sel.size == 0 or sel_mid.size == 0:
        return 0
    dy = (centers_mid[sel_mid] - x[1])[:, None]
    dz = (centers_last[sel] - x[2])[None, :]
    hw2 = r * r - dy * dy - dz * dz
    ok = hw2 > 0
    if not ok.any():
        return 0
    hw = np.sqrt(hw2[ok])
    return int(axis_count(0, x[0], hw).sum())


def alpha_set_verify(
    G: GridIndicator, alpha: float, sample_count: int, seed: int = 0
) -> AlphaSetReport:
    """Sample the ball-growth ratio over occupied-cell centers and radii
    r in [delta, diameter], returning the empirical supremum and its ball.

    Centers are restricted to occupied cells: the supremum of the ratio is
    attained near the set, so off-set centers only waste samples.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    occ_idx = [np.nonzero(m)[0] for m in G.axis_masks]
    if any(idx.size == 0 for idx in occ_idx):
        raise ValueError("grid has no occupied cells")
    delta = float(G.delta)
    cell = float(G.cell)
    spans = [
        (len(m) * cell) for m in G.axis_masks
    ]
    diameter = max(math.sqrt(sum(s * s for s in spans)), 2 * delta)
    rng = np.random.default_rng(seed)

    sup_ratio = -1.0
    worst = (np.zeros(G.d), delta)
    radii = np.exp(rng.uniform(math.log(delta), math.log(diameter), sample_count))
    center_idx = np.stack(
        [idx[rng.integers(0, idx.size, sample_count)] for idx in occ_idx], axis=1
    )
    for s in range(sample_count):
        x = np.array(
            [
                float(G.origin[ax]) + (center_idx[s, ax] + 0.5) * cell
                for ax in range(G.d)
            ]
        )
        r = float(radii[s])
        measure = _ball_cell_count(G, x, r) * cell**G.d
        ratio = measure / ((r / delta) ** alpha * delta**G.d)
        if ratio > sup_ratio:
            sup_ratio = ratio
            worst = (x, r)
    return AlphaSetReport(
        sup_ratio=float(sup_ratio),
        samples_tested=sample_count,
        worst_x=tuple(float(v) for v in worst[0]),
        worst_r=float(worst[1]),
    )
