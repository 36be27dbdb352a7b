"""Discrete unit-distance counting.

Ordered-pair convention throughout: the count is over ordered pairs
(p1, p2), p1 != p2, with 1 - eps <= |p1 - p2| <= 1 + eps, the distance and
the edges as doubles. The literature often reports unordered edges; ordered
counts here are exactly twice those.

`_band_limits` takes the squared band from `geom._squared_limits`, so a
squared distance is decided exactly as its square root. The brute force, the
counting oracle, evaluates every unordered pair once; the grid counter and
the census run the package's one near-pair search, `geom._near_pairs`, on
the neighbour grid (cells just wider than the unit band). All take squared
distances from the one kernel `geom._sq_dist`, so they agree bit-for-bit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geom import _near_pairs, _sq_dist, _squared_limits, general_position_check

__all__ = [
    "PointSet",
    "count_unit_pairs_bruteforce",
    "count_unit_pairs_grid",
    "two_circles_r4",
    "random_general_position",
    "UnitPairReport",
    "unit_step_census",
]

_BLOCK_PAIRS = 1 << 15  # pairs per in-band block: a float block stays in cache


@dataclass(frozen=True)
class PointSet:
    """Finite point configuration with an explicit unit-distance tolerance.

    eps is always an explicit field: exact-1 distances exist only in
    constructed examples, while random experiments need a band. A pair is a
    unit pair when 1 - eps <= |p1 - p2| <= 1 + eps, with the distance and
    the edges as doubles; eps must be finite and >= 0.
    """

    points: np.ndarray
    eps: float = 1e-9
    label: str = ""

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {pts.shape}")
        if not 1 <= pts.shape[1] <= 8:
            raise ValueError(f"dimension {pts.shape[1]} outside 1..8")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _band_limits(eps: float) -> tuple[float, float]:
    """The squared limits of the unit band [max(0, 1 - eps), 1 + eps]."""
    return _squared_limits(max(0.0, 1.0 - eps), 1.0 + eps)


def _inband_blocks(P: PointSet) -> Iterator[np.ndarray]:
    """Whether each unordered pair {i, j}, i != j, is in the unit band, each
    pair once, in bool blocks of about `_BLOCK_PAIRS` pairs.

    Row i of a block pairs p_i with p_{(i + s) mod n} for the shifts
    s = 1 .. (n - 1) // 2, read as a sliding window over the coordinates
    repeated once, so a block is a plain broadcast with no gather; for even
    n the shift n / 2 is taken from i < n / 2 only. |p - q|^2 has the same
    bits as |q - p|^2, so every pair is decided as in the full (n, n) matrix.
    """
    cols = np.ascontiguousarray(P.points.T)
    lo2, hi2 = _band_limits(P.eps)
    d, n = cols.shape
    h = (n - 1) // 2
    if h > 0:
        # window[k, i, s - 1] = ext[k, i + s - 1] = coordinate k of p_{(i + s) mod n}
        ext = np.concatenate([cols[:, 1:], cols[:, :h]], axis=1)
        step = ext.strides[1]
        window = np.ndarray((d, n, h), ext.dtype, ext, 0, (ext.strides[0], step, step))
        rows = max(1, _BLOCK_PAIRS // h)
        for i0 in range(0, n, rows):
            d2 = _sq_dist(cols[:, i0 : i0 + rows, None], window[:, i0 : i0 + rows])
            yield (d2 >= lo2) & (d2 <= hi2)
    if n and n % 2 == 0:
        d2 = _sq_dist(cols[:, : n // 2, None], cols[:, n // 2 :, None])
        yield (d2 >= lo2) & (d2 <= hi2)


def count_unit_pairs_bruteforce(P: PointSet) -> int:
    """O(n^2) reference count of ordered unit pairs: twice the unordered
    pairs in the band, each evaluated once."""
    return 2 * sum(int(np.count_nonzero(inband)) for inband in _inband_blocks(P))


def _neighbour_grid(eps: float) -> float:
    """Cell side of the grid counter.

    The side is the band's outer radius 1 + eps widened by 2^-20, which
    covers the rounding of the cell quotients and of the squared distances
    for coordinates below 2^30. A pair in the band then lies in one cell or
    in two cells that touch, which is what `geom._near_pairs` searches.
    """
    return (1.0 + eps) * (1.0 + 2.0**-20)


def count_unit_pairs_grid(P: PointSet) -> int:
    """Cell-grid count, exactly equal to the brute-force count.

    Twice the number of unordered pairs that `geom._near_pairs` finds in
    the band on the neighbour grid (`_neighbour_grid`); the brute force's
    diagonal is out of band.

    Requires eps < 0.1, the band the counters are specified for; the brute
    force takes any eps.
    """
    if P.eps >= 0.1:
        raise ValueError("grid counter requires eps < 0.1")
    pairs = _near_pairs(P.points, _neighbour_grid(P.eps), *_band_limits(P.eps))
    return 2 * sum(i.size for i, _ in pairs)


def two_circles_r4(N: int, seed: int = 0) -> PointSet:
    """2N points in R^4: one seeded angular sample of N points of norm
    2^-1/2 placed on each of two orthogonal coordinate 2-planes.

    Every cross pair has squared distance 1/2 + 1/2 = 1 exactly, so the
    ordered unit-pair count is at least N^2 (actually 2 N^2, plus any
    within-circle chords that happen to land in the eps band).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, N)
    r = 1.0 / math.sqrt(2.0)
    xy = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    pts = np.zeros((2 * N, 4))
    pts[:N, 0:2] = xy
    pts[N:, 2:4] = xy
    return PointSet(points=pts, eps=1e-9, label=f"two-circles-r4(N={N},seed={seed})")


def random_general_position(
    n: int, d: int, seed: int, tol: float = 1e-9, sample_count: int = 10_000
) -> PointSet:
    """Uniform points in [0, n^(1/d)]^d, resampled until the general-position
    check passes (exhaustive when C(n, d) <= sample_count, else sampled).

    The box scales with n^(1/d) so density stays constant and unit pairs
    remain abundant. The retry sequence is deterministic in the seed; the
    check mode used is recorded in the label.
    """
    if d < 2 or d > 8:
        raise ValueError("d must be in 2..8")
    if n < d:
        raise ValueError("need n >= d")
    exhaustive = math.comb(n, d) <= sample_count
    mode = "exhaustive" if exhaustive else "sampled"
    box = n ** (1.0 / d)
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        pts = rng.uniform(0.0, box, (n, d))
        report = general_position_check(
            pts, tol=tol, mode=mode, sample_count=sample_count, seed=seed + attempt
        )
        if report.ok:
            return PointSet(
                points=pts,
                eps=1e-9,
                label=f"general-position(n={n},d={d},seed={seed},check={mode})",
            )
    raise RuntimeError(f"no general-position sample in 100 rounds (n={n}, d={d})")


@dataclass(frozen=True)
class UnitPairReport:
    """Census of unit steps: pairs, d-tuples of steps, and the endpoint map.

    edge_count is the number of ordered pairs (p, p+b) at unit distance,
    i.e. of unit steps (p, b). tuple_count counts tuples (p, b_1..b_d) with
    every (p, b_j) a unit step and repetitions allowed;
    distinct_tuple_count restricts to pairwise-distinct b_j.
    holder_lhs = edge_count^d / n^(d-1), which power-mean arithmetic forces
    to be <= tuple_count. max_endpoint_fiber is the largest number of
    distinct-step tuples sharing one endpoint image (p+b_1, ..., p+b_d).
    """

    n_points: int
    d: int
    edge_count: int
    tuple_count: int
    distinct_tuple_count: int
    holder_lhs: float
    max_endpoint_fiber: int


def _unit_neighbor_lists(P: PointSet) -> list[np.ndarray]:
    """neighbors[i] = indices j != i with |p_i - p_j| in the unit band, in
    ascending order, from the unordered pairs that `geom._near_pairs` finds
    on the neighbour grid."""
    n = P.n
    pairs = [(np.zeros(0, dtype=np.intp),) * 2]
    pairs += _near_pairs(P.points, _neighbour_grid(P.eps), *_band_limits(P.eps))
    i, j = (np.concatenate(a) for a in zip(*pairs))
    owner, other = np.concatenate([i, j]), np.concatenate([j, i])
    other = other[np.argsort(owner * n + other)]
    ends = np.bincount(owner, minlength=n).cumsum().tolist()
    return [other[a:b] for a, b in zip([0, *ends], ends)]


_TUPLE_CAP = 10**7


def unit_step_census(P: PointSet) -> UnitPairReport:
    """Count unit steps, step d-tuples, and endpoint-map collisions."""
    if P.d >= 3 and P.n > 2000:
        raise ValueError("census capped at 2000 points for d >= 3")
    if P.n == 0:
        return UnitPairReport(0, P.d, 0, 0, 0, 0.0, 0)
    neighbors = _unit_neighbor_lists(P)
    degs = np.array([len(nb) for nb in neighbors], dtype=np.int64)
    d = P.d
    edge_count = int(degs.sum())
    tuple_count = int((degs.astype(object) ** d).sum())
    falling = np.ones(len(degs), dtype=object)
    for k in range(d):
        falling *= np.maximum(degs - k, 0).astype(object)
    distinct_tuple_count = int(falling.sum())
    if distinct_tuple_count > _TUPLE_CAP:
        raise ValueError(
            f"distinct-tuple enumeration {distinct_tuple_count} exceeds cap {_TUPLE_CAP}"
        )

    # a fiber counts points, so every order of a d-set of neighbours has
    # the same fiber: each set is counted once, in ascending order
    fibers: dict[tuple[int, ...], int] = {}
    for nb in neighbors:
        for combo in itertools.combinations(nb.tolist(), d):
            fibers[combo] = fibers.get(combo, 0) + 1
    max_fiber = max(fibers.values()) if fibers else 0

    holder_lhs = edge_count**d / P.n ** (d - 1)
    return UnitPairReport(
        n_points=P.n,
        d=d,
        edge_count=edge_count,
        tuple_count=tuple_count,
        distinct_tuple_count=distinct_tuple_count,
        holder_lhs=holder_lhs,
        max_endpoint_fiber=max_fiber,
    )


def normalized_pair_count_value(count: int, n: int, d: int) -> float:
    return count / n ** ((2 * d - 1) / d)

