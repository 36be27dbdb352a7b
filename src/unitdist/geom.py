"""Core geometry: affine independence, circumspheres through the origin,
unit-step frames, annuli, and the triple-annulus diameter experiment.

Vectors are plain float64 numpy arrays of dimension 1..8. Tolerance policy:
geometric identities are checked to absolute 1e-9; rank decisions use a
caller-supplied singular-value threshold (default 1e-9); the tangency case
r0 == 1 is classified with 1e-12 so it only fires on constructed inputs.

Every affine-independence decision goes through `_min_singular_batch`. A
frame of d-1 steps in R^d is factored by one full SVD, which gives its rank
test, its circumcenter and its unit normal; d = 1 is the frame with no rows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "affinely_independent",
    "general_position_check",
    "GeneralPositionReport",
    "circumsphere_through_origin",
    "SphereSection",
    "TupleSolution",
    "unit_frame_solutions",
    "Annulus",
    "TripleAnnulusReport",
    "triple_annulus_diameter",
]

MAX_DIM = 8
IDENTITY_TOL = 1e-9       # |b_j| = 1 etc.
TANGENT_TOL = 1e-12       # r0 == 1 classification
BOUNDARY_SLACK = 1e-12    # closed-band membership, absorbs 1-ulp rounding


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not 1 <= v.size <= MAX_DIM:
        raise ValueError(f"dimension {v.size} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def _coords(P) -> np.ndarray:
    """Accept a PointSet or a raw (n, d) array."""
    pts = getattr(P, "points", P)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got {pts.shape}")
    return pts


def affinely_independent(points: Sequence, tol: float = 1e-9) -> bool:
    """Do d points in R^d span a (d-1)-flat?

    Equivalent to the d-1 difference vectors being linearly independent,
    decided by the smallest singular value exceeding `tol`. A single point
    (d=1) is vacuously independent.
    """
    pts = np.stack([_vec(p) for p in points])
    n, d = pts.shape
    if n != d:
        raise ValueError(f"need exactly d={d} points, got {n}")
    return _first_bad(pts, [tuple(range(d))], tol) is None


@dataclass(frozen=True)
class GeneralPositionReport:
    ok: bool
    witness: tuple[int, ...] | None
    mode: str
    subsets_tested: int


def _min_singular_batch(pts: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Smallest singular value of the difference matrix of each index combo.

    For d = 1 the matrix is empty: a single point is vacuously independent,
    so its smallest singular value is taken as +inf.
    """
    sub = pts[combos]                       # (m, d, d)
    diffs = sub[:, 1:, :] - sub[:, :1, :]   # (m, d-1, d)
    return np.linalg.svd(diffs, compute_uv=False).min(axis=1, initial=np.inf)


def general_position_check(
    P,
    tol: float = 1e-9,
    mode: str = "exhaustive",
    sample_count: int = 10_000,
    seed: int = 0,
) -> GeneralPositionReport:
    """Check that every d-subset of P is affinely independent.

    `mode="exhaustive"` enumerates all C(n, d) subsets; `mode="sampled"`
    draws `sample_count` seeded random subsets, each a uniform d-subset of
    range(n) drawn independently of the other rows by Floyd's algorithm
    (Bentley & Floyd, CACM 1987), so a subset may be drawn more than once.
    The witness of a failure is the offending index tuple, in ascending
    order.
    """
    pts = _coords(P)
    n, d = pts.shape
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < d:
        return GeneralPositionReport(True, None, mode, 0)

    if mode == "exhaustive":
        subsets = itertools.combinations(range(n), d)
        tested = 0
        while chunk := list(itertools.islice(subsets, 65536)):
            tested += len(chunk)
            bad = _first_bad(pts, chunk, tol)
            if bad is not None:
                return GeneralPositionReport(False, bad, mode, tested)
        return GeneralPositionReport(True, None, mode, tested)

    # Floyd's algorithm, one column for all rows at a time: column k draws
    # t uniform on [0, j], j = n - d + k, and takes j instead if the row
    # already holds t.
    rng = np.random.default_rng(seed)
    combos = np.empty((sample_count, d), dtype=np.intp)
    for k, j in enumerate(range(n - d, n)):
        t = rng.integers(0, j + 1, size=sample_count)
        taken = (combos[:, :k] == t[:, None]).any(axis=1)
        combos[:, k] = np.where(taken, j, t)
    combos.sort(axis=1)
    bad = _first_bad(pts, combos, tol)
    return GeneralPositionReport(bad is None, bad, mode, sample_count)


def _first_bad(pts, combos, tol) -> tuple[int, ...] | None:
    """First index tuple in `combos` whose points are affinely dependent."""
    combos = np.asarray(combos, dtype=np.intp)
    bad = np.nonzero(_min_singular_batch(pts, combos) <= tol)[0]
    if bad.size:
        return tuple(int(i) for i in combos[bad[0]])
    return None


def _frame(a: Sequence, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows A, circumcenter c0 and unit normal v of a frame, from one SVD.

    A = U S Vt. The rank test is min S > tol. c0 is the minimum-norm solution
    of 2 c . a_j = |a_j|^2, namely Vt[:-1]^T ((U^T rhs) / S) with
    rhs_j = |a_j|^2 / 2, so it lies in span(a). v = Vt[-1], signed so that
    its first nonzero coordinate is positive. With no rows (d = 1) S is
    empty, Vt = [[1]] and c0 = [0].
    """
    rows = [_vec(x) for x in a]
    A = np.stack(rows) if rows else np.zeros((0, 1))
    d = A.shape[1]
    if A.shape[0] != d - 1:
        raise ValueError(f"need d-1={d - 1} vectors in R^{d}, got {A.shape[0]}")
    u, sv, vt = np.linalg.svd(A, full_matrices=True)
    if sv.min(initial=np.inf) <= tol:
        raise ValueError("input vectors are linearly dependent")
    rhs = 0.5 * np.einsum("ij,ij->i", A, A)
    c0 = vt[:-1].T @ ((u.T @ rhs) / sv)
    v = vt[-1]
    if v[np.argmax(np.abs(v) > 1e-12)] < 0:
        v = -v
    return A, c0, v


def circumsphere_through_origin(
    a: Sequence, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through 0 and the d-1 points a_j,
    with the center constrained to span(a).

    The center solves 2 c . a_j = |a_j|^2 (equidistance from 0 and a_j);
    the minimum-norm least-squares solution lands in the row space, which
    is exactly span(a). Raises on linearly dependent input.
    """
    _, c0, _ = _frame(a, tol)
    return c0, float(np.linalg.norm(c0))


@dataclass(frozen=True)
class SphereSection:
    """Unit-sphere slice {|x| = 1, x . normal = offset}: a (d-2)-sphere."""

    offset: float
    normal: np.ndarray
    section_radius: float

    def __post_init__(self) -> None:
        gap = abs(self.section_radius**2 + self.offset**2 - 1.0)
        if gap > 1e-9:
            raise ValueError(f"r^2 + t^2 = 1 violated by {gap:.3e}")


@dataclass(frozen=True)
class TupleSolution:
    """Unit vectors b_1..b_d with b_j - b_1 equal to the prescribed steps."""

    b: np.ndarray            # (d, d), row j-1 is b_j
    t: float                 # signed height of b_1 over span(a)
    section: SphereSection


def unit_frame_solutions(a: Sequence, tol: float = 1e-9) -> list[TupleSolution]:
    """All tuples (b_1, ..., b_d) of unit vectors with b_j = b_1 + a_j.

    Geometry: such b_1 lies on the unit sphere and on the sphere of radius
    r0 about -c0 ... equivalently b_1 = t v - c0 where (c0, r0) is the
    circumsphere through the origin and the a_j, v the unit normal to
    span(a), and t = ±sqrt(1 - r0^2). Hence 0, 1, or 2 solutions:
    none for r0 > 1, one at tangency (|r0 - 1| <= 1e-12), else two,
    returned with the +t branch first.

    One full SVD of the (d-1) x d step matrix gives the rank test, c0 and v.
    d = 1 is the frame with no steps: b_1 = ±1.
    """
    A, c0, v = _frame(a, tol)
    r0 = float(np.linalg.norm(c0))
    if abs(r0 - 1.0) <= TANGENT_TOL:
        ts = [0.0]
    elif r0 > 1.0:
        return []
    else:
        s = math.sqrt(1.0 - r0 * r0)
        ts = [s, -s]

    out = []
    for t in ts:
        b1 = t * v - c0
        out.append(
            TupleSolution(
                b=np.vstack([b1, b1 + A]),
                t=t,
                section=SphereSection(t, v, math.sqrt(max(0.0, 1.0 - t * t))),
            )
        )
    return out


@dataclass(frozen=True)
class Annulus:
    """Points whose distance to `center` lies in 1 ± width_multiplier*delta."""

    center: np.ndarray
    delta: float
    width_multiplier: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _vec(self.center))
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.width_multiplier * self.delta >= 1:
            raise ValueError("band is wider than the unit distance itself")

    @property
    def band(self) -> tuple[float, float]:
        w = self.width_multiplier * self.delta
        return 1.0 - w, 1.0 + w

    def contains(self, x) -> bool:
        lo, hi = self.band
        r = float(np.linalg.norm(_vec(x) - self.center))
        return lo - BOUNDARY_SLACK <= r <= hi + BOUNDARY_SLACK


@dataclass(frozen=True)
class TripleAnnulusReport:
    diameter_estimate: float
    predicted_bound: float
    hit_count: int
    c_geo: float


def _sphere_directions(m: int) -> np.ndarray:
    # golden-spiral directions: deterministic, roughly uniform on S^2
    k = np.arange(m, dtype=np.float64)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / m
    theta = 2.0 * math.pi * k / golden
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def _cloud_diameter(hits: np.ndarray) -> float:
    if hits.shape[0] < 2:
        return 0.0
    if hits.shape[0] <= 4096:
        d2 = ((hits[:, None, :] - hits[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))
    # extreme points along fixed directions, then exact max among candidates
    dirs = _sphere_directions(96)
    proj = hits @ dirs.T
    cand_idx = np.unique(np.concatenate([proj.argmax(0), proj.argmin(0)]))
    cand = hits[cand_idx]
    d2 = ((cand[:, None, :] - cand[None, :, :]) ** 2).sum(-1)
    return float(np.sqrt(d2.max()))


def triple_annulus_diameter(
    a1,
    a2,
    a3,
    delta: float,
    samples: int = 1_000_000,
    seed: int = 0,
    c_geo: float = 10.0,
) -> TripleAnnulusReport:
    """Sampled diameter of A(a1,3d) ∩ A(a2,3d) ∩ A(a3,3d) in R^3 versus the
    predicted c_geo * sqrt(delta / (s_min sin(theta))).

    The intersection is mirror-symmetric across the plane of the three
    centers. When its two components are separated, the bound concerns one
    component, so sampling is restricted to the positive-side slab; when the
    z-window reaches the plane the components may merge and the full slab is
    sampled. Rejection sampling from an analytic bounding box around the
    three-sphere intersection point; the reported diameter is the max
    pairwise distance among accepted samples (0 if fewer than 2 hits).
    """
    p1, p2, p3 = _vec(a1), _vec(a2), _vec(a3)
    if not (p1.size == p2.size == p3.size == 3):
        raise ValueError("centers must lie in R^3")
    if not 0 < delta <= 1e-2:
        raise ValueError("delta must be in (0, 1e-2]")
    u, w = p2 - p1, p3 - p1
    s12, s13 = float(np.linalg.norm(u)), float(np.linalg.norm(w))
    s23 = float(np.linalg.norm(p3 - p2))
    for s in (s12, s13, s23):
        if not 0.1 <= s <= 1.9:
            raise ValueError(f"pairwise center distance {s:.4f} outside [0.1, 1.9]")
    cross = np.cross(u, w)
    sin_theta = float(np.linalg.norm(cross)) / (s12 * s13)
    if sin_theta <= 1e-9:
        raise ValueError("centers are collinear")

    e1 = u / s12
    n_hat = cross / np.linalg.norm(cross)
    e2 = np.cross(n_hat, e1)
    t1, t2 = float(w @ e1), float(w @ e2)

    # point equidistant (=1) from all three centers, in-plane coordinates
    xi1 = s12 / 2.0
    xi2 = (t1 * t1 + t2 * t2 - 2.0 * xi1 * t1) / (2.0 * t2)
    r0sq = xi1 * xi1 + xi2 * xi2
    z0sq = max(0.0, 1.0 - r0sq)

    # box half-extents from the pairwise band constraints (band 1 ± 6 delta)
    half_band = 6.0 * delta
    sq_gap = ((1 + half_band) ** 2 - (1 - half_band) ** 2) / 2.0  # = 12 delta
    e_xi1 = sq_gap / s12 + 2.0 * delta
    e_xi2 = sq_gap * (1.0 + abs(t1) / s12) / abs(t2) + 2.0 * delta

    def _sq_range(center: float, half: float) -> tuple[float, float]:
        lo, hi = center - half, center + half
        top = max(lo * lo, hi * hi)
        bot = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
        return bot, top

    p_lo1, p_hi1 = _sq_range(xi1, e_xi1)
    p_lo2, p_hi2 = _sq_range(xi2, e_xi2)
    z_sq_hi = max(0.0, (1 + half_band) ** 2 - (p_lo1 + p_lo2))
    z_sq_lo = max(0.0, (1 - half_band) ** 2 - (p_hi1 + p_hi2))
    if z_sq_hi <= 0.0 or z0sq + 1e-12 < z_sq_lo:
        hits = np.empty((0, 3))
    else:
        z_hi = math.sqrt(z_sq_hi)
        z_lo = math.sqrt(z_sq_lo)
        merged = z_sq_lo == 0.0
        rng = np.random.default_rng(seed)
        q1 = rng.uniform(xi1 - e_xi1, xi1 + e_xi1, samples)
        q2 = rng.uniform(xi2 - e_xi2, xi2 + e_xi2, samples)
        z = rng.uniform(-z_hi if merged else z_lo, z_hi, samples)
        pts = p1 + q1[:, None] * e1 + q2[:, None] * e2 + z[:, None] * n_hat
        lo_b, hi_b = 1.0 - half_band, 1.0 + half_band
        mask = np.ones(samples, dtype=bool)
        for c in (p1, p2, p3):
            r = np.linalg.norm(pts - c, axis=1)
            mask &= (r >= lo_b) & (r <= hi_b)
        hits = pts[mask]

    s_min = min(s12, s13)
    bound = c_geo * math.sqrt(delta / (s_min * sin_theta))
    return TripleAnnulusReport(
        diameter_estimate=_cloud_diameter(hits),
        predicted_bound=bound,
        hit_count=int(hits.shape[0]),
        c_geo=c_geo,
    )
