"""Fourier-side verification of the energy estimates.

The pipeline is: sample the indicator of the fattened set on its grid,
mollify at scale delta by multiplying the transform with a truncated
Gaussian kernel spectrum, then test two scalings -- the L2 norm of the
ball convolution against r^((1+alpha)/2) * delta^(1-alpha), and the
singular-weighted energy  integral |F|^2 |xi|^(alpha-1)  against
log(1/delta) * delta^(2(1-alpha)).  Everything here is one-dimensional: a
grid of higher dimension is refused, and each estimate reads alpha and
delta from the grid or spectrum it measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import INT64_LIMIT, GridIndicator, _within_budget

__all__ = [
    "MollifierSpec",
    "SpectrumGrid",
    "mollify_transform",
    "BallConvolutionReport",
    "ball_convolution_l2",
    "EnergyReport",
    "weighted_energy",
]

SUPPORT_RADIUS = 8.0  # kernel mass beyond 8 sigma is < 1.3e-15


@dataclass(frozen=True)
class MollifierSpec:
    """Gaussian bump of standard deviation `scale`, truncated at 8 scales.

    The truncation keeps the kernel compactly supported while leaving its
    mass within 1e-12 of one, so frequency-domain multiplication by the
    untruncated Gaussian transform is legitimate to the same accuracy.
    """

    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("mollifier scale must be positive")

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        s = self.scale
        return np.exp(-2 * math.pi**2 * s * s * np.asarray(xi) ** 2)


@dataclass(frozen=True)
class SpectrumGrid:
    """Half-spectrum (rfft layout) of the mollified indicator on a line.

    `values[k]` approximates F(1_{K_delta} * rho_delta)(k / (length *
    sample_spacing)); `norm_sq` is the spatial-side squared L2 norm stored
    at construction so the Parseval identity can always be re-audited.
    """

    sample_spacing: float
    length: int
    values: np.ndarray
    delta: float
    alpha: float
    norm_sq: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.length & (self.length - 1):
            raise ValueError("length must be a power of two")
        if v.size != self.length // 2 + 1:
            raise ValueError("values must be an rfft half-spectrum")
        gap = self.parseval_gap()
        if gap > 1e-6:
            raise ValueError(f"Parseval identity violated: relative gap {gap:.3g}")

    @property
    def frequency_spacing(self) -> float:
        return 1.0 / (self.length * self.sample_spacing)

    def _rfft_weights(self) -> np.ndarray:
        w = np.full(self.values.size, 2.0)
        w[0] = 1.0
        w[-1] = 1.0  # Nyquist bin is unpaired for even lengths
        return w

    def spectral_norm_sq(self) -> float:
        w = self._rfft_weights()
        return float((w * np.abs(self.values) ** 2).sum() * self.frequency_spacing)

    def parseval_gap(self) -> float:
        s = self.spectral_norm_sq()
        denom = max(self.norm_sq, s, 1e-300)
        return abs(s - self.norm_sq) / denom


def _require_line(G: GridIndicator) -> None:
    if G.d != 1:
        raise ValueError(f"spectra are one-dimensional; grid has d = {G.d}")


def mollify_transform(G: GridIndicator) -> SpectrumGrid:
    """Transform of the delta-mollified indicator of a rasterized line set.

    Requires grid resolution at most delta/4 so the mollifier is resolved.
    """
    _require_line(G)
    delta = float(G.delta)
    cell = float(G.cell)
    if cell > delta / 4 + 1e-15:
        raise ValueError("grid resolution must be at most delta/4")
    mask = np.asarray(G.axis_masks[0])
    sigma = delta
    extra = int(math.ceil(SUPPORT_RADIUS * sigma / cell)) + 1
    need = mask.size + 2 * extra
    N = 1 << max(need - 1, 1).bit_length()
    _within_budget("mollified transform", 56 * N)  # 45 bytes per sample measured
    spec = np.fft.rfft(mask.astype(np.float64), N) * cell
    xi = np.arange(spec.size) / (N * cell)
    spec = spec * MollifierSpec(sigma).fourier(xi)
    samples = np.fft.irfft(spec / cell, N)
    norm_sq = float((samples * samples).sum() * cell)
    return SpectrumGrid(
        sample_spacing=cell,
        length=N,
        values=spec,
        delta=delta,
        alpha=G.alpha,
        norm_sq=norm_sq,
    )


# ---------------------------------------------------------------------------
# (est): ball-convolution L2 norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallConvolutionReport:
    l2_norm: float
    ratio: float  # l2 / (r^((1+alpha)/2) * delta^(1-alpha))
    r: float


def _sqrt_rounded(x: Fraction) -> float:
    """The float nearest sqrt(x) for a rational x >= 0.

    The root of x 4^k, with k chosen to give it at least 55 bits, is
    floor-rooted in integers; a last bit set when that root is inexact
    sits below float()'s rounding position, so float() rounds as the
    exact root would (and rounds a true tie to even).
    """
    num, den = x.numerator, x.denominator
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    n, rem = divmod(num << (2 * k), den)
    q = math.isqrt(n)
    return math.ldexp(float(2 * q + (q * q != n or rem != 0)), -k - 1)


def ball_convolution_l2(G: GridIndicator, r: float) -> BallConvolutionReport:
    """|| 1_{K_delta} * 1_{B(0,r)} ||_2 on the grid, with its scaling ratio.

    The convolution value at x is the measure of K_delta within distance r
    of x; its L2 norm obeys r^((1+alpha)/2) delta^(1-alpha) scaling exactly
    when the set is a true alpha-set.

    On the grid, [-r, r] covers 2R whole cells, R = floor(r / cell), and
    two edge cells by a = r - R cell each, so the convolution at a window
    of 2R cells is cell W + a E: W occupied cells inside (from one prefix
    sum of the mask), E occupied edge cells. Its squared norm
    cell (cell^2 sum W^2 + 2 cell a sum W E + a^2 sum E^2) is an exact
    rational (when r / cell is an integer, a = 0 and only sum W^2 is
    taken), and l2_norm its correctly rounded root. Each sum is at most
    sum (W + E)^2 <= (2R + 2) n min(2R + 2, n) over n occupied cells;
    where that bound reaches 2^63 the sums run in Python ints.
    """
    _require_line(G)
    delta = float(G.delta)
    if r < delta:
        raise ValueError("need r >= delta")
    if not math.isfinite(G.alpha):
        raise ValueError("grid carries no alpha")
    cell = G.cell
    R, a = divmod(Fraction(r), cell)
    mask = np.asarray(G.axis_masks[0])
    n = int(mask.sum())
    span = 2 * R + 2  # cells a window and its two edge cells cover
    # every window meeting the mask, with its edge cells, is read in bounds
    padded = np.concatenate([np.zeros(span, np.int64), mask, np.zeros(span, np.int64)])
    prefix = np.concatenate([[0], np.cumsum(padded)])
    top = padded.size - 2 * R  # windows [s, s + 2R) for s = 1 ... top - 1
    W = prefix[2 * R + 1 : -1] - prefix[1:top]
    if span * n * min(span, n) >= INT64_LIMIT:
        W = W.astype(object)
    norm_sq = cell**2 * int(W @ W)
    if a:
        E = (padded[: top - 1] + padded[2 * R + 1 :]).astype(W.dtype)
        norm_sq += 2 * cell * a * int(W @ E) + a * a * int(E @ E)
    l2 = _sqrt_rounded(cell * norm_sq)
    ref = r ** ((1 + G.alpha) / 2) * delta ** (1 - G.alpha)
    return BallConvolutionReport(l2_norm=l2, ratio=l2 / ref, r=r)


# ---------------------------------------------------------------------------
# (est3): singular-weighted energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    energy: float
    reference: float  # log(1/delta) * delta^(2(1-alpha))

    @property
    def ratio(self) -> float:
        return self.energy / self.reference


def weighted_energy(S: SpectrumGrid) -> EnergyReport:
    """integral of |F(1_{K_delta} * rho_delta)|^2 |xi|^(alpha-1) d xi, with
    alpha and delta read from the spectrum.

    The weight is singular at the origin; the zero-frequency cell gets the
    exact cell average of the weight, which is the discrete version of
    splitting off a bounded low-frequency term. Rejected for alpha >= 1,
    where the weight stops being locally integrable in the intended sense.
    """
    alpha, delta = S.alpha, S.delta
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    if delta <= 0 or delta >= 1:
        raise ValueError("need 0 < delta < 1")
    reference = math.log(1.0 / delta) * delta ** (2 * (1 - alpha))
    h = S.frequency_spacing
    xi = np.arange(S.values.size) * h
    weight = np.empty_like(xi)
    half = h / 2  # the origin cell [-h/2, h/2] gets the weight's cell average
    weight[0] = half ** (alpha - 1) / alpha
    weight[1:] = xi[1:] ** (alpha - 1)
    w = S._rfft_weights()
    energy = float((w * np.abs(S.values) ** 2 * weight).sum() * h)
    return EnergyReport(energy=energy, reference=reference)
