"""Fourier-side verification of the energy estimates.

The pipeline is: sample the indicator of the fattened set on its grid,
mollify at scale delta by multiplying the transform with a truncated
Gaussian kernel spectrum, then test two scalings -- the L2 norm of the
ball convolution against r^((d+alpha)/2) * delta^(d-alpha), and the
singular-weighted energy  integral |F|^2 |xi|^(alpha-d)  against
log(1/delta) * delta^(2(d-alpha)).  Two-dimensional product sets factor
through per-axis spectra (separability); nothing here needs a 2-D FFT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridIndicator

__all__ = [
    "MollifierSpec",
    "SpectrumGrid",
    "ProductSpectrum",
    "mollify_transform",
    "BallConvolutionReport",
    "ball_convolution_l2",
    "EnergyReport",
    "weighted_energy",
]

MAX_SAMPLES = 1 << 26
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


@dataclass(frozen=True)
class ProductSpectrum:
    """Spectra of the two factors of a product set (separability: the 2-D
    transform of 1_{F_delta x B_delta} is the outer product)."""

    axes: tuple[SpectrumGrid, SpectrumGrid]
    delta: float
    alpha: float


def _axis_spectrum(
    mask: np.ndarray, cell: float, delta: float, alpha: float
) -> SpectrumGrid:
    sigma = delta
    extra = int(math.ceil(SUPPORT_RADIUS * sigma / cell)) + 1
    need = mask.size + 2 * extra
    N = 1 << max(need - 1, 1).bit_length()
    if N > MAX_SAMPLES:
        raise ValueError(f"padded transform length {N} exceeds the 2^26 cap")
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
        alpha=alpha,
        norm_sq=norm_sq,
    )


def mollify_transform(G: GridIndicator, delta=None):
    """Transform of the delta-mollified indicator of the rasterized set.

    Requires grid resolution at most delta/4 so the mollifier is resolved.
    1-D grids give a SpectrumGrid; 2-D product grids give the pair of axis
    spectra (their outer product is the full transform).
    """
    delta_f = float(G.delta) if delta is None else float(delta)
    cell = float(G.cell)
    if cell > delta_f / 4 + 1e-15:
        raise ValueError("grid resolution must be at most delta/4")
    if G.d == 1:
        return _axis_spectrum(np.asarray(G.axis_masks[0]), cell, delta_f, G.alpha)
    if G.d == 2:
        ax = [
            _axis_spectrum(np.asarray(m), cell, delta_f, math.nan)
            for m in G.axis_masks
        ]
        return ProductSpectrum(axes=(ax[0], ax[1]), delta=delta_f, alpha=G.alpha)
    raise ValueError("spectra implemented for d = 1 and product d = 2 only")


# ---------------------------------------------------------------------------
# (est): ball-convolution L2 norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallConvolutionReport:
    l2_norm: float
    ratio: float  # l2 / (r^((d+alpha)/2) * delta^(d-alpha))
    r: float


def _ball_kernel_1d(r: float, cell: float) -> np.ndarray:
    """Cellwise exact coverage of [-r, r], scaled so the discrete
    convolution sum approximates the integral (entries are overlap lengths)."""
    K = int(math.ceil(r / cell)) + 1
    edges = (np.arange(-K, K + 1)) * cell
    lo = np.maximum(edges[:-1], -r)
    hi = np.minimum(edges[1:], r)
    return np.maximum(hi - lo, 0.0)


def ball_convolution_l2(G: GridIndicator, r: float) -> BallConvolutionReport:
    """|| 1_{K_delta} * 1_{B(0,r)} ||_2 on the grid, with its scaling ratio.

    The convolution value at x is the measure of K_delta within distance r
    of x; its L2 norm obeys r^((d+alpha)/2) delta^(d-alpha) scaling exactly
    when the set is a true alpha-set.
    """
    delta = float(G.delta)
    cell = float(G.cell)
    if r < delta:
        raise ValueError("need r >= delta")
    if not math.isfinite(G.alpha):
        raise ValueError("grid carries no alpha")
    d = G.d
    if d == 1:
        mask = np.asarray(G.axis_masks[0], dtype=np.float64)
        ker = _ball_kernel_1d(r, cell)
        n = mask.size + ker.size - 1
        size = 1 << (n - 1).bit_length()
        conv = np.fft.irfft(np.fft.rfft(mask, size) * np.fft.rfft(ker, size), size)[:n]
        l2 = math.sqrt(float((conv * conv).sum()) * cell)
    else:
        mask = G.dense_mask("outer").astype(np.float64)
        K = int(math.ceil(r / cell))
        axes = np.meshgrid(*([np.arange(-K, K + 1)] * d), indexing="ij")
        ker = (sum((a * cell) ** 2 for a in axes) <= r * r).astype(np.float64)
        ker *= cell**d
        shape = [1 << (a + b - 1).bit_length() for a, b in zip(mask.shape, ker.shape)]
        conv = np.fft.irfftn(
            np.fft.rfftn(mask, shape) * np.fft.rfftn(ker, shape), shape
        )
        l2 = math.sqrt(float((conv * conv).sum()) * cell**d)
    ref = r ** ((d + G.alpha) / 2) * delta ** (d - G.alpha)
    return BallConvolutionReport(l2_norm=l2, ratio=l2 / ref, r=r)


# ---------------------------------------------------------------------------
# (est3): singular-weighted energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    energy: float
    reference: float  # log(1/delta) * delta^(2(d-alpha))

    @property
    def ratio(self) -> float:
        return self.energy / self.reference


def _zero_cell_weight_1d(freq_spacing: float, alpha: float) -> float:
    """Cell average of |xi|^(alpha-1) over the origin cell [-h/2, h/2]."""
    half = freq_spacing / 2
    return half ** (alpha - 1) / alpha


def weighted_energy(S, d: int, alpha: float, delta: float) -> EnergyReport:
    """integral of |F(1_{K_delta} * rho_delta)|^2 |xi|^(alpha-d) d xi.

    The weight is singular at the origin; the zero-frequency cell gets the
    exact cell average of the weight (1-D) or an equal-area-disc average
    (2-D product), which is the discrete version of splitting off a bounded
    low-frequency term. Rejected for alpha >= d, where the weight stops
    being locally integrable in the intended sense.
    """
    if not 0 < alpha < d:
        raise ValueError("need 0 < alpha < d")
    if delta <= 0 or delta >= 1:
        raise ValueError("need 0 < delta < 1")
    reference = math.log(1.0 / delta) * delta ** (2 * (d - alpha))

    if isinstance(S, SpectrumGrid):
        if d != 1:
            raise ValueError("a single SpectrumGrid is one-dimensional")
        if abs(S.delta - delta) > 1e-12 * max(delta, S.delta):
            raise ValueError("spectrum was computed at a different delta")
        h = S.frequency_spacing
        xi = np.arange(S.values.size) * h
        weight = np.empty_like(xi)
        weight[0] = _zero_cell_weight_1d(h, alpha)
        weight[1:] = xi[1:] ** (alpha - 1)
        w = S._rfft_weights()
        energy = float((w * np.abs(S.values) ** 2 * weight).sum() * h)
        return EnergyReport(energy=energy, reference=reference)

    if isinstance(S, ProductSpectrum):
        if d != 2:
            raise ValueError("a ProductSpectrum is two-dimensional")
        if abs(S.delta - delta) > 1e-12 * max(delta, S.delta):
            raise ValueError("spectrum was computed at a different delta")
        sx, sy = S.axes
        hx, hy = sx.frequency_spacing, sy.frequency_spacing
        if sx.values.size * sy.values.size > 1 << 24:
            raise ValueError("product spectrum too large for the energy sum")
        px = sx._rfft_weights() * np.abs(sx.values) ** 2
        py = sy._rfft_weights() * np.abs(sy.values) ** 2
        xix = np.arange(px.size) * hx
        xiy = np.arange(py.size) * hy
        xi_sq = xix[:, None] ** 2 + xiy[None, :] ** 2
        weight = np.zeros_like(xi_sq)
        nz = xi_sq > 0
        weight[nz] = xi_sq[nz] ** ((alpha - 2) / 2)
        r_eq = math.sqrt(hx * hy / math.pi)  # equal-area disc for the 0 cell
        weight[0, 0] = 2 * r_eq ** (alpha - 2) / alpha
        energy = float((px[:, None] * py[None, :] * weight).sum() * hx * hy)
        return EnergyReport(energy=energy, reference=reference)

    raise TypeError("S must be a SpectrumGrid or ProductSpectrum")
