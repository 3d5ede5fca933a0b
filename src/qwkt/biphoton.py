"""Biphoton source model: the two-photon cross-correlation and the joint
spectral intensity of a frequency-entangled photon pair.

The photons are degenerate: signal and idler share one center wavelength,
and the pump sits at half of it. The difference-frequency axis ``omega``
is therefore centered on zero.

All quantities are SI: wavelengths in meters, times in seconds, angular
frequencies in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

# Temporal width parameter is sqrt(2) times the spectral RMS width: this is
# the unique calibration under which the correlation main peak
# exp(-delta^2 T^2) and the spectral envelope exp(-omega^2 / 8 sigma^2)
# are a transform pair.
DELTA_PER_SIGMA = math.sqrt(2.0)


def bandwidth_nm_to_rads(delta_lambda: float, center_lambda: float) -> float:
    """Convert a wavelength bandwidth to an angular-frequency bandwidth.

    Parameters
    ----------
    delta_lambda : float
        Wavelength bandwidth in meters (e.g. 10e-9 for 10 nm).
    center_lambda : float
        Center wavelength in meters.

    Returns
    -------
    float
        RMS angular-frequency bandwidth in rad/s,
        ``2 pi c delta_lambda / center_lambda**2``; a square that under- or
        overflows raises ``ConfigurationError``.
    """
    if not (0.0 < delta_lambda < math.inf and 0.0 < center_lambda < math.inf):
        raise ConfigurationError("bandwidth and center wavelength must be positive and finite")
    try:
        square = center_lambda**2
    except OverflowError:
        square = math.inf
    if not 0.0 < square < math.inf:
        raise ConfigurationError("center wavelength squared must be nonzero and finite")
    return 2.0 * math.pi * SPEED_OF_LIGHT * delta_lambda / square


@dataclass(frozen=True)
class BiphotonSource:
    """Degenerate down-conversion source.

    ``sigma_spectral`` is the RMS spectral width of a single down-converted
    photon (rad/s) and ``center_wavelength`` the center of both photons
    (m), each positive with a finite square; ``delta_temporal`` is derived
    from sigma at construction.
    """

    sigma_spectral: float
    center_wavelength: float = 810e-9
    delta_temporal: float = field(init=False)

    def __post_init__(self):
        for name in ("sigma_spectral", "center_wavelength"):
            value = getattr(self, name)
            if not (0.0 < value and value * value < math.inf):
                raise ConfigurationError(f"{name} must be positive with a finite square")
        object.__setattr__(self, "delta_temporal", DELTA_PER_SIGMA * self.sigma_spectral)

    @classmethod
    def from_bandwidth(cls, delta_lambda: float, center_lambda: float = 810e-9) -> "BiphotonSource":
        """Build a source from a wavelength bandwidth (meters)."""
        return cls(bandwidth_nm_to_rads(delta_lambda, center_lambda), center_lambda)


@dataclass(frozen=True)
class DelayProfile:
    """Ordered interfaces of a layered sample: (delay_s, weight) pairs.

    Delays are nonnegative and strictly increasing; weights are positive and
    sum to one.
    """

    layers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.layers:
            raise ConfigurationError("profile needs at least one layer")
        taus = [t for t, _ in self.layers]
        weights = [a for _, a in self.layers]
        if any(not 0.0 <= t < math.inf for t in taus):
            raise ConfigurationError("delays must be nonnegative and finite")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigurationError("delays must be strictly increasing")
        if any(not 0.0 < a < math.inf for a in weights):
            raise ConfigurationError("weights must be positive and finite")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ConfigurationError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "layers", tuple((float(t), float(a)) for t, a in self.layers))

    @classmethod
    def single(cls, tau: float) -> "DelayProfile":
        return cls(layers=((tau, 1.0),))

    @classmethod
    def normalized(cls, pairs) -> "DelayProfile":
        """Build a profile from (delay, raw_weight) pairs, normalizing weights."""
        pairs = sorted((float(t), float(a)) for t, a in pairs)
        total = sum(a for _, a in pairs)
        if total <= 0.0:
            raise ConfigurationError("weights must have positive total")
        return cls(layers=tuple((t, a / total) for t, a in pairs))

    @property
    def delays(self) -> np.ndarray:
        return np.array([t for t, _ in self.layers])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a for _, a in self.layers])


def cross_correlation(source: BiphotonSource, profile: DelayProfile, t_values: np.ndarray) -> np.ndarray:
    """Two-photon cross-correlation function, main peak normalized to 1.

    Closed form: a unit Gaussian peak at T = 0 plus, per layer, a pair of
    half-weight Gaussian side peaks at T = +/- tau_i:

        R(T) = exp(-delta^2 T^2)
             + sum_i (a_i / 2) [exp(-delta^2 (T + tau_i)^2)
                                + exp(-delta^2 (T - tau_i)^2)]

    R is even in T (exactly, including floating point).
    """
    t_values = np.asarray(t_values, dtype=float)
    d2 = source.delta_temporal**2
    r = np.exp(-d2 * t_values**2)
    for tau, weight in profile.layers:
        r = r + 0.5 * weight * (
            np.exp(-d2 * (t_values + tau) ** 2) + np.exp(-d2 * (t_values - tau) ** 2)
        )
    return r


def envelope_peak_normalized(omega: np.ndarray, sigma: float) -> np.ndarray:
    """Difference-frequency envelope ``exp(-omega^2 / 8 sigma^2)``, peak
    value 1 (dimensionless)."""
    omega = np.asarray(omega, dtype=float)
    return np.exp(-(omega**2) / (8.0 * sigma**2))


def envelope_density(omega: np.ndarray, sigma: float) -> np.ndarray:
    """Same envelope as a unit-mass Gaussian density: normal with RMS width
    ``2 sigma``, ``envelope_peak_normalized / sqrt(2 pi (2 sigma)^2)``.
    """
    return envelope_peak_normalized(omega, sigma) / math.sqrt(2.0 * math.pi * (2.0 * sigma) ** 2)


def _layer_rows(taus, phi: float, omega: np.ndarray):
    """The ``cos``, then the ``sin`` rows of ``omega tau_i + phi`` for k delays,
    each (k, n), yielded lazily: ``next`` takes the cosines alone."""
    phase = omega * taus[:, None] + phi
    yield np.cos(phase)
    yield np.sin(phase)


def _fringe(weights: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Weighted fringe ``sum_i a_i cos_i``, shape (n,), of ``_layer_rows``' (k, n)
    cosines for weights (k,), summed in layer order from zeros."""
    out = np.zeros(cos.shape[1])
    for a, row in zip(weights, cos):
        out += a * row
    return out


def fringe_factor(profile: DelayProfile, omega: np.ndarray, phi: float = 0.0) -> np.ndarray:
    """Weighted interference term ``sum_i a_i cos(omega tau_i + phi)``; the
    constant phase offset ``phi = pi`` flips every fringe."""
    omega = np.asarray(omega, dtype=float)
    cos = next(_layer_rows(profile.delays, phi, omega.ravel()))
    return _fringe(profile.weights, cos).reshape(omega.shape)


def joint_spectral_intensity(
    source: BiphotonSource,
    profile: DelayProfile,
    omega: np.ndarray,
    phi: float = 0.0,
) -> np.ndarray:
    """Joint spectral intensity over the difference frequency.

    ``F(omega) = envelope_density(omega) *
    [1 - sum_i a_i cos(omega tau_i + phi)] / 2``; ``phi = pi`` turns the
    bracket into ``1 + sum_i a_i cos(omega tau_i)``.

    Nonnegative everywhere because the layer weights sum to one; tiny
    negative rounding residues at fringe zeros are clipped to 0.
    """
    omega = np.asarray(omega, dtype=float)
    bracket = 1.0 - fringe_factor(profile, omega, phi)
    return envelope_density(omega, source.sigma_spectral) * np.maximum(bracket, 0.0) / 2.0
