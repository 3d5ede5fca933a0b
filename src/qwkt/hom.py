"""Two-photon interference at a balanced beam splitter with imperfect
detection: joint spectral amplitude, anti-bunched output amplitude,
coincidence probability, and the per-bin outcome model used for sampling.

Two outcome variants are provided. "two-port" is a single probability
distribution over all detection outcomes (per-bin anti-bunch and bunch
coincidences plus aggregate single-click and no-click events), suitable
for multinomial sampling and likelihood fits. "trinomial" normalizes per
frequency bin instead: at every bin the three outcomes (pair detected,
one photon lost, both lost) sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .biphoton import (
    SPEED_OF_LIGHT,
    BiphotonSource,
    DelayProfile,
    envelope_peak_normalized,
    fringe_factor,
)
from .errors import ConfigurationError, InputDataError
from .transform import FrequencyGrid

_MAX_TRIALS = 2**63 - 1
_VARIANTS = ("two-port", "trinomial")

# Cephes ndtr, erf and erfc rational approximations, highest power first
# (Q, S and U have an implied leading 1). These are the coefficients and
# branch points scipy.special.ndtr evaluates, so _ndtr matches it bit for bit.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class JointAmplitude:
    """Joint spectral amplitude f(omega_s, omega_i) of the photon pair.

    Gaussian in the difference frequency (RMS 2 sigma in intensity, from
    anticorrelated photons of single-photon RMS sigma) times a narrow
    Gaussian in the sum frequency standing in for the near-monochromatic
    pump line. The sum-frequency width, sigma / 100, only makes the
    amplitude square integrable in 2D; it cancels in every normalized
    quantity. Unit
    normalized: the squared modulus integrates to 1 over the plane.
    """

    source: BiphotonSource

    @property
    def sum_bandwidth(self) -> float:
        return self.source.sigma_spectral / 100.0

    @property
    def sum_center(self) -> float:
        return 2.0 * (2.0 * math.pi * SPEED_OF_LIGHT / self.source.center_wavelength)

    def __call__(self, omega_s: np.ndarray, omega_i: np.ndarray) -> np.ndarray:
        omega_s = np.asarray(omega_s, dtype=float)
        omega_i = np.asarray(omega_i, dtype=float)
        sigma = self.source.sigma_spectral
        sum_term = (omega_s + omega_i - self.sum_center) ** 2 / (4.0 * self.sum_bandwidth**2)
        diff_term = (omega_s - omega_i) ** 2 / (16.0 * sigma**2)
        norm = 1.0 / math.sqrt(2.0 * math.pi * sigma * self.sum_bandwidth)
        return norm * np.exp(-sum_term - diff_term)


def antibunch_amplitude(
    amplitude: JointAmplitude, tau: float, omega_s: np.ndarray, omega_i: np.ndarray
) -> np.ndarray:
    """Amplitude of the anti-bunched (coincidence) output at relative delay tau.

    ``(1/2) [f(omega_s, omega_i) - f(omega_i, omega_s)
    exp(-i (omega_s - omega_i) tau)]``: the exchange term acquires the delay
    phase of the idler arm. The squared modulus integrated over the plane is
    the coincidence probability.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    direct = amplitude(omega_s, omega_i)
    exchanged = amplitude(omega_i, omega_s)
    phase = np.exp(-1j * (omega_s - omega_i) * tau)
    return 0.5 * (direct - exchanged * phase)


def coincidence_probability(source: BiphotonSource, tau) -> np.ndarray | float:
    """Closed-form coincidence probability ``(1 - exp(-2 sigma^2 tau^2)) / 2``.

    Zero at tau = 0 (perfect interference dip), 1/2 for delays much longer
    than the coherence time, monotone nondecreasing in |tau|.
    """
    tau_arr = np.asarray(tau, dtype=float)
    out = 0.5 * (1.0 - np.exp(-2.0 * source.sigma_spectral**2 * tau_arr**2))
    return float(out) if np.isscalar(tau) or out.ndim == 0 else out


@dataclass(frozen=True)
class DetectionModel:
    """Detection chain: loss, fringe visibility, trial count, spectral grid.

    ``gamma`` is the per-photon loss probability, ``alpha`` the fringe
    visibility, ``variant`` selects the outcome model.
    """

    grid: FrequencyGrid
    gamma: float = 0.0
    alpha: float = 1.0
    n_trials: int = 1
    variant: str = "two-port"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in [0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in [0, 1]")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be at least 1")
        if self.n_trials > _MAX_TRIALS:
            raise InputDataError("n_trials exceeds the 64-bit count range")
        if self.variant not in _VARIANTS:
            raise ConfigurationError(f"variant must be one of {_VARIANTS}")


@dataclass(frozen=True)
class OutcomeTable:
    """Outcome probabilities on a grid, with optional sampled counts.

    two-port: ``coincidence`` and ``bunching`` are per-bin arrays,
    ``single_click`` and ``no_click`` scalars; everything sums to 1.
    trinomial: ``coincidence`` and ``single_click`` are per-bin arrays,
    ``no_click`` a scalar, ``bunching`` is None; the three sum to 1 at
    every bin. Counts mirror the shapes (per-bin no-click counts for the
    trinomial variant). A table may carry counts without probabilities
    (spectra read back from disk); such tables can be fitted but not
    re-sampled.
    """

    variant: str
    grid: FrequencyGrid
    coincidence: np.ndarray | None = None
    bunching: np.ndarray | None = None
    single_click: float | np.ndarray | None = None
    no_click: float | None = None
    n_trials: int | None = None
    seed: int | None = None
    counts_coincidence: np.ndarray | None = None
    counts_bunching: np.ndarray | None = None
    counts_single: int | np.ndarray | None = None
    counts_none: int | np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigurationError(f"variant must be one of {_VARIANTS}")
        n = self.grid.n_bins
        if self.coincidence is None and self.counts_coincidence is None:
            raise InputDataError("outcome table needs probabilities or counts")
        if self.coincidence is not None:
            self._check_probabilities(n)
        if self.counts_coincidence is not None:
            if np.asarray(self.counts_coincidence).shape != (n,):
                raise InputDataError("coincidence counts must be per-bin")

    def _check_probabilities(self, n: int) -> None:
        if np.asarray(self.coincidence).shape != (n,):
            raise InputDataError("coincidence probabilities must be per-bin")
        if self.variant == "two-port":
            if self.bunching is None or np.asarray(self.bunching).shape != (n,):
                raise InputDataError("two-port tables need per-bin bunching probabilities")
            total = (
                float(np.sum(self.coincidence))
                + float(np.sum(self.bunching))
                + float(self.single_click)
                + float(self.no_click)
            )
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError(f"outcome probabilities sum to {total!r}, not 1")
        else:
            if self.bunching is not None:
                raise ConfigurationError("trinomial tables carry no bunching block")
            if np.asarray(self.single_click).shape != (n,):
                raise InputDataError("trinomial tables need per-bin single-click probabilities")
            pointwise = np.asarray(self.coincidence) + np.asarray(self.single_click) + self.no_click
            if float(np.max(np.abs(pointwise - 1.0))) > 1e-12:
                raise ConfigurationError("per-bin outcome probabilities must sum to 1")

    def total_counts(self) -> int:
        if self.counts_coincidence is None:
            raise InputDataError("outcome table holds no counts")
        total = int(np.sum(self.counts_coincidence))
        for block in (self.counts_bunching, self.counts_single, self.counts_none):
            if block is not None:
                total += int(np.sum(block))
        return total


def _horner(x: np.ndarray, coefs: tuple, monic: bool = False) -> np.ndarray:
    """Polynomial in x, highest power first, as Cephes ``polevl`` (or, when
    ``monic``, ``p1evl`` with its implied leading 1) evaluates it."""
    value = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _erf_inner(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc_outer(x: np.ndarray) -> np.ndarray:
    """Cephes erfc for x >= sqrt(1/2).

    exp(-x^2) is taken per element with ``math.exp`` (the C library's exp,
    which Cephes calls); ``np.exp`` rounds differently in about 1% of
    inputs. Where -x^2 is below -MAXLOG the result underflows to 0; x^2 is
    formed only below 27, past which it exceeds MAXLOG anyway, so huge x
    raises no overflow.
    """
    out = np.zeros_like(x)
    near = x < 1.0
    out[near] = 1.0 - _erf_inner(x[near])
    idx = np.flatnonzero(~near & (x < 27.0))
    v = x[idx]
    square = v * v
    keep = square <= _MAXLOG
    idx, v, square = idx[keep], v[keep], square[keep]
    decay = np.array([math.exp(-s) for s in square.tolist()])
    below8 = v < 8.0
    p = np.where(below8, _horner(v, _ERFC_P), _horner(v, _ERFC_R))
    q = np.where(below8, _horner(v, _ERFC_Q, monic=True), _horner(v, _ERFC_S, monic=True))
    out[idx] = decay * p / q
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a non-nan array, bit for bit as
    ``scipy.special.ndtr`` (Cephes ``ndtr``) computes it."""
    x = a * _SQRT_HALF
    z = np.abs(x)
    cdf = np.empty_like(x)
    inner = z < _SQRT_HALF
    cdf[inner] = 0.5 + 0.5 * _erf_inner(x[inner])
    tail = 0.5 * _erfc_outer(z[~inner])
    cdf[~inner] = np.where(x[~inner] > 0.0, 1.0 - tail, tail)
    return cdf


@lru_cache(maxsize=8)
def binned_envelope(grid: FrequencyGrid, sigma: float) -> np.ndarray:
    """Envelope mass per bin, renormalized to unit total over the window.

    Exact Gaussian integrals over bin edges (the envelope is a normal
    density with RMS 2 sigma); renormalization folds the out-of-window
    tail (~1e-9 for the default window) back in so the outcome model is
    an exact probability distribution. The result is cached per (grid,
    sigma) and read-only, since every caller shares it.
    """
    z = grid.bin_edges / (2.0 * sigma)
    cdf = _ndtr(z)
    mass = np.diff(cdf)
    env = mass / np.sum(mass)
    env.flags.writeable = False
    return env


def _variant_envelope(model: DetectionModel, sigma: float) -> np.ndarray:
    """Per-bin envelope of the variant: binned mass (two-port) or the
    peak-normalized shape at bin centers (trinomial)."""
    if model.variant == "two-port":
        return binned_envelope(model.grid, sigma)
    return envelope_peak_normalized(model.grid.values, sigma)


def _category_probabilities(
    model: DetectionModel,
    env: np.ndarray,
    fringe: np.ndarray,
    bunching: bool = True,
) -> tuple:
    """Outcome probabilities for rows of the weighted fringe.

    Returns ``(coincidence, bunching, single_click, no_click)`` in the
    ``OutcomeTable`` layout. The per-bin blocks have the shape of
    ``fringe`` (one row per candidate); ``bunching`` is None for the
    trinomial variant, and for the two-port variant when ``bunching`` is
    false (a likelihood over a table without bunch counts never reads it).
    The categories that do not depend on the fringe are scalars. The fringe
    brackets are clipped at zero.
    """
    gamma = model.gamma
    survive = (1.0 - gamma) ** 2
    mod = model.alpha * fringe
    if model.variant == "two-port":
        scaled = survive * env
        anti = scaled * np.maximum(1.0 - mod, 0.0) / 2.0
        bunch = scaled * np.maximum(1.0 + mod, 0.0) / 2.0 if bunching else None
        return anti, bunch, 2.0 * gamma * (1.0 - gamma), gamma**2
    pair = (survive / 2.0) * env * np.maximum(1.0 + mod, 0.0)
    return pair, None, (1.0 - gamma**2) - pair, gamma**2


def _category_slopes(model: DetectionModel, env: np.ndarray, probs: tuple) -> tuple:
    """Derivatives by the fringe x of the ``_category_probabilities`` blocks
    ``probs`` of one fringe row.

    The blocks are affine in x and no bracket clips for |x| <= 1, so a
    per-bin block's slope is its value at x = 1 minus its value at x = 0;
    scalar blocks have slope 0. A block whose bracket has clipped holds
    exactly 0 and stops moving; so does the trinomial single-click block,
    the pair block's complement.
    """
    at_one, at_zero = (
        _category_probabilities(model, env, np.full(env.shape, x)) for x in (1.0, 0.0)
    )
    stopped = [isinstance(p, np.ndarray) and p == 0.0 for p in probs[:2]]
    stopped += [stopped[0], False]
    return tuple(
        np.where(stop, 0.0, one - zero) if isinstance(p, np.ndarray) else 0.0
        for p, one, zero, stop in zip(probs, at_one, at_zero, stopped)
    )


def outcome_probabilities(
    model: DetectionModel,
    source: BiphotonSource,
    profile: DelayProfile,
    phi: float = 0.0,
) -> OutcomeTable:
    """Outcome probability table for the configured detection model.

    two-port: anti-bunch bins carry ``(1-gamma)^2 env_bin (1 - alpha x)/2``
    and bunch bins ``(1-gamma)^2 env_bin (1 + alpha x)/2`` where ``x`` is
    the weighted fringe ``sum_i a_i cos(omega tau_i + phi)``; one photon
    lost has probability ``2 gamma (1-gamma)``, both lost ``gamma^2``.

    trinomial: per bin, pair detection ``(1-gamma)^2/2 env_norm
    (1 + alpha x)`` with the peak-normalized envelope, single click
    ``(1-gamma^2) - pair``, no click ``gamma^2``; each bin normalizes to 1.
    """
    env = _variant_envelope(model, source.sigma_spectral)
    x = fringe_factor(profile, model.grid.values, phi)
    coincidence, bunching, single, none = _category_probabilities(model, env, x)
    return OutcomeTable(
        variant=model.variant,
        grid=model.grid,
        coincidence=coincidence,
        bunching=bunching,
        single_click=single,
        no_click=none,
    )


def _multinomial(rng: np.random.Generator, n_trials: int, pvals: np.ndarray) -> np.ndarray:
    """Multinomial draw robust to rounding in the probability vector.

    The vector is renormalized and the largest category moved last (the
    generator treats the last category as the remainder and rejects partial
    sums that exceed 1 by even one rounding step).
    """
    pvals = np.asarray(pvals, dtype=float)
    pvals = pvals / pvals.sum()
    largest = int(np.argmax(pvals))
    order = np.arange(pvals.size)
    order[largest], order[-1] = order[-1], order[largest]
    draw = rng.multinomial(n_trials, pvals[order])
    out = np.empty_like(draw)
    out[order] = draw
    return out


def sample_counts(table: OutcomeTable, n_trials: int, seed: int) -> OutcomeTable:
    """Draw counts for every outcome; deterministic for a given seed.

    two-port tables are sampled as one multinomial over all categories
    (numpy's generator realizes this by sequential binomial splitting);
    trinomial tables draw an independent ``n_trials``-trial trinomial per
    frequency bin. The expectation of every count equals
    ``n_trials * probability``.
    """
    if table.coincidence is None:
        raise InputDataError("cannot sample a counts-only outcome table")
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ConfigurationError("n_trials must be at least 1")
    if n_trials > _MAX_TRIALS:
        raise ConfigurationError("n_trials exceeds the 64-bit count range")
    rng = np.random.default_rng(int(seed) & (2**64 - 1))
    n = table.grid.n_bins
    if table.variant == "two-port":
        pvals = np.concatenate(
            [table.coincidence, table.bunching, [table.single_click], [table.no_click]]
        )
        draw = _multinomial(rng, n_trials, pvals)
        return replace(
            table,
            n_trials=n_trials,
            seed=int(seed),
            counts_coincidence=draw[:n],
            counts_bunching=draw[n : 2 * n],
            counts_single=int(draw[2 * n]),
            counts_none=int(draw[2 * n + 1]),
        )
    # Per-bin trinomials; single-click is the remainder category in each
    # row, it always carries enough mass for the partial-sum check.
    pvals = np.column_stack(
        [table.coincidence, np.full(n, table.no_click), table.single_click]
    )
    pvals = pvals / pvals.sum(axis=1, keepdims=True)
    draw = rng.multinomial(n_trials, pvals)
    return replace(
        table,
        n_trials=n_trials,
        seed=int(seed),
        counts_coincidence=draw[:, 0],
        counts_bunching=None,
        counts_single=draw[:, 2],
        counts_none=draw[:, 1],
    )
