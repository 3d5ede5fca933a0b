"""Delay estimation and precision analysis.

Pipeline: invert a measured spectrum to the delay domain and read off
side-peak positions (fast, initializes everything else); refine with a
multinomial maximum-likelihood fit over layer delays and weights; compare
against the per-trial Fisher information of the outcome model and the
quantum bound set by the source bandwidth alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonSource, _fringe, _layer_rows
from .errors import (
    ConfigurationError,
    EstimationError,
    InputDataError,
    MalformedSpectrumError,
    QuadratureError,
)
from .hom import DetectionModel, OutcomeTable, _category_probabilities, _variant_envelope
from .transform import SpectralPattern, TemporalGrid, default_frequency_grid, inverse_qwkt

_MAX_LAYERS = 4
_MAX_AXIS_POINTS = 256
_SWEEP_AXES = ("sigma", "tau", "gamma", "alpha")
# Newton ascent stops once g^T step, the squared distance to the optimum in
# standard errors, is at most _NEWTON_TOL, or after _MAX_ITERATIONS steps.
_NEWTON_TOL = 1e-6
_MAX_ITERATIONS = 500
# A delay profile values its fringe rows in chunks of at most this many (row,
# bin) cells, so its temporaries (64 KiB) stay under glibc's mmap threshold.
_CHUNK_CELLS = 2**13
# The Fisher series' stop test (relative part) and term cap; its blocks of at
# most 4096 terms keep complex temporaries (64 KiB) under the mmap threshold.
_SERIES_RTOL = 1e-12
_MAX_TERMS = 2**20
_BLOCK_TERMS = 4096


@dataclass(frozen=True)
class PeakReport:
    """Delays read from side peaks of the inverted spectrum.

    ``delays`` holds (tau_hat, weight_hat, relative_height) triples sorted
    by increasing delay; weights are renormalized to sum to one.
    ``ambiguity_flag`` is set when two recovered delays are closer than two
    grid steps or a side peak overlaps the main peak.
    """

    delays: tuple[tuple[float, float, float], ...]
    ambiguity_flag: bool
    grid_resolution: float

    @property
    def taus(self) -> np.ndarray:
        return np.array([d[0] for d in self.delays])

    @property
    def weights(self) -> np.ndarray:
        return np.array([d[1] for d in self.delays])


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood layer estimates with observed-information errors."""

    layers: tuple[tuple[float, float], ...]
    stderr_tau: tuple[float, ...]
    stderr_weight: tuple[float, ...]
    log_likelihood: float
    converged: bool
    iterations: int
    evaluations: int  # delays profiled to place missing layers, and Newton's points
    hessian_condition: float  # of the balanced observed information


@dataclass(frozen=True)
class FisherReport:
    """Per-trial delay information of an outcome model and the implied bound."""

    g_omega: float
    crb: float
    variant: str
    sigma: float
    tau: float
    gamma: float
    alpha: float
    n_trials: int
    error_estimate: float  # bound on the terms g_omega leaves out, absolute


@dataclass(frozen=True)
class QfiReport:
    """Quantum information limit of the source itself."""

    q: float  # the idler-frequency variance sigma^2; the information per pair is 4q
    qcrb: float
    n_trials: int


def _parabolic_offset(y_minus: float, y_center: float, y_plus: float) -> tuple[float, float]:
    """Sub-grid vertex offset (in grid steps) and refined height."""
    denom = y_minus - 2.0 * y_center + y_plus
    if denom == 0.0:
        return 0.0, y_center
    delta = 0.5 * (y_minus - y_plus) / denom
    delta = min(max(delta, -1.0), 1.0)  # np.clip's value, nan included, without its ~3 us
    height = y_center - 0.25 * (y_minus - y_plus) * delta
    return delta, height


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of the interior local maxima of ``x`` at least ``height``
    high and at least ``distance`` samples apart, as
    ``scipy.signal.find_peaks(x, height=height, distance=distance)[0]``.

    A plateau counts once, at its middle sample (rounded down). Peaks are
    visited from the highest, in reversed ``np.argsort`` order, and each
    kept peak removes the lower ones closer than ``distance``.
    """
    # first index of each run of equal samples
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    level = x[starts]
    runs = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[runs] + starts[runs + 1] - 1) // 2
    peaks = peaks[x[peaks] >= height]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    return peaks[keep]


def extract_delays(
    spectrum: SpectralPattern,
    source: BiphotonSource,
    threshold: float = 0.02,
    min_separation: int = 2,
) -> PeakReport:
    """Recover layer delays from the side peaks of the inverted spectrum.

    The spectrum is transformed to the delay domain; local maxima of |R(T)|
    at positive delay, above ``threshold`` times the main-peak height and at
    least ``min_separation`` grid steps apart, are refined by parabolic
    interpolation. Side-peak weights are twice the height ratio to the main
    peak, renormalized to unit sum.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must lie in (0, 1)")
    if min_separation < 1:
        raise ConfigurationError("min_separation must be at least 1")
    correlation = inverse_qwkt(spectrum)
    t = correlation.grid.values
    dt = correlation.grid.delta_t
    y = np.abs(correlation.values)
    main_idx = int(np.argmax(y))
    if abs(t[main_idx]) > 2.0 * dt:
        raise MalformedSpectrumError(
            f"main correlation peak sits at T={t[main_idx]:.3e}s, "
            "not at zero delay; spectrum is malformed"
        )
    # |T| <= 2 dt keeps the main peak's neighbours inside the grid
    _, main_height = _parabolic_offset(y[main_idx - 1], y[main_idx], y[main_idx + 1])
    if main_height <= 0.0:
        raise MalformedSpectrumError("spectrum inverts to an empty correlation")

    half = y.size // 2  # first index with positive T
    segment = y[half:]
    found = []
    for p in _find_peaks(segment, threshold * main_height, min_separation):
        # _find_peaks skips the segment's ends; t[idx] >= 1.5 dt and |delta| <= 1
        # keep the refined delay at or above 0.5 dt
        idx = half + int(p)
        delta, height = _parabolic_offset(y[idx - 1], y[idx], y[idx + 1])
        found.append((t[idx] + delta * dt, height))
    found.sort()

    raw_weights = [2.0 * h / main_height for _, h in found]
    total = sum(raw_weights)
    delays = tuple(
        (tau, w / total, h / main_height)
        for (tau, h), w in zip(found, raw_weights)
    )

    overlap_limit = 3.0 / source.delta_temporal
    ambiguous = any(tau < overlap_limit for tau, _, _ in delays)
    taus = [tau for tau, _, _ in delays]
    ambiguous = ambiguous or any(
        b - a < 2.0 * dt for a, b in zip(taus, taus[1:])
    )
    return PeakReport(delays=delays, ambiguity_flag=ambiguous, grid_resolution=dt)


def _log(p):
    """Logarithm floored at 1e-300, so empty categories stay finite."""
    return np.log(np.maximum(p, 1e-300))


def _row_dot(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``rows @ counts``, each row summed as a 1-D dot product sums it, so a
    batch gives the same bits as the rows evaluated one at a time."""
    return np.matmul(rows[:, None, :], counts[:, None])[:, 0, 0]


class _Likelihood:
    """Multinomial log-likelihood of an outcome table under candidate layers.

    ``profile`` values one added layer at many delays (a fit start), ``score``
    one candidate (Newton); both read the forward model shared with
    ``outcome_probabilities``. The table is read once into ``terms``, one
    (category, counts, x-slope row) triple per observed block, the category
    indexing ``_category_probabilities``; its counts must be integers, a block
    that is the same in every bin keeps their total and no row (None). A
    two-port table that lacks categories (a spectrum file carries anti-bunch
    counts only) is conditioned on the observed ones: their probabilities are
    renormalized by their total mass, of x-slope ``mass_slope``. A trinomial
    table with pair counts only is fitted by the per-bin binomial marginal
    with known trials, which no bin's pair count may exceed; its second term,
    category None, is the 1 - pair rest, of the negated pair slope.
    """

    def __init__(
        self, counts: OutcomeTable, model: DetectionModel, source: BiphotonSource, phi: float
    ):
        if counts.counts_coincidence is None:
            raise InputDataError("outcome table holds no counts to fit")
        blocks = [None if b is None else np.asarray(b, dtype=float) for b in (
            counts.counts_coincidence, counts.counts_bunching, counts.counts_single,
            counts.counts_none,
        )]
        if not all(b is None or 0.0 <= b.min() and b.max() < math.inf for b in blocks):
            raise InputDataError("outcome table holds a negative or non-finite count")
        if any(b is not None and np.any(b != np.round(b)) for b in blocks):
            raise InputDataError("counts spectra must hold integer values")
        if counts.total_counts() <= 0:
            raise InputDataError("outcome table has zero total counts; no likelihood mass")
        self.model = model
        self.phi = phi
        self.omega = model.grid.values
        self.env = _variant_envelope(model, source.sigma_spectral)
        # a per-bin block is affine in x: its x-slope is its value at x = 1 less
        # its value at x = 0; a block the variant does not model (None) is not read
        at_one, at_zero = (self._probabilities(np.full(self.env.shape, x)) for x in (1.0, 0.0))
        self.terms = [
            (c, n, at_one[c] - at_zero[c]) if isinstance(at_one[c], np.ndarray)
            else (c, float(np.sum(n)), None)
            for c, n in enumerate(blocks) if n is not None and at_one[c] is not None
        ]
        two_port = model.variant == "two-port"
        self.observed = sum(float(np.sum(n)) for _, n, _ in self.terms)
        complete = len(self.terms) == (4 if two_port else 3)
        self.conditioned = two_port and not complete
        if not (two_port or complete):
            n_trials = model.n_trials if counts.n_trials is None else counts.n_trials
            pairs, slope = self.terms[0][1:]
            if np.max(pairs) > n_trials:
                # the binomial's n_trials - n would go negative
                raise InputDataError(f"a bin holds more pairs than its {n_trials} trials")
            self.terms = [(0, pairs, slope), (None, n_trials - pairs, -slope)]
        if self.conditioned:
            self.mass_slope = sum(s for _, _, s in self.terms if s is not None)

    def profile(
        self, taus: np.ndarray, weights: np.ndarray, weight: float, delays: np.ndarray
    ) -> np.ndarray:
        """``score``'s value (P,) of the layers ``taus``, ``weights`` scaled by 1 -
        ``weight`` beside one more of ``weight`` at each of ``delays`` (P,)."""
        rest = _fringe((1.0 - weight) * weights, next(_layer_rows(taus, self.phi, self.omega)))
        out, step = np.empty(delays.size), max(1, _CHUNK_CELLS // self.omega.size)
        for i in range(0, delays.size, step):
            cos = next(_layer_rows(delays[i : i + step], self.phi, self.omega))
            out[i : i + step] = self._value(self._probabilities(rest + weight * cos))
        return out

    def score(self, taus: np.ndarray, weights: np.ndarray, floor: float | None = None) -> tuple:
        """Log-likelihood at one candidate and, unless it is at or below ``floor``,
        its gradient and Hessian (else None, None) in natural coordinates: k
        delays, first k-1 weights.

        Each bin depends on them only through its fringe x. With J = dx/dtheta
        and g, D the first and second derivatives by each bin's x (terms with
        a slope row only: the others do not move), the gradient is J^T g and
        the Hessian J^T D J + sum_b g_b d2x_b/dtheta2, plus (N/M^2) (J^T m)
        (J^T m)^T when conditioned on the observed mass M of x-slope m. Bins
        at the 1e-300 log floor contribute nothing to g and D.
        """
        k, rows = taus.size, _layer_rows(taus, self.phi, self.omega)
        cos = next(rows)
        probs = self._probabilities(_fringe(weights, cos)[None])
        value = float(self._value(probs)[0])
        if floor is not None and not value > floor:
            return value, None, None
        sin = next(rows)
        g, curvature = np.zeros(self.omega.size), np.zeros(self.omega.size)
        for c, n, s in self.terms:
            if s is not None:
                p = 1.0 - probs[0][0] if c is None else probs[c][0]
                ratio = s * np.divide(1.0, p, out=np.zeros_like(g), where=p > 1e-300)
                g += n * ratio
                curvature -= n * ratio * ratio
        jac = np.concatenate([-weights[:, None] * self.omega * sin, cos[:-1] - cos[-1]]).T
        hessian = jac.T @ (curvature[:, None] * jac)
        if self.conditioned:
            mass = sum(np.sum(probs[c]) for c, _, _ in self.terms)
            g -= (self.observed / mass) * self.mass_slope
            jm = jac.T @ self.mass_slope
            hessian += (self.observed / mass**2) * np.outer(jm, jm)
        # d2x/dtau_i2 = -a_i omega^2 cos_i; d2x/dtau_i da_j = -omega sin_i
        # (i = j), and +omega sin_k for the last delay, whose weight is 1 - sum;
        # a square block's .flat with a step of its size + 1 walks its diagonal
        g_omega = g * self.omega
        hessian[:k, :k].flat[:: k + 1] -= weights * (cos @ (g_omega * self.omega))
        g_sin = sin @ g_omega
        hessian[: k - 1, k:].flat[::k] -= g_sin[:-1]
        hessian[k:, : k - 1].flat[::k] -= g_sin[:-1]
        hessian[k - 1, k:] += g_sin[-1]
        hessian[k:, k - 1] += g_sin[-1]
        return value, jac.T @ g, hessian

    def _probabilities(self, x: np.ndarray) -> tuple:
        return _category_probabilities(self.model, self.env, x)

    def _value(self, probs: tuple) -> np.ndarray:
        out = 0.0
        for c, n, _ in self.terms:
            p = 1.0 - probs[0] if c is None else probs[c]
            if isinstance(p, np.ndarray):
                out = out + _row_dot(_log(p), n)
            else:
                out = out + n * math.log(max(p, 1e-300))
        if self.conditioned:
            observed = [probs[c] for c, _, _ in self.terms]
            mass = sum(p.sum(axis=1) if isinstance(p, np.ndarray) else p for p in observed)
            out = out - self.observed * _log(mass)
        return out


def _start(
    like: _Likelihood, counts: OutcomeTable, source: BiphotonSource, k_layers: int, init
) -> tuple[np.ndarray, np.ndarray, int]:
    """Where a fit starts: its delays, its weights and the number of delays profiled.

    Newton starts from the k_layers strongest layers of the peak report
    (``init``, or ``extract_delays`` on the coincidence counts when ``init`` is
    None) or of a caller's (tau, weight) list (finite nonnegative delays,
    positive finite weights) as given, sorted by delay and normalized. Each
    layer still missing is placed in turn, the placed ones held: the m-th
    takes 1/m of the weight, at the first argmax of ``like.profile`` over
    (0, 2 t_max), which holds every distinct fringe at a fixed phi (the fringe
    at tau + 2 t_max is the one at tau negated). The delays profiled are the
    temporal grid's own, continued to 2 t_max, and below 3 / delta_temporal,
    where no side peak shows, the centres of quarter steps.
    """
    if init is None:
        observed = np.asarray(counts.counts_coincidence, dtype=float)
        init = extract_delays(SpectralPattern(counts.grid, observed, kind="counts"), source)
    if isinstance(init, PeakReport):
        layers = [(tau, weight) for tau, weight, _ in init.delays]
    else:
        layers = [(float(t), float(a)) for t, a in init]
        if not all(0.0 <= t < math.inf and 0.0 < a < math.inf for t, a in layers):
            raise ConfigurationError(
                "init delays must be finite and nonnegative, weights positive and finite")
    layers = sorted(sorted(layers, key=lambda la: -la[1])[:k_layers])
    taus = np.array([t for t, _ in layers])
    weights = np.array([a for _, a in layers]) / sum(a for _, a in layers)
    if taus.size == k_layers:
        return taus, weights, 0
    step = TemporalGrid.conjugate_of(counts.grid).delta_t / 8.0
    eighths, limit = np.arange(1, 8 * counts.grid.n_bins), 3.0 / (source.delta_temporal * step)
    delays = step * eighths[(eighths % 8 == 4) | ((eighths % 2 == 1) & (eighths < limit))]
    for m in range(taus.size + 1, k_layers + 1):
        taus = np.append(taus, delays[np.argmax(like.profile(taus, weights, 1.0 / m, delays))])
        weights = np.append((1.0 - 1.0 / m) * weights, 1.0 / m)
    return taus, weights, (k_layers - len(layers)) * delays.size


def mle_fit(
    counts: OutcomeTable,
    model: DetectionModel,
    source: BiphotonSource,
    k_layers: int,
    init=None,
    phi: float = 0.0,
) -> MleResult:
    """Maximum-likelihood fit of layer delays and weights to sampled counts.

    The fit starts where ``_start`` says (``init``: a peak report, a (tau,
    weight) list or None). A damped Newton ascent (``_newton_ascent``, at most
    ``_MAX_ITERATIONS`` steps) refines the k delays and first k-1 weights,
    which always sum to one; standard errors come from the observed
    information at the optimum (``_observed_information_errors``).

    The fit uses exactly ``k_layers`` layers and prunes none; choosing k is
    the caller's job (ROADMAP.md item 4). On one-layer data a two-layer fit
    may split the layer at one delay, where the observed information is not
    positive definite and every standard error is nan; or keep a near-empty
    layer with finite errors and ``converged`` true (seen: weight 2e-4 at 471
    fs, stderr 37.7 fs, beside a 0.5 ps layer); or, on anti-bunch counts
    alone, stop with weight below 1e-8 on a layer near zero delay, nan errors,
    ``converged`` false and up to 3e-5 below the one-layer log-likelihood.
    """
    if not 1 <= k_layers <= _MAX_LAYERS:
        raise ConfigurationError(f"k_layers must lie in [1, {_MAX_LAYERS}]")
    if counts.variant != model.variant:
        raise ConfigurationError("counts table and model use different variants")
    if counts.grid != model.grid:
        raise ConfigurationError("counts table and model use different frequency grids")
    like = _Likelihood(counts, model, source, phi)
    taus, weights, profiled = _start(like, counts, source, k_layers, init)
    scale = np.concatenate([np.full(k_layers, 1.0 / source.delta_temporal), np.ones(k_layers - 1)])
    taus_hat, weights_hat, value, iterations, converged, evaluations, eig = (
        _newton_ascent(like, taus, weights, scale, _MAX_ITERATIONS)
    )
    stderr_tau, stderr_weight, condition = _observed_information_errors(eig, scale)
    order = np.argsort(taus_hat)
    layers = tuple((float(taus_hat[i]), float(weights_hat[i])) for i in order)
    return MleResult(
        layers=layers,
        stderr_tau=tuple(float(stderr_tau[i]) for i in order),
        stderr_weight=tuple(float(stderr_weight[i]) for i in order),
        log_likelihood=value,
        converged=converged,
        iterations=iterations,
        evaluations=profiled + evaluations,
        hessian_condition=condition,
    )


def _newton_ascent(
    like: _Likelihood, taus: np.ndarray, weights: np.ndarray, scale: np.ndarray, max_iterations: int
) -> tuple:
    """Damped Newton ascent of the log-likelihood from one candidate, in
    ``score``'s coordinates balanced by ``scale``.

    The balanced Newton system is solved on the eigenvectors of the observed
    information, each eigenvalue taken by its absolute value and zero ones
    left out: the Newton step where the information is positive definite,
    and still an ascent step elsewhere (a surplus layer's ridge), where
    Newton would head for the saddle. The step is halved until the
    log-likelihood rises with every delay and weight positive, or until the
    rise it can still bring is below ``_NEWTON_TOL``; ``score`` values each
    trial and forms derivatives only if it rises. Converged means g^T step,
    twice the predicted rise, is at most ``_NEWTON_TOL``; that step is still
    taken if it rises. Each pass decomposes the balanced information first,
    then tests for a stop. Returns the delays, weights and log-likelihood
    reached, the steps taken, convergence, the points valued, and the reached
    point's balanced information ``eigh``, or None if it is not finite.
    """
    k = taus.size
    value, gradient, hessian = like.score(taus, weights)
    iterations, converged, evaluations = 0, False, 1
    while True:
        info = -hessian * np.outer(scale, scale)
        if not np.all(np.isfinite(info)):
            eig = None
            break
        lam, vec = eig = np.linalg.eigh(info)
        if iterations >= max_iterations or converged:
            break
        g = gradient * scale
        step = vec @ np.divide(vec.T @ g, np.abs(lam), out=np.zeros(g.size), where=lam != 0)
        gain = float(g @ step)
        if not math.isfinite(gain):
            break
        converged = gain <= _NEWTON_TOL
        point, t = np.concatenate([taus, weights[:-1]]), 1.0
        while t > 0.0:
            trial = point + t * scale * step
            trial_weights = np.append(trial[k:], 1.0 - np.sum(trial[k:]))
            if trial_weights[-1] > 0.0 and np.all(trial > 0.0):
                evaluations += 1
                scored = like.score(trial[:k], trial_weights, value)
                if scored[0] > value:
                    break
            t = t / 2.0 if t * gain > 2.0 * _NEWTON_TOL else 0.0
        if t == 0.0:
            break
        taus, weights, (value, gradient, hessian) = trial[:k], trial_weights, scored
        iterations += 1
    return taus, weights, value, iterations, converged, evaluations, eig


def _observed_information_errors(
    eig: tuple | None, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Standard errors from the analytic observed information -H, and the
    condition number of the information balanced by ``scale``.

    Natural coordinates: the k delays plus the first k-1 weights (the last
    weight's error follows by error propagation, nan where its variance rounds
    below 0 on a near-singular information). The balanced information
    is inverted on its eigenvectors: ``eig``, its ``np.linalg.eigh`` from
    ``_newton_ascent``, or None when it is not finite (every result nan).
    When it is not positive definite, as for a surplus layer whose split
    from another is not identified, every standard error is nan.
    """
    k = (scale.size + 1) // 2
    nan = np.full(k, math.nan)
    if eig is None:
        return nan, nan, math.nan
    lam, vec = eig
    size = np.abs(lam)
    condition = float(size.max() / size.min()) if size.min() > 0.0 else math.inf
    if not lam[0] > 0.0:
        return nan, nan, condition
    cov = (vec / lam) @ vec.T * np.outer(scale, scale)
    stderr = np.sqrt(np.diag(cov))
    last = np.sum(cov[k:, k:])
    return stderr[:k], np.append(stderr[k:], math.sqrt(last) if last >= 0 else math.nan), condition


@functools.cache
def _weideman() -> tuple[float, np.ndarray]:
    """Scale and coefficients (highest first) of Weideman's 36-term rational Faddeeva
    approximation (SIAM J. Numer. Anal. 31, 1497, 1994) by the cosine sum its FFT
    reduces to; 32 terms lose digits where a narrow window's tail cancels."""
    scale, k = math.sqrt(36.0 / math.sqrt(2.0)), np.arange(-71, 72)
    t = scale * np.tan(k * (math.pi / 144.0))
    weight = np.exp(-t * t) * (scale * scale + t * t)
    return scale, np.cos(np.outer(np.arange(36, 0, -1), k) * (math.pi / 72.0)) @ weight / 144.0


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-i z) for Im z >= 0, by Weideman's approximation."""
    scale, coefficients = _weideman()
    d = scale - 1j * z
    p = np.polyval(coefficients, (scale + 1j * z) / d)
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def _window_moments(kappa: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """m(0) and the defects m(0) - m(kappa) (kappa >= 0) of the window moment
    m(kappa) = integral of phi(u) u^2 cos(kappa u) over |u| <= h, phi the
    standard normal density: the full-line moment, whose defect is formed
    without cancellation, less twice the tail past h, by parts phi(h) Re of
    e^(i kappa h) (h + i kappa + (1 - kappa^2) sqrt(pi/2) w(z)) with
    z = (kappa + i h)/sqrt 2."""
    k, k2 = np.append(0.0, kappa), kappa * kappa
    w = _faddeeva((k + 1j * h) / math.sqrt(2.0))
    tail = (np.exp(1j * k * h) * ((1.0 - k * k) * math.sqrt(math.pi / 2.0) * w + h + 1j * k)).real
    tail *= math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    full = k2 * np.exp(-0.5 * k2) - np.expm1(-0.5 * k2)  # 1 - (1 - kappa^2) e^(-kappa^2/2)
    return 1.0 - 2.0 * tail[0], full - 2.0 * (tail[0] - tail[1:])


def fisher_information(
    source: BiphotonSource, tau: float, model: DetectionModel
) -> FisherReport:
    """Per-trial Fisher information about a single delay.

    two-port: closed-form reduction of the per-bin information to
    ``(1-gamma)^2 integral env(omega) alpha^2 omega^2 sin^2(omega tau) /
    (1 - alpha^2 cos^2(omega tau)) domega`` over the grid window (4 sigma^2
    at unit visibility, independent of tau).

    trinomial: the pair channel's ``(dP)^2 / P``, ``(1-gamma)^2 / 2 integral
    env alpha^2 omega^2 sin^2(omega tau) / (1 + alpha cos(omega tau))``, the
    envelope a normal density: the bound counts n_trials in total, spread
    over frequency, where ``simulate --variant trinomial`` draws n_trials in
    every bin with the envelope peak-normalized (both conventions kept as
    published). The single-click term, smaller by a factor of order env, is
    left out, and its closed-form bound added to ``error_estimate``.

    With r = sqrt(1 - alpha^2) and beta = alpha / (1 + r), the factors are
    ``1 - r - 2 r sum_n beta^2n cos 2nx`` and ``1 - r - alpha cos x - 2 r
    sum_n (-beta)^n cos nx`` in x = omega tau, so the integral is a sum of
    closed-form window moments (``_window_moments``). Terms are added in
    blocks until a bound on the rest, ``error_estimate``, is at most
    ``max(1e-12 |value|, 1e-15 sigma^2)``, value unscaled by gamma; none is
    evaluated when the bound starts below that, so a delay whose
    omega_max |tau| overflows gets the long-delay limit. Past 2^20 terms
    QuadratureError is raised. alpha = 0 gives exactly 0, and so does
    tau = 0 but at two-port unit visibility.
    """
    (outcome,) = _run_series([_fisher_series(source, tau, model)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fisher_series(source: BiphotonSource, tau: float, model: DetectionModel):
    """``fisher_information`` as a generator: it yields (h, kappa) requests, is sent
    ``_window_moments(kappa, h)`` for each, and returns the report. The first
    request, kappa empty, asks for m(0); each later one is one block."""
    if not math.isfinite(tau):
        raise ConfigurationError("tau must be finite")
    s, h = 2.0 * source.sigma_spectral, model.grid.omega_max / (2.0 * source.sigma_spectral)
    alpha, gamma, two_port = model.alpha, model.gamma, model.variant == "two-port"
    r = math.sqrt((1.0 - alpha) * (1.0 + alpha))
    beta = alpha / (1.0 + r)  # (1 - r) / alpha without 0/0 at alpha = 0
    # factor = alpha beta - sum_n (2 r ratio^n + extra [n = 1]) cos(n step omega / s),
    # and the weights from n on sum to at most tail |ratio|^n + extra [n = 1]
    half, ratio, extra, step = ((1.0, beta * beta, 0.0, 2.0 * abs(tau) * s) if two_port
                                else (0.5, -beta, alpha, abs(tau) * s))
    one_minus = (1.0 + r - alpha) / (1.0 + r) * (1.0 + beta if two_port else 1.0)
    tail = 2.0 * r / one_minus if r > 0.0 else 0.0  # 2 r / (1 - |ratio|)
    # |moment| <= (1 + k^2) e^(-k^2/2) at k = max(kappa, 1), plus the window edge's
    # 4 max_{u>=h} u^2 phi(u) / kappa: both fall with kappa = n step
    edge = 4.0 * (h * (h * math.exp(-0.5 * h * h)) if h >= math.sqrt(2.0) else 2.0 / math.e)

    def rest(n: int) -> float:  # bound on the terms from n on; |moment| <= m(0) <= 1
        kappa = n * step
        k = min(max(kappa, 1.0), 40.0)
        bound = (1.0 + k * k) * math.exp(-0.5 * k * k) + edge / (math.sqrt(2.0 * math.pi) * kappa)
        return (tail * abs(ratio) ** n + extra * (n == 1)) * min(bound, 1.0)

    # the weights sum to alpha beta, so value = sum_n w_n (m(0) - m(n step)), which
    # keeps its digits at small kappa: the defects summed, plus m(0) times the weights
    # from n on (signed_tail ratio^n), less the terms rest(n) bounds, so clipped at 0
    m0, error = float((yield h, np.zeros(0))[0]), 0.0
    value, signed_tail = alpha * beta * m0, tail if two_port else 2.0 * r / (1.0 + beta)
    if step == 0.0 and not (two_port and alpha == 1.0):
        value = 0.0  # sin(omega tau) vanishes; the two-port factor is 1 at unit visibility
    elif step > 0.0:
        n, size, defects, error = 1, 64, 0.0, rest(1)
        while error > max(_SERIES_RTOL * abs(value), 0.25e-15 / half):  # 1e-15 sigma^2 in s^2
            if n > _MAX_TERMS:
                raise QuadratureError(
                    "Fisher information series did not bound its omitted terms by max(1e-12 "
                    f"|value|, 1e-15 sigma^2) within {_MAX_TERMS} terms",
                    value=half * s * s * value, error_estimate=half * s * s * error)
            terms = np.arange(n, min(n + size, _MAX_TERMS + 1))
            defects += float((2.0 * r * ratio**terms + extra * (terms == 1))
                             @ (yield h, terms * step)[1])
            n, size = n + terms.size, min(2 * size, _BLOCK_TERMS)
            value, error = max(defects + m0 * signed_tail * ratio**n, 0.0), rest(n)
    survive = (1.0 - gamma) ** 2
    g_omega, error = survive * half * s * s * value, survive * half * s * s * error
    if not two_port:
        # (dP)^2 <= (survive env alpha omega / 2)^2, integral env^2 omega^2 <= s / (4 sqrt pi)
        # and P_single >= 1 - gamma^2 - survive max(env)
        room = (1.0 + gamma) - (1.0 - gamma) / (math.sqrt(2.0 * math.pi) * s)
        error += ((1.0 - gamma) ** 3 * alpha**2 * s / (16.0 * math.sqrt(math.pi) * room)
                  if room > 0.0 else math.inf)
    crb = 1.0 / math.sqrt(model.n_trials * g_omega) if g_omega > 0.0 else math.inf
    return FisherReport(
        g_omega=g_omega, crb=crb, variant=model.variant, sigma=source.sigma_spectral, tau=tau,
        gamma=gamma, alpha=alpha, n_trials=model.n_trials, error_estimate=error,
    )


def _run_series(cells):
    """Drive ``_fisher_series`` generators in groups of _BLOCK_TERMS // 64, so that a
    group's first blocks of 64 terms fill one call. Each round answers the pending
    requests of one h with ``_window_moments`` calls of at most _BLOCK_TERMS
    elements; the moments are elementwise, so every cell keeps a lone run's bits.
    Yields each cell's report, or the exception it raised, in order."""
    cells = iter(cells)
    while group := list(itertools.islice(cells, _BLOCK_TERMS // 64)):
        outcomes, replies = [None] * len(group), dict.fromkeys(range(len(group)))
        while replies:
            requests = {}  # h -> [(cell index, kappa)]
            for i, reply in replies.items():
                try:
                    h, kappa = group[i].send(reply)
                except StopIteration as stop:
                    outcomes[i] = stop.value
                except Exception as exc:  # the caller decides which to raise
                    outcomes[i] = exc
                else:
                    requests.setdefault(h, []).append((i, kappa))
            replies = {}
            for h, pending in requests.items():
                while pending:  # the longest prefix within _BLOCK_TERMS goes in one call
                    ends = list(itertools.accumulate(kappa.size for _, kappa in pending))
                    n = max(sum(end <= _BLOCK_TERMS for end in ends), 1)
                    m0, defects = _window_moments(np.concatenate([k for _, k in pending[:n]]), h)
                    for (i, _), start, end in zip(pending, [0, *ends], ends[:n]):
                        replies[i] = m0, defects[start:end]
                    pending = pending[n:]
        yield from outcomes


def quantum_fisher_information(source: BiphotonSource, n_trials: int) -> QfiReport:
    """Quantum information limit for delay sensing with this source.

    The delay enters as a phase generated by the idler frequency, so the
    quantum Fisher information per pair is four times the idler-frequency
    variance of the joint spectral density. With a monochromatic pump the
    idler detuning is half the difference frequency (RMS 2 sigma), so ``q``
    is that variance, sigma^2, not an information: the information per pair
    is 4q, and ``qcrb = 1 / sqrt(n 4q)`` after n trials.
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be at least 1")
    q = source.sigma_spectral**2
    # written as 1/(2 sigma sqrt(N)) so the printed value matches that
    # formula digit for digit
    qcrb = 1.0 / (2.0 * source.sigma_spectral * math.sqrt(n_trials))
    return QfiReport(q=q, qcrb=qcrb, n_trials=int(n_trials))


@dataclass(frozen=True)
class SweepCell:
    sigma: float
    tau: float
    gamma: float
    alpha: float
    variant: str
    g_omega: float | None
    crb: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepCell, ...]
    monotonicity: dict


def sweep(
    sigma_values,
    tau_values,
    gamma_values,
    alpha_values,
    variant: str = "two-port",
    n_trials: int = 1,
    span_sd: float = 6.0,
) -> SweepResult:
    """Fisher information over a Cartesian parameter grid.

    Evaluates every (sigma, tau, gamma, alpha) combination; cells share
    batched series rounds (``_run_series``), and each keeps the bits of a lone
    ``fisher_information`` call. A cell whose model cannot be built or whose
    series fails records its error instead of aborting the sweep. The
    ``monotonicity`` map labels the Fisher information trend along each axis
    as increasing / decreasing / constant / mixed, or unavailable when
    errors prevent the comparison.
    """
    axes = [
        np.atleast_1d(np.asarray(values, dtype=float))
        for values in (sigma_values, tau_values, gamma_values, alpha_values)
    ]
    for name, values in zip(_SWEEP_AXES, axes):
        if values.size == 0:
            raise ConfigurationError(f"{name} axis is empty")
        if values.size > _MAX_AXIS_POINTS:
            raise ConfigurationError(
                f"{name} axis has {values.size} points, limit is {_MAX_AXIS_POINTS}"
            )

    def cell(sigma, tau, gamma, alpha):  # builds its model on the first send
        source = BiphotonSource(sigma_spectral=sigma)
        grid = default_frequency_grid(source, n_bins=16, span_sd=span_sd)
        model = DetectionModel(grid, gamma, alpha, n_trials=n_trials, variant=variant)
        return (yield from _fisher_series(source, tau, model))

    points, cells = itertools.tee(itertools.product(*(values.tolist() for values in axes)))
    rows, outcomes = [], _run_series(cell(*point) for point in cells)
    for (sigma, tau, gamma, alpha), outcome in zip(points, outcomes):
        if isinstance(outcome, (ConfigurationError, InputDataError, EstimationError)):
            g_omega, crb, error = None, None, str(outcome)
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            g_omega, crb, error = outcome.g_omega, outcome.crb, None
        rows.append(SweepCell(sigma=sigma, tau=tau, gamma=gamma, alpha=alpha, variant=variant,
                              g_omega=g_omega, crb=crb, error=error))
    shape = tuple(values.size for values in axes)
    return SweepResult(rows=tuple(rows), monotonicity=_monotonicity(tuple(rows), shape))


def _monotonicity(rows: tuple[SweepCell, ...], shape: tuple[int, ...]) -> dict:
    g = np.array(
        [row.g_omega if row.error is None else np.nan for row in rows], dtype=float
    ).reshape(shape)
    tol = 1e-12 * float(np.max(np.abs(g[~np.isnan(g)]), initial=0.0))
    labels = {}
    for axis, name in enumerate(_SWEEP_AXES):
        # A failed cell makes its steps nan, which fail every test: the axis is
        # unavailable when each slice has one. A single point has no steps, so no
        # trend to violate: every test over them holds and it reads constant.
        steps = np.diff(g, axis=axis)
        tests = {"constant": np.abs(steps) <= tol, "increasing": steps > tol,
                 "decreasing": steps < -tol}
        found = next((label for label, holds in tests.items() if holds.all()), "mixed")
        labels[name] = "unavailable" if np.isnan(steps).any(axis=axis).all() else found
    return labels
