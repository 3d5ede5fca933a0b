"""Delay estimation and precision analysis.

Pipeline: invert a measured spectrum to the delay domain and read off
side-peak positions (fast, initializes everything else); refine with a
multinomial maximum-likelihood fit over layer delays and weights; compare
against the per-trial Fisher information of the outcome model and the
quantum bound set by the source bandwidth alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonSource, _fringe_rows, _layer_rows, envelope_density
from .errors import (
    ConfigurationError,
    InputDataError,
    MalformedSpectrumError,
    QuadratureError,
)
from .hom import (
    DetectionModel,
    OutcomeTable,
    _category_probabilities,
    _category_slopes,
    _variant_envelope,
)
from .transform import SpectralPattern, TemporalGrid, default_frequency_grid, inverse_qwkt

_MAX_LAYERS = 4
_MAX_AXIS_POINTS = 256
_SWEEP_AXES = ("sigma", "tau", "gamma", "alpha")
_COARSE_POINTS = 21
_COARSE_SPAN_STEPS = 10.0
# Newton ascent stops once g^T step, the squared distance to the optimum in
# standard errors, is at most this.
_NEWTON_TOL = 1e-6
_QUAD_RTOL = 1e-8
# Fisher information panel rule, as fisher_information describes it: the
# positive half of np.polynomial.legendre.leggauss(32), which is exactly
# symmetric, written out so no process pays for a LAPACK eigensolve.
_GL_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
_MIN_PANELS = 64
_MAX_PANELS = 2**22
# Likelihood rows are evaluated in chunks of at most this many (row, bin)
# cells, so a 400-row padded-layer scan never holds more than ~0.1 MB per
# temporary array.
_CHUNK_CELLS = 2**14
# Fisher panel sums are accumulated in groups of _SUM_PANELS panels (the
# grouping fixes the bits of the sum); the integrand runs on blocks of
# _BLOCK_PANELS panels, 8192 nodes, so its temporaries (64 KiB) stay below
# the C allocator's 128 KiB mmap threshold and are not mapped and unmapped
# on every call.
_SUM_PANELS = 512
_BLOCK_PANELS = 256


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
    evaluations: int  # padded-layer scan rows plus the points Newton scored
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
    error_estimate: float  # estimated absolute error of g_omega


@dataclass(frozen=True)
class QfiReport:
    """Quantum information limit of the source itself."""

    q: float
    qcrb: float
    n_trials: int


def _parabolic_offset(y_minus: float, y_center: float, y_plus: float) -> tuple[float, float]:
    """Sub-grid vertex offset (in grid steps) and refined height."""
    denom = y_minus - 2.0 * y_center + y_plus
    if denom == 0.0:
        return 0.0, y_center
    delta = 0.5 * (y_minus - y_plus) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
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


def _initial_layers(
    counts: OutcomeTable, source: BiphotonSource, k_layers: int, init
) -> tuple[list[tuple[float, float]], int]:
    """Starting (tau, weight) list, truncated to the k_layers strongest or
    padded to k_layers, and the number of leading layers a peak report
    pins (none for a caller's list)."""
    if init is None:
        pattern = SpectralPattern(
            grid=counts.grid,
            values=np.asarray(counts.counts_coincidence, dtype=float),
            kind="counts",
        )
        init = extract_delays(pattern, source)
    if isinstance(init, PeakReport):
        layers = [(tau, weight) for tau, weight, _ in init.delays]
    else:
        layers = [(float(t), float(a)) for t, a in init]
    layers.sort()
    if len(layers) > k_layers:
        layers = sorted(sorted(layers, key=lambda la: -la[1])[:k_layers])
    pinned = len(layers) if isinstance(init, PeakReport) else 0
    grid_dt = TemporalGrid.conjugate_of(counts.grid).delta_t
    while len(layers) < k_layers:
        base = layers[-1][0] if layers else 10.0 / source.delta_temporal
        layers.append((base + 10.0 * grid_dt, 0.1))
    total = sum(a for _, a in layers)
    return [(t, a / total) for t, a in layers], pinned


def _log(p):
    """Logarithm floored at 1e-300, so empty categories stay finite."""
    return np.log(np.maximum(p, 1e-300))


def _row_dot(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``rows @ counts``, each row summed as a 1-D dot product sums it, so a
    batch gives the same bits as the rows evaluated one at a time."""
    return np.matmul(rows[:, None, :], counts[:, None])[:, 0, 0]


class _Likelihood:
    """Multinomial log-likelihood of an outcome table under candidate layers.

    ``log_likelihood`` takes candidates in rows (the padded-layer scan),
    ``score`` one candidate (Newton); both read the forward model shared with
    ``outcome_probabilities``. The table is read once into ``terms``, one
    (category, counts) pair per observed block, the category indexing
    ``_category_probabilities``. Categories absent from a two-port table (a
    spectrum file carries anti-bunch counts only) are handled by
    conditioning on the observed categories: their probabilities are
    renormalized by the observed total mass. A trinomial table with pair
    counts only is fitted by the per-bin binomial marginal with known
    trials, which no bin's pair count may exceed; its second term, category
    None, is the 1 - pair rest.
    """

    def __init__(
        self, counts: OutcomeTable, model: DetectionModel, source: BiphotonSource, phi: float
    ):
        if counts.counts_coincidence is None:
            raise InputDataError("outcome table holds no counts to fit")
        if counts.total_counts() <= 0:
            raise InputDataError("outcome table has zero total counts; no likelihood mass")
        self.model = model
        self.phi = phi
        self.omega = model.grid.values
        self.env = _variant_envelope(model, source.sigma_spectral)
        two_port = model.variant == "two-port"
        blocks = (
            counts.counts_coincidence,
            counts.counts_bunching if two_port else None,
            counts.counts_single,
            counts.counts_none,
        )
        # a category with one probability for every bin needs only its total
        self.terms = []
        for c, (block, p) in enumerate(zip(blocks, self._probabilities(np.zeros_like(self.env)))):
            if block is not None:
                n = np.asarray(block, dtype=float)
                self.terms.append((c, n if isinstance(p, np.ndarray) else float(np.sum(n))))
        self.observed = sum(float(np.sum(n)) for _, n in self.terms)
        complete = len(self.terms) == (4 if two_port else 3)
        self.conditioned = two_port and not complete
        if not (two_port or complete):
            n_trials = model.n_trials if counts.n_trials is None else counts.n_trials
            pairs = self.terms[0][1]
            if np.max(pairs) > n_trials:
                # the binomial's n_trials - n would go negative
                raise InputDataError(f"a bin holds more pairs than its {n_trials} trials")
            self.terms = [(0, pairs), (None, n_trials - pairs)]
        self.rows_per_chunk = max(1, _CHUNK_CELLS // self.omega.size)

    def log_likelihood(self, taus: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Log-likelihood of each row of (B, k) delays and weights, shape (B,)."""
        out = np.empty(taus.shape[0])
        step = self.rows_per_chunk
        for i in range(0, taus.shape[0], step):
            x = _fringe_rows(taus[i : i + step], weights[i : i + step], self.phi, self.omega)
            out[i : i + step] = self._value(self._probabilities(x))
        return out

    def score(self, taus: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Log-likelihood (``log_likelihood``'s bits), gradient and Hessian at
        one candidate, in natural coordinates: k delays, first k-1 weights.

        Each bin depends on them only through its fringe x. With J = dx/dtheta
        and g, D the first and second derivatives by each bin's x, the
        gradient is J^T g and the Hessian J^T D J + sum_b g_b d2x_b/dtheta2,
        plus (N/M^2) (J^T m)(J^T m)^T when conditioned on the observed mass M
        of x-slope m. Bins at the 1e-300 log floor contribute nothing.
        """
        k = taus.size
        x, cos, sin = _layer_rows(taus, weights, self.phi, self.omega)
        probs = self._probabilities(x[None])
        value = float(self._value(probs)[0])
        probs = tuple(p[0] if isinstance(p, np.ndarray) else p for p in probs)
        slopes = _category_slopes(self.model, self.env, probs)
        terms = [
            (1.0 - probs[0], n, -slopes[0]) if c is None else (probs[c], n, slopes[c])
            for c, n in self.terms
        ]
        g, curvature = np.zeros(x.size), np.zeros(x.size)
        for p, n, s in terms:
            ratio = s * np.divide(1.0, p, out=np.zeros_like(x), where=p > 1e-300)
            g += n * ratio
            curvature -= n * ratio * ratio
        jac = np.concatenate([-weights[:, None] * self.omega * sin, cos[:-1] - cos[-1]]).T
        hessian = jac.T @ (curvature[:, None] * jac)
        if self.conditioned:
            mass = sum(np.sum(p) for p, _, _ in terms)
            mass_slope = sum(s for _, _, s in terms)
            g -= (self.observed / mass) * mass_slope
            jm = jac.T @ mass_slope
            hessian += (self.observed / mass**2) * np.outer(jm, jm)
        # d2x/dtau_i2 = -a_i omega^2 cos_i; d2x/dtau_i da_j = -omega sin_i
        # (i = j), and +omega sin_k for the last delay, whose weight is 1 - sum
        g_omega = g * self.omega
        hessian[range(k), range(k)] -= weights * (cos @ (g_omega * self.omega))
        g_sin = sin @ g_omega
        cross = np.vstack([-np.diag(g_sin[:-1]), np.full((1, k - 1), g_sin[-1])])
        hessian[:k, k:] += cross
        hessian[k:, :k] += cross.T
        return value, jac.T @ g, hessian

    def _probabilities(self, x: np.ndarray) -> tuple:
        return _category_probabilities(self.model, self.env, x)

    def _value(self, probs: tuple) -> np.ndarray:
        out = 0.0
        for c, n in self.terms:
            p = 1.0 - probs[0] if c is None else probs[c]
            if isinstance(p, np.ndarray):
                out = out + _row_dot(_log(p), n)
            else:
                out = out + n * math.log(max(p, 1e-300))
        if self.conditioned:
            observed = [probs[c] for c, _ in self.terms]
            mass = sum(p.sum(axis=1) if isinstance(p, np.ndarray) else p for p in observed)
            out = out - self.observed * _log(mass)
        return out


def mle_fit(
    counts: OutcomeTable,
    model: DetectionModel,
    source: BiphotonSource,
    k_layers: int,
    init=None,
    phi: float = 0.0,
    max_iterations: int = 500,
) -> MleResult:
    """Maximum-likelihood fit of layer delays and weights to sampled counts.

    The start is the peak report's layers (``init``, or ``extract_delays``
    on the coincidence counts when ``init`` is None): the k_layers
    strongest peaks, each of them pinned. When fewer than k_layers peaks
    are found, ``_initial_layers`` pads the list with layers the peaks do
    not pin; every layer of a plain (tau, weight) list from the caller is
    unpinned. Each unpinned layer in turn is scanned in one batch with the
    other layers held: its delay at 21 offsets spanning +/-10 temporal grid
    steps times 19 weight fractions 0.05..0.95, the other weights rescaled
    to the remaining mass (no weight axis at k_layers = 1). The batch's
    best row replaces the current start only if it beats it. Within a
    batch each distinct delay's fringe is computed once, with the same bits
    as a row alone.

    From there a damped Newton ascent on the analytic score and Hessian
    (``_newton_ascent``) refines the k delays and first k-1 weights, at
    most ``max_iterations`` steps; weights always sum to one. Standard
    errors come from the analytic observed information at the optimum
    (``_observed_information_errors``).

    The fit uses exactly ``k_layers`` layers; choosing k is the caller's
    job. Surplus layers are not pruned: on one-layer data a two-layer fit
    can split the layer into two at the same delay, with a log-likelihood
    equal to the one-layer fit's. The observed information there is not
    positive definite, so the standard errors come back nan.
    """
    if not 1 <= k_layers <= _MAX_LAYERS:
        raise ConfigurationError(f"k_layers must lie in [1, {_MAX_LAYERS}]")
    if counts.variant != model.variant:
        raise ConfigurationError("counts table and model use different variants")
    if counts.grid != model.grid:
        raise ConfigurationError("counts table and model use different frequency grids")
    like = _Likelihood(counts, model, source, phi)
    layers0, pinned = _initial_layers(counts, source, k_layers, init)
    taus = np.array([t for t, _ in layers0])
    weights = np.array([a for _, a in layers0])

    grid_dt = TemporalGrid.conjugate_of(counts.grid).delta_t
    offsets = _COARSE_SPAN_STEPS * grid_dt * np.linspace(-1.0, 1.0, _COARSE_POINTS)
    fractions = np.linspace(0.05, 0.95, 19) if k_layers > 1 else np.ones(1)
    shift, share = (a.ravel() for a in np.meshgrid(offsets, fractions, indexing="ij"))
    scanned = 0
    for j in range(pinned, k_layers):
        # row 0 is the start, so a tie keeps it
        held = np.delete(weights, j)
        row_taus = np.tile(taus, (shift.size + 1, 1))
        row_taus[1:, j] += shift
        grid_weights = np.insert(np.outer(1.0 - share, held / held.sum()), j, share, axis=1)
        row_weights = np.vstack([weights, grid_weights])
        values = like.log_likelihood(row_taus, row_weights)
        best = int(np.argmax(values))
        taus, weights, scanned = row_taus[best], row_weights[best], scanned + values.size

    scale = np.concatenate([np.full(k_layers, 1.0 / source.delta_temporal), np.ones(k_layers - 1)])
    taus_hat, weights_hat, value, hessian, iterations, converged, evaluations = _newton_ascent(
        like, taus, weights, scale, max_iterations
    )
    stderr_tau, stderr_weight, condition = _observed_information_errors(hessian, scale)
    order = np.argsort(taus_hat)
    layers = tuple((float(taus_hat[i]), float(weights_hat[i])) for i in order)
    return MleResult(
        layers=layers,
        stderr_tau=tuple(float(stderr_tau[i]) for i in order),
        stderr_weight=tuple(float(stderr_weight[i]) for i in order),
        log_likelihood=value,
        converged=converged,
        iterations=iterations,
        evaluations=scanned + evaluations,
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
    log-likelihood rises with every weight positive, or until the rise it
    can still bring is below ``_NEWTON_TOL``; an accepted trial keeps its
    ``score``. Converged means g^T step, twice the predicted rise, is at most
    ``_NEWTON_TOL``; that step is still taken if it rises. Returns the delays,
    weights, log-likelihood and Hessian reached, the steps taken,
    convergence and the points scored.
    """
    k = taus.size
    value, gradient, hessian = like.score(taus, weights)
    iterations, converged, evaluations = 0, False, 1
    while iterations < max_iterations and not converged:
        g, info = gradient * scale, -hessian * np.outer(scale, scale)
        if not np.all(np.isfinite(info)):
            break
        lam, vec = np.linalg.eigh(info)
        step = vec @ np.divide(vec.T @ g, np.abs(lam), out=np.zeros(g.size), where=lam != 0)
        gain = float(g @ step)
        if not math.isfinite(gain):
            break
        converged = gain <= _NEWTON_TOL
        point, t = np.concatenate([taus, weights[:-1]]), 1.0
        while t > 0.0:
            trial = point + t * scale * step
            trial_weights = np.append(trial[k:], 1.0 - np.sum(trial[k:]))
            if np.all(trial_weights > 0.0):
                evaluations += 1
                scored = like.score(trial[:k], trial_weights)
                if scored[0] > value:
                    break
            t = t / 2.0 if t * gain > 2.0 * _NEWTON_TOL else 0.0
        if t == 0.0:
            break
        taus, weights, (value, gradient, hessian) = trial[:k], trial_weights, scored
        iterations += 1
    return taus, weights, value, hessian, iterations, converged, evaluations


def _observed_information_errors(
    hessian: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Standard errors from the analytic observed information -H, and the
    condition number of the information balanced by ``scale``.

    Natural coordinates: the k delays plus the first k-1 weights (the last
    weight's error follows by error propagation). The balanced information
    is inverted on its eigenvectors. When it is not positive definite, as
    for a surplus layer whose split from another is not identified, every
    standard error is nan.
    """
    k = (scale.size + 1) // 2
    info = -hessian * np.outer(scale, scale)
    nan = np.full(k, math.nan)
    if not np.all(np.isfinite(info)):
        return nan, nan, math.nan
    lam, vec = np.linalg.eigh(info)
    size = np.abs(lam)
    condition = float(size.max() / size.min()) if size.min() > 0.0 else math.inf
    if not lam[0] > 0.0:
        return nan, nan, condition
    cov = (vec / lam) @ vec.T * np.outer(scale, scale)
    stderr = np.sqrt(np.diag(cov))
    return stderr[:k], np.append(stderr[k:], math.sqrt(np.sum(cov[k:, k:]))), condition


def _fisher_integrand(model: DetectionModel):
    """One cell's Fisher integrand of the nodes ``w``, the envelope density
    ``env`` and the fringe ``c``, ``s`` (cos and sin of ``w tau``) there.
    Two-port ignores gamma; trinomial reads ``_category_probabilities``."""
    alpha = model.alpha
    if model.variant == "two-port":
        if alpha == 1.0:
            return lambda w, env, c, s: env * w * w
        return lambda w, env, c, s: env * alpha**2 * w * w * s * s / (1.0 - alpha**2 * c * c)
    survive = (1.0 - model.gamma) ** 2

    def integrand(w, env, c, s):
        p_pair, _, p_single, _ = _category_probabilities(model, env, c)
        dp2 = ((survive / 2.0) * env * alpha * w * s) ** 2  # the slope squared
        if alpha == 1.0:
            term_pair = (survive / 2.0) * env * w * w * (1.0 - c)
        else:
            term_pair = np.divide(dp2, p_pair, out=np.zeros_like(w), where=p_pair > 0.0)
        cut = p_single > 1e-13 * (1.0 - model.gamma**2)
        term_single = np.divide(dp2, p_single, out=np.zeros_like(w), where=cut)
        return (term_pair + term_single) / survive
    return integrand


def _cos_sin(phase):
    return np.cos(phase), np.sin(phase)


def _angle_sum(cm, sm, co, so):
    """cos and sin of a + b from those of a (``cm``, ``sm``) and b (``co``, ``so``)."""
    return cm * co - sm * so, sm * co + cm * so


def _panel_sums(integrands, hi: float, step: float, sigma: float, tau: float, fringe: bool):
    """Gauss-Legendre sum of each integrand over [0, hi], one panel between
    consecutive multiples of ``step``, summed in groups of ``_SUM_PANELS``
    panels and evaluated in blocks of ``_BLOCK_PANELS``. A block's nodes
    ``w = mid + half x``, envelope and (if ``fringe``) cos and sin of the
    phase are computed once.

    The phase of node x_j is ``mid tau + (step/2) x_j tau``: its cos and sin
    come by angle addition from one cos/sin pair per panel (``mid tau``) and
    one per node offset, so trig runs on the panels and the 32 offsets, not
    on every node. The range's final panel, narrower than ``step`` when
    clipped at ``hi``, takes offsets from its own half-width."""
    n_panels = math.ceil(hi / step)
    if fringe:
        co, so = _cos_sin(_GL_NODES * (0.5 * step * tau))
    c = s = None
    totals = [0.0] * len(integrands)
    for first in range(0, n_panels, _SUM_PANELS):
        edges = np.minimum(step * np.arange(first, min(first + _SUM_PANELS, n_panels) + 1), hi)
        half = 0.5 * np.diff(edges)
        mid = edges[:-1] + half
        if fringe:
            cm, sm = _cos_sin(mid[:, None] * tau)
        panels = [np.empty(half.size) for _ in integrands]
        for b in range(0, half.size, _BLOCK_PANELS):
            r = slice(b, b + _BLOCK_PANELS)
            w = mid[r, None] + half[r, None] * _GL_NODES
            env = envelope_density(w, sigma)
            if fringe:
                c, s = _angle_sum(cm[r], sm[r], co, so)
                if first + b + _BLOCK_PANELS >= n_panels:  # the block holds the final panel
                    c[-1], s[-1] = _angle_sum(
                        cm[-1], sm[-1], *_cos_sin(_GL_NODES * (half[-1] * tau)))
            for out, integrand in zip(panels, integrands):
                out[r] = integrand(w, env, c, s) @ _GL_WEIGHTS
        totals = [total + float(half @ out) for total, out in zip(totals, panels)]
    return totals


def _fisher_pass(sigma: float, tau: float, models) -> list:
    """``fisher_information`` of each model at one delay: a FisherReport or
    the error that stopped it. Models with one integrand (two-port ones of
    one alpha, at any gamma) share an integral; integrals of one panel layout
    (omega_max, starting step) are halved together, each to its own stop test,
    on blocks whose nodes, envelope and fringe are computed once, the fringe
    by angle addition (``_panel_sums``)."""
    if not math.isfinite(tau):
        return [ConfigurationError("tau must be finite") for _ in models]
    # The outermost node sits (1 - max node)/2 of a panel from its edge;
    # panels narrow enough to put it within the near-pole distance of the
    # edge see the notch there, so halving can tell when it is resolved.
    reach = (1.0 - _GL_NODES[-1]) / 2.0
    keys = [(m.variant, 0.0 if m.variant == "two-port" else m.gamma, m.alpha, m.grid.omega_max)
            for m in models]
    integrands, layouts, no_panel = {}, {}, {}
    for key, model in dict(zip(keys, models)).items():
        variant, _, alpha, hi = key
        fringe = not (variant == "two-port" and alpha == 1.0)  # reads cos and sin of omega tau
        per_half_period = (
            math.ceil(math.pi * reach / math.acosh(1.0 / alpha)) if 0 < alpha < 1 else 1)
        step = hi / max(_MIN_PANELS, hi * (abs(tau) if fringe else 0.0) * per_half_period / math.pi)
        integrands[key] = _fisher_integrand(model), fringe
        layouts.setdefault((hi, step), []).append(key)
        no_panel[key] = step == 0.0
    floor = 1e-15 * sigma**2
    value, error = dict.fromkeys(integrands, math.nan), dict.fromkeys(integrands, math.inf)

    def done(key) -> bool:
        return error[key] <= max(_QUAD_RTOL * abs(value[key]), floor)

    for (hi, step), active in layouts.items():
        while ((active := [k for k in active if not done(k)])
               and step > 0.0 and hi / step <= _MAX_PANELS):
            fringe = any(integrands[k][1] for k in active)
            sums = _panel_sums([integrands[k][0] for k in active], hi, step, sigma, tau, fringe)
            for k, total in zip(active, sums):
                previous, value[k] = value[k], 2.0 * total
                error[k] = abs(value[k] - previous) if math.isfinite(previous) else math.inf
            step /= 2.0
    outcomes = []
    for m, k in zip(models, keys):
        survive = (1.0 - m.gamma) ** 2
        g_omega = survive * value[k]
        crb = 1.0 / math.sqrt(m.n_trials * g_omega) if g_omega > 0.0 else math.inf
        outcomes.append(FisherReport(
            g_omega=g_omega, crb=crb, variant=m.variant, sigma=sigma, tau=tau, gamma=m.gamma,
            alpha=m.alpha, n_trials=m.n_trials, error_estimate=survive * error[k],
        ) if done(k) else QuadratureError(
            "Fisher information quadrature evaluated no panels: omega_max |tau| overflows "
            "the starting panel width" if no_panel[k] else
            "Fisher information quadrature did not reach error <= max(1e-8 |value|, "
            f"1e-15 sigma^2) within {_MAX_PANELS} panels",
            value=value[k], error_estimate=error[k],
        ))
    return outcomes


def fisher_information(
    source: BiphotonSource, tau: float, model: DetectionModel
) -> FisherReport:
    """Per-trial Fisher information about a single delay.

    two-port: closed-form reduction of the per-bin information to
    ``(1-gamma)^2 integral env(omega) alpha^2 omega^2 sin^2(omega tau) /
    (1 - alpha^2 cos^2(omega tau)) domega`` over the grid window (the
    integrand collapses to ``env omega^2`` at unit visibility, giving
    4 sigma^2 independent of tau). The integral does not depend on gamma:
    its stop test and a QuadratureError's value see it unscaled.

    trinomial: the summed per-outcome terms ``(dP)^2 / P`` of the per-bin
    outcome model, the envelope a normal density: the bound counts n_trials
    in total, spread over frequency, where ``simulate --variant trinomial``
    draws n_trials in every bin with the envelope peak-normalized (both
    conventions kept as published). No-click carries no delay dependence.

    Both integrands are even: twice the integral over [0, omega_max] is
    summed on 32-node Gauss-Legendre panels at most omega_max/64 wide, with
    edges on the near-poles omega |tau| = m pi +/- i acosh(1/alpha): one
    panel per fringe half-period pi/|tau| (``ceil(pi reach / acosh(1/alpha))``
    for alpha above ~0.99999, reach the outer node's gap to its panel edge).
    The two-port alpha = 1 integrand reads no fringe and starts at 64 panels.
    The fringe at a node, cos and sin of ``omega tau``, comes by angle
    addition from the cos and sin of its panel's midpoint phase and of its
    offset from it, so trig runs once per panel and once per node offset;
    the result agrees with cos and sin taken at every node to a few ulp of
    the phase. Panels are halved until two sums differ by at most
    ``max(1e-8 |value|, 1e-15 sigma^2)`` (the difference is
    ``error_estimate``); past 2^22 panels, or if omega_max |tau| overflows
    the starting panel width, QuadratureError is raised.

    This is the one-model case of ``_fisher_pass``, which ``sweep`` runs on
    all cells of a (sigma, tau) point at once with the same bits per cell.
    """
    (report,) = _fisher_pass(source.sigma_spectral, tau, [model])
    if isinstance(report, Exception):
        raise report
    return report


def quantum_fisher_information(source: BiphotonSource, n_trials: int) -> QfiReport:
    """Quantum information limit for delay sensing with this source.

    The delay enters as a phase generated by the idler frequency, so the
    information per pair is four times the idler-frequency variance of the
    joint spectral density. With a monochromatic pump the idler detuning is
    half the difference frequency (RMS 2 sigma), giving Q = sigma^2 and the
    bound ``qcrb = 1 / (2 sqrt(n Q))`` after n trials.
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

    Evaluates every (sigma, tau, gamma, alpha) combination; numerical
    failures are recorded per cell instead of aborting the sweep. The
    gamma x alpha cells of one (sigma, tau) point are integrated together
    (``_fisher_pass``): they share the quadrature nodes, the envelope and
    the fringe, two-port cells that differ only in gamma share one
    integral, and every cell gets the bits a lone ``fisher_information``
    call gives it. The ``monotonicity`` map labels the Fisher information
    trend along each axis as increasing / decreasing / constant / mixed,
    or unavailable when errors prevent the comparison.
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
    sigmas, taus, gammas, alphas = (values.tolist() for values in axes)
    rows = []
    for sigma, tau in itertools.product(sigmas, taus):
        cells = []
        for gamma, alpha in itertools.product(gammas, alphas):
            try:
                source = BiphotonSource(sigma_spectral=sigma)
                grid = default_frequency_grid(source, n_bins=16, span_sd=span_sd)
                model = DetectionModel(grid, gamma, alpha, n_trials=n_trials, variant=variant)
            except (ConfigurationError, InputDataError) as exc:
                model = exc
            cells.append((gamma, alpha, model))
        models = [m for *_, m in cells if isinstance(m, DetectionModel)]
        reports = iter(_fisher_pass(sigma, tau, models) if models else ())
        for gamma, alpha, outcome in cells:
            if isinstance(outcome, DetectionModel):
                outcome = next(reports)
            ok = isinstance(outcome, FisherReport)
            rows.append(SweepCell(
                sigma=sigma, tau=tau, gamma=gamma, alpha=alpha, variant=variant,
                g_omega=outcome.g_omega if ok else None, crb=outcome.crb if ok else None,
                error=None if ok else str(outcome),
            ))
    shape = tuple(values.size for values in axes)
    return SweepResult(rows=tuple(rows), monotonicity=_monotonicity(tuple(rows), shape))


def _monotonicity(rows: tuple[SweepCell, ...], shape: tuple[int, ...]) -> dict:
    g = np.array(
        [row.g_omega if row.error is None else np.nan for row in rows], dtype=float
    ).reshape(shape)
    tol = 1e-12 * float(np.max(np.abs(g[~np.isnan(g)]), initial=0.0))
    labels = {}
    for axis, name in enumerate(_SWEEP_AXES):
        # A failed cell makes its steps nan. A single point has no steps, so
        # no trend to violate: every test over them holds and it reads constant.
        steps = np.diff(g, axis=axis)
        slice_labels = np.select(
            [np.isnan(steps).any(axis=axis), (np.abs(steps) <= tol).all(axis=axis),
             (steps > tol).all(axis=axis), (steps < -tol).all(axis=axis)],
            ["unavailable", "constant", "increasing", "decreasing"],
            "mixed",
        )
        found = set(slice_labels.ravel().tolist())
        labels[name] = found.pop() if len(found) == 1 else "mixed"
    return labels
