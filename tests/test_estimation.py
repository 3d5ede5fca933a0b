"""Estimator tests: peak extraction, likelihood fits, information bounds."""

import itertools
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.signal import find_peaks
from scipy.special import wofz, xlogy

from qwkt import (
    BiphotonSource,
    ConfigurationError,
    DelayProfile,
    DetectionModel,
    EstimationError,
    FrequencyGrid,
    InputDataError,
    MalformedSpectrumError,
    OutcomeTable,
    QuadratureError,
    SpectralPattern,
    TemporalGrid,
    default_frequency_grid,
    extract_delays,
    fisher_information,
    joint_spectral_intensity,
    mle_fit,
    outcome_probabilities,
    quantum_fisher_information,
    sample_counts,
    sweep,
)
from qwkt import estimation
from qwkt.biphoton import _fringe, _layer_rows
from qwkt.estimation import (
    _BLOCK_TERMS,
    _MAX_TERMS,
    _SWEEP_AXES,
    SweepCell,
    _faddeeva,
    _find_peaks,
    _Likelihood,
    _monotonicity,
    _newton_ascent,
    _observed_information_errors,
    _start,
)

SRC = BiphotonSource.from_bandwidth(10e-9)
SIGMA = SRC.sigma_spectral
FOUR_SIGMA_SQ = 4.0 * SIGMA**2


def _ideal_pattern(profile, n_bins=4096, span_sd=6.0):
    grid = FrequencyGrid(omega_max=span_sd * 2.0 * SIGMA, n_bins=n_bins)
    return SpectralPattern(grid, joint_spectral_intensity(SRC, profile, grid.values))


# ---------------------------------------------------------------- extraction


def test_extract_single_delays_within_one_grid_step():
    pattern = _ideal_pattern(DelayProfile.single(1e-13))
    step = extract_delays(pattern, SRC).grid_resolution
    lo = 5.0 / SRC.delta_temporal
    hi = 0.8 * math.pi / (2.0 * SIGMA * 6.0 / 2048)  # stay well inside the window
    for tau in np.linspace(max(lo, 8e-14), 6e-13, 9):
        report = extract_delays(_ideal_pattern(DelayProfile.single(float(tau))), SRC)
        assert len(report.taus) == 1
        assert abs(report.taus[0] - tau) <= step, f"tau={tau}"
        assert report.weights[0] == pytest.approx(1.0, abs=0.05)


def test_extract_two_layers():
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (2.67e-13, 0.5)])
    report = extract_delays(_ideal_pattern(prof), SRC)
    assert len(report.taus) == 2
    assert abs(report.taus[0] - 1.2e-13) <= report.grid_resolution
    assert abs(report.taus[1] - 2.67e-13) <= report.grid_resolution
    assert report.weights[0] == pytest.approx(0.5, abs=0.05)
    assert sum(report.weights) == pytest.approx(1.0, rel=1e-12)


def test_extract_flags_short_delay_ambiguity():
    tau = 0.5 / SRC.delta_temporal  # buried in the main correlation peak
    report = extract_delays(_ideal_pattern(DelayProfile.single(tau)), SRC)
    assert report.ambiguity_flag


@settings(max_examples=60, deadline=None)
@given(
    tau_delta=st.floats(0.2, 8.0),
    n_bins=st.sampled_from([256, 4096]),
    span_sd=st.sampled_from([6.0, 9.0]),
)
def test_extract_near_main_peak_is_flagged_or_right(tau_delta, n_bins, span_sd):
    # a side peak merging into the main correlation peak must not come back
    # as a confident wrong delay
    tau = tau_delta / SRC.delta_temporal
    report = extract_delays(_ideal_pattern(DelayProfile.single(tau), n_bins, span_sd), SRC)
    if not report.ambiguity_flag:
        assert len(report.taus) == 1
        assert abs(report.taus[0] - tau) <= report.grid_resolution


def test_extract_rejects_malformed_spectrum():
    grid = FrequencyGrid(omega_max=6.0 * 2.0 * SIGMA, n_bins=1024)
    # a single hot bin inverts to a flat |R|, so the dominant sample sits
    # at the window edge instead of zero delay
    values = np.zeros(grid.n_bins)
    values[700] = 1.0
    with pytest.raises(MalformedSpectrumError):
        extract_delays(SpectralPattern(grid, values), SRC)


def test_extract_threshold_validation():
    pattern = _ideal_pattern(DelayProfile.single(2e-13))
    with pytest.raises(ConfigurationError):
        extract_delays(pattern, SRC, threshold=0.0)
    with pytest.raises(ConfigurationError):
        extract_delays(pattern, SRC, threshold=1.0)
    with pytest.raises(ConfigurationError):
        extract_delays(pattern, SRC, threshold=math.nan)
    with pytest.raises(ConfigurationError):
        extract_delays(pattern, SRC, min_separation=0)


def test_extract_works_on_counts_spectra():
    prof = DelayProfile.single(2e-13)
    grid = FrequencyGrid(omega_max=6.0 * 2.0 * SIGMA, n_bins=1024)
    model = DetectionModel(grid, variant="two-port")
    table = outcome_probabilities(model, SRC, prof)
    counts = sample_counts(table, 2_000_000, seed=3)
    pattern = SpectralPattern(grid, counts.counts_coincidence.astype(float), kind="counts")
    report = extract_delays(pattern, SRC)
    assert abs(report.taus[0] - 2e-13) <= 2.0 * report.grid_resolution


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 200),
    integers=st.booleans(),
    distance=st.integers(1, 6),
    level=st.sampled_from(["below", "inside", "above"]),
)
def test_find_peaks_matches_scipy(seed, n, integers, distance, level):
    # small integers make plateaus and equal heights; an "inside" height is
    # one of the samples, so some peaks sit exactly on it
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, n).astype(float) if integers else rng.standard_normal(n)
    height = {"below": x.min() - 1.0, "inside": x[seed % n], "above": x.max() + 1.0}[level]
    expected = find_peaks(x, height=height, distance=distance)[0]
    np.testing.assert_array_equal(_find_peaks(x, height, distance), expected)


# ----------------------------------------------------------------- likelihood


def _counts_table(prof, n_trials, seed, gamma=0.0, alpha=1.0, variant="two-port", n_bins=256):
    grid = FrequencyGrid(omega_max=6.0 * 2.0 * SIGMA, n_bins=n_bins)
    model = DetectionModel(grid, gamma=gamma, alpha=alpha, variant=variant)
    table = outcome_probabilities(model, SRC, prof)
    return sample_counts(table, n_trials, seed=seed), model


def _scale(k):
    """``mle_fit``'s balance of Newton's coordinates: delays in temporal widths."""
    return np.concatenate([np.full(k, 1.0 / SRC.delta_temporal), np.ones(k - 1)])


def _values(like, taus, weights):
    """Log-likelihood of each row of (B, k) delays and weights, valued as
    ``score`` values one candidate, in one pass over the rows' fringes, the
    cosines computed once per distinct delay vector."""
    out = np.empty(taus.shape[0])
    for delays in np.unique(taus, axis=0):
        rows = np.all(taus == delays, axis=1)
        cos = next(_layer_rows(delays, like.phi, like.omega))
        fringes = np.array([_fringe(a, cos) for a in weights[rows]])
        out[rows] = like._value(like._probabilities(fringes))
    return out


def _profile_delays(grid):
    """The delays a fit start profiles: the temporal grid's own, (j + 1/2) dt,
    below 2 t_max, and the centres of quarter steps below 3 / delta_temporal."""
    dt, n = TemporalGrid.conjugate_of(grid).delta_t, grid.n_bins
    limit = 3.0 / (SRC.delta_temporal * (dt / 8.0))  # in eighths of a step
    near = [(i + 0.5) * dt / 4.0 for i in range(4 * n) if 2 * i + 1 < limit]
    return np.array(sorted([(j + 0.5) * dt for j in range(n)] + near))


def test_mle_single_layer_recovers_delay():
    tau = 2e-13
    counts, model = _counts_table(DelayProfile.single(tau), 1_000_000, seed=0)
    fit = mle_fit(counts, model, SRC, k_layers=1)
    assert fit.converged
    tau_hat, w_hat = fit.layers[0]
    assert w_hat == pytest.approx(1.0, abs=1e-9)
    assert abs(tau_hat - tau) <= 10.0 * fit.stderr_tau[0]
    assert fit.stderr_tau[0] < 1e-15  # a million trials pin the delay hard


def test_mle_two_layers_recovers_both():
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (2.0e-13, 0.5)])
    counts, model = _counts_table(prof, 1_000_000, seed=1)
    fit = mle_fit(counts, model, SRC, k_layers=2)
    assert fit.converged
    assert math.isfinite(fit.log_likelihood)
    taus = [lay[0] for lay in fit.layers]
    weights = [lay[1] for lay in fit.layers]
    assert abs(taus[0] - 1.2e-13) <= 10.0 * fit.stderr_tau[0]
    assert abs(taus[1] - 2.0e-13) <= 10.0 * fit.stderr_tau[1]
    assert weights[0] == pytest.approx(0.5, abs=10.0 * fit.stderr_weight[0])
    assert sum(weights) == pytest.approx(1.0, rel=1e-9)
    assert all(math.isfinite(e) for e in fit.stderr_tau + fit.stderr_weight)
    assert 1.0 <= fit.hessian_condition < math.inf
    assert fit.evaluations < 21  # both peaks pinned: Newton steps only, nothing profiled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mle_surplus_layer_reports_nan_errors(seed):
    # two layers fitted to one-layer data split it at one delay; the split
    # is not identified, the observed information is not positive definite,
    # and the standard errors say so instead of reading ~1e-16 s
    counts, model = _counts_table(DelayProfile.single(2e-13), 1_000_000, seed=seed)
    single = mle_fit(counts, model, SRC, k_layers=1)
    fit = mle_fit(counts, model, SRC, k_layers=2)
    assert all(math.isnan(e) for e in fit.stderr_tau + fit.stderr_weight)
    assert math.isfinite(fit.hessian_condition)
    assert fit.log_likelihood == pytest.approx(single.log_likelihood, abs=1e-5)


def test_mle_true_parameters_beat_perturbed_start():
    # the fitted likelihood must be at least as good as the one at a
    # deliberately offset initialization
    tau = 1.5e-13
    counts, model = _counts_table(DelayProfile.single(tau), 200_000, seed=7)
    fit = mle_fit(counts, model, SRC, k_layers=1)
    like = _Likelihood(counts, model, SRC, 0.0)
    taus, weights, _ = _start(like, counts, SRC, 1, [(tau * 1.3, 1.0)])
    off = _newton_ascent(like, taus, weights, _scale(1), 1)[2]  # one Newton step
    assert fit.log_likelihood >= off - 1e-6


def test_mle_accepts_peak_report_init():
    prof = DelayProfile.single(2.5e-13)
    counts, model = _counts_table(prof, 500_000, seed=9)
    pattern = SpectralPattern(
        counts.grid, counts.counts_coincidence.astype(float), kind="counts"
    )
    report = extract_delays(pattern, SRC)
    fit = mle_fit(counts, model, SRC, k_layers=1, init=report)
    assert abs(fit.layers[0][0] - 2.5e-13) <= 10.0 * fit.stderr_tau[0]


def test_initial_layers_keep_the_strongest_peaks():
    # a one-layer fit of a two-layer spectrum starts from the stronger
    # peak, here the later one, pinned and with all the weight
    prof = DelayProfile.normalized([(2e-13, 0.3), (4e-13, 0.7)])
    counts, model = _counts_table(prof, 1_000_000, seed=0)
    taus, weights, profiled = _start(_Likelihood(counts, model, SRC, 0.0), counts, SRC, 1, None)
    assert profiled == 0 and taus.size == 1  # the peak is the start, nothing profiled
    assert abs(taus[0] - 4e-13) < 2e-14
    assert weights[0] == 1.0


def test_mle_trinomial_variant():
    tau = 2e-13
    counts, model = _counts_table(
        DelayProfile.single(tau), 20_000, seed=2, gamma=0.2, alpha=0.9, variant="trinomial", n_bins=64
    )
    fit = mle_fit(counts, model, SRC, k_layers=1)
    assert abs(fit.layers[0][0] - tau) <= 10.0 * fit.stderr_tau[0]


def test_mle_pair_only_trinomial_table():
    # a table holding only the pair-detection channel still fits through
    # the per-bin binomial marginal
    tau = 2e-13
    counts, model = _counts_table(
        DelayProfile.single(tau), 20_000, seed=4, gamma=0.1, variant="trinomial", n_bins=64
    )
    partial = OutcomeTable(
        variant="trinomial",
        grid=counts.grid,
        counts_coincidence=counts.counts_coincidence,
        n_trials=counts.n_trials,
    )
    fit = mle_fit(partial, model, SRC, k_layers=1)
    assert abs(fit.layers[0][0] - tau) <= 10.0 * fit.stderr_tau[0]


def test_mle_pair_only_trial_count_comes_from_table():
    # the pair-only binomial takes its trial count from the table, so the
    # model's own n_trials cannot bias the fit
    counts, _ = _counts_table(
        DelayProfile.single(2e-13), 20_000, seed=4, gamma=0.1, variant="trinomial", n_bins=64
    )
    partial = OutcomeTable(
        variant="trinomial",
        grid=counts.grid,
        counts_coincidence=counts.counts_coincidence,
        n_trials=counts.n_trials,
    )

    def fitted_tau(model_trials):
        model = DetectionModel(counts.grid, gamma=0.1, n_trials=model_trials, variant="trinomial")
        return mle_fit(partial, model, SRC, k_layers=1).layers[0][0]

    assert fitted_tau(1) == fitted_tau(20_000)


def test_mle_pair_only_rejects_trials_below_pair_counts():
    # with fewer trials than a bin's pairs the binomial's N - n goes
    # negative; 2,000 trials on this 20,000-trial table read 200.87 fs
    counts, model = _counts_table(
        DelayProfile.single(2e-13), 20_000, seed=3, variant="trinomial", n_bins=64
    )
    assert np.max(counts.counts_coincidence) > 2_000
    partial = OutcomeTable(
        variant="trinomial",
        grid=counts.grid,
        counts_coincidence=counts.counts_coincidence,
        n_trials=2_000,
    )
    with pytest.raises(InputDataError, match="2000 trials"):
        mle_fit(partial, model, SRC, k_layers=1)


def _full_scan_fit(counts, model, k):
    """Log-likelihood of the fit as it was before peak seeding, kept as an
    oracle: from the start layers, a 21-point scan of every parameter in
    (delay x delta, weight logit) coordinates, +/-10 grid steps and +/-2
    logits, Cartesian up to three parameters and two passes of coordinate
    sweeps beyond, then the same Newton ascent."""
    like = _Likelihood(counts, model, SRC, 0.0)
    delta = SRC.delta_temporal
    taus0, weights0, _ = _start(like, counts, SRC, k, None)

    def unpack(thetas):
        z = np.concatenate([thetas[:, k:], np.zeros((thetas.shape[0], 1))], axis=1)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return thetas[:, :k] / delta, e / e.sum(axis=1, keepdims=True)

    theta0 = np.concatenate(
        [taus0 * delta, np.log(np.maximum(weights0[:-1], 1e-6) / max(weights0[-1], 1e-6))]
    )
    span = 10.0 * TemporalGrid.conjugate_of(counts.grid).delta_t * delta
    axes = [np.linspace(theta0[i] - span, theta0[i] + span, 21) for i in range(k)]
    axes += [np.linspace(theta0[i] - 2.0, theta0[i] + 2.0, 21) for i in range(k, 2 * k - 1)]
    best = [theta0, _values(like, *unpack(theta0[None]))[0]]

    def scan(rows):
        values = _values(like, *unpack(rows))
        i = int(np.argmax(values))
        if values[i] > best[1]:
            best[:] = rows[i].copy(), values[i]

    if len(axes) <= 3:
        scan(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes)))
    else:
        for _ in range(2):
            for i, axis in enumerate(axes):
                rows = np.tile(best[0], (axis.size, 1))
                rows[:, i] = axis
                scan(rows)
    taus, weights = (rows[0] for rows in unpack(best[0][None]))
    return _newton_ascent(like, taus, weights, _scale(k), 500)[2]


@st.composite
def _resolvable_cases(draw):
    """Counts of 1-3 layers at 256 bins, each past the main peak's overlap
    and at least nine grid steps (3.3 temporal widths) from the next, all
    inside t_max, under either variant."""
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=256)
    dt = TemporalGrid.conjugate_of(grid).delta_t
    steps = [draw(st.floats(10.0, 40.0))]
    for _ in range(draw(st.integers(0, 2))):
        steps.append(steps[-1] + draw(st.floats(9.0, 40.0)))
    raw = draw(st.lists(st.floats(0.2, 1.0), min_size=len(steps), max_size=len(steps)))
    profile = DelayProfile.normalized([(i * dt, w) for i, w in zip(steps, raw)])
    variant = draw(st.sampled_from(["two-port", "trinomial"]))
    trials = 100_000 if variant == "two-port" else 1_000
    model = DetectionModel(
        grid, gamma=draw(st.floats(0.0, 0.3)), alpha=draw(st.floats(0.8, 1.0)),
        n_trials=trials, variant=variant,
    )
    table = outcome_probabilities(model, SRC, profile)
    counts = sample_counts(table, trials, seed=draw(st.integers(0, 2**32 - 1)))
    return model, profile, counts


@settings(max_examples=20, deadline=None)
@given(case=_resolvable_cases(), complete=st.booleans())
def test_mle_matches_full_scan_oracle(case, complete):
    # starting Newton from the peak layers, with only missing layers
    # profiled, ends no lower than the full scan did
    model, profile, counts = case
    if not complete:
        counts = _without_bunch_counts(counts)
    k = len(profile.layers)
    fit = mle_fit(counts, model, SRC, k)
    assert fit.log_likelihood >= _full_scan_fit(counts, model, k) - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_mle_scans_the_padded_layer(seed):
    # 30 fs apart, the pair merges into one side peak; the second layer is
    # missing, and only its delay profile finds the pair
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (1.5e-13, 0.5)])
    counts, model = _counts_table(prof, 100_000, seed=seed)
    pattern = SpectralPattern(counts.grid, counts.counts_coincidence.astype(float), kind="counts")
    assert len(extract_delays(pattern, SRC).delays) == 1
    fit = mle_fit(counts, model, SRC, k_layers=2)
    assert all(math.isfinite(e) for e in fit.stderr_tau + fit.stderr_weight)
    for (tau, _), err, true in zip(fit.layers, fit.stderr_tau, prof.delays):
        assert abs(tau - true) <= 10.0 * err


def test_newton_scores_each_point_once(monkeypatch):
    # the start's delay profile is the only profile caller; Newton values
    # every trial point once, so evaluations is the profiled delays plus the
    # score calls, and forms derivatives only at its start and at each
    # accepted point
    calls = {"rows": 0, "values": 0, "derivatives": 0}
    batch, score = _Likelihood.profile, _Likelihood.score

    def counted_batch(self, taus, weights, weight, delays):
        assert calls["values"] == 0, "profile called after Newton's first score"
        calls["rows"] += delays.size
        return batch(self, taus, weights, weight, delays)

    def counted_score(self, taus, weights, floor=None):
        calls["values"] += 1
        scored = score(self, taus, weights, floor)
        calls["derivatives"] += scored[1] is not None
        return scored

    monkeypatch.setattr(_Likelihood, "profile", counted_batch)
    monkeypatch.setattr(_Likelihood, "score", counted_score)
    pinned = DelayProfile.normalized([(1.2e-13, 0.5), (2.0e-13, 0.5)])
    merged = DelayProfile.normalized([(1.2e-13, 0.5), (1.5e-13, 0.5)])
    rejected = 0
    # both peaks pinned: nothing profiled; one peak for two layers: one profile
    profiled = _profile_delays(FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=256)).size
    for profile, rows in ((pinned, 0), (merged, profiled)):
        for seed in (1, 2, 3):
            calls.update(rows=0, values=0, derivatives=0)
            counts, model = _counts_table(profile, 100_000, seed=seed)
            fit = mle_fit(counts, model, SRC, k_layers=2)
            assert calls["rows"] == rows
            assert fit.iterations >= 1
            assert fit.evaluations == rows + calls["values"]
            assert calls["derivatives"] == 1 + fit.iterations
            rejected += calls["values"] - calls["derivatives"]
    assert rejected > 0  # some trials were valued and turned down


def test_newton_eigh_hand_over_gives_the_fresh_errors(monkeypatch):
    # mle_fit's errors use the eigh that Newton returns; it is, bit for bit,
    # a fresh eigh of the balanced information that score gives at the point
    # returned, or None where that is not finite; the surplus layer's
    # indefinite information (nan errors) included
    newton = estimation._newton_ascent
    seen = []

    def recorded(like, taus, weights, scale, max_iterations):
        out = newton(like, taus, weights, scale, max_iterations)
        seen.append((like, scale, out))
        return out

    monkeypatch.setattr(estimation, "_newton_ascent", recorded)
    profiles = [DelayProfile.single(2e-13), DelayProfile.normalized([(1.2e-13, 0.5), (2e-13, 0.5)])]
    for variant, n_bins, profile, gamma, seed, phi in itertools.product(
        ("two-port", "trinomial"), (64, 256), profiles, (0.0, 0.1), (0, 1), (0.0, 0.7)
    ):
        n_trials = 2_000 if variant == "trinomial" else 100_000
        grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=n_bins)
        model = DetectionModel(grid, gamma=gamma, alpha=0.95, n_trials=n_trials, variant=variant)
        table = outcome_probabilities(model, SRC, profile, phi)
        complete = sample_counts(table, n_trials, seed=seed)
        reduced = OutcomeTable(variant=variant, grid=grid, n_trials=complete.n_trials,
                               counts_coincidence=complete.counts_coincidence)
        for counts, k in itertools.product((complete, reduced), (1, 2)):
            mle_fit(counts, model, SRC, k, phi=phi)
    assert len(seen) == 256
    indefinite = 0
    for like, scale, (taus, weights, _, _, _, _, eig) in seen:
        info = -like.score(taus, weights)[2] * np.outer(scale, scale)
        if not np.all(np.isfinite(info)):
            assert eig is None
            continue
        fresh = np.linalg.eigh(info)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(eig, fresh))
        indefinite += not eig[0][0] > 0.0
    assert indefinite > 0  # the surplus layer's nan errors


def _profile_reference(like, counts, k, init):
    """``_start`` delay by delay: the peak report or the caller's list as given,
    then each missing layer's candidates, every delay of ``_profile_delays``
    valued alone by ``score`` with the m-th layer at 1/m of the weight, and
    the first best kept. Returns the delays and weights and the delays valued."""
    if init is None:
        pattern = SpectralPattern(counts.grid, counts.counts_coincidence.astype(float),
                                  kind="counts")
        init = [(t, a) for t, a, _ in extract_delays(pattern, SRC).delays]
    taus, weights = (np.array(column) for column in zip(*sorted(init)))
    weights = weights / np.sum(weights)
    delays, valued = _profile_delays(counts.grid), 0
    for m in range(taus.size + 1, k + 1):
        held = np.append((1.0 - 1.0 / m) * weights, 1.0 / m)
        values = [like.score(np.append(taus, d), held, math.inf)[0] for d in delays]
        taus, weights = np.append(taus, delays[np.argmax(values)]), held
        valued += len(values)
    return taus, weights, valued


@pytest.mark.parametrize(
    "variant, complete, phi, n_bins, k, init, trials",
    [
        (variant, complete, phi, 256, k, init, 100_000 if variant == "two-port" else 1_000)
        for variant in ("two-port", "trinomial")
        for complete in (True, False)
        for phi in (0.0, 0.7 - math.pi)
        for k, init in ((1, [(2.3e-13, 1.0)]), (2, None), (3, None))
    ]
    # the profile at 4096 bins spans chunks of 2 rows; with 300 trials the
    # delays value within a few units of each other
    + [("two-port", True, 0.0, 4096, 2, None, 100_000),
       ("two-port", True, 0.0, 64, 3, [(2.3e-13, 1.0)], 300)],
)
def test_scan_picks_the_first_best_row(variant, complete, phi, n_bins, k, init, trials):
    # _start starts from the caller's list or the one peak as given, and
    # places each missing layer (one for k = 2, two for k = 3) at the first
    # best delay of its profile, as every delay valued alone picks it
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=n_bins)
    model = DetectionModel(grid, gamma=0.1, alpha=0.95, n_trials=trials, variant=variant)
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13), phi)
    counts = sample_counts(table, trials, seed=7)
    if not complete:
        counts = OutcomeTable(variant, grid, counts_coincidence=counts.counts_coincidence)
    like = _Likelihood(counts, model, SRC, phi)
    taus, weights, profiled = _start(like, counts, SRC, k, init)
    expected_taus, expected_weights, valued = _profile_reference(like, counts, k, init)
    assert profiled == valued == (k - 1) * _profile_delays(grid).size
    assert taus.tolist() == expected_taus.tolist()
    assert weights.tolist() == expected_weights.tolist()


@pytest.mark.parametrize(
    "init",
    [[(1e-13, 0.0)], [(math.nan, 1.0)], [(math.inf, 1.0)], [(1e-13, math.inf)],
     [(1e-13, -1.0), (2e-13, 2.0)], [(-0.5e-12, 1.0)]],
    ids=["zero-weight", "nan-delay", "inf-delay", "inf-weight", "negative-weight",
         "negative-delay"],
)
def test_mle_rejects_invalid_init(init):
    # a zero total weight divided by zero; nan or inf layers fitted to nan; a
    # -0.5 ps delay was fitted to -500.02 +/- 0.023 fs, converged
    counts, model = _counts_table(DelayProfile.single(2e-13), 10_000, seed=0)
    with pytest.raises(ConfigurationError, match="init"):
        mle_fit(counts, model, SRC, k_layers=len(init), init=init)


def test_mle_validates_inputs():
    counts, model = _counts_table(DelayProfile.single(2e-13), 10_000, seed=0, n_bins=64)
    with pytest.raises(ConfigurationError):
        mle_fit(counts, model, SRC, k_layers=0)
    with pytest.raises(ConfigurationError):
        mle_fit(counts, model, SRC, k_layers=5)
    other = DetectionModel(counts.grid, variant="trinomial")
    with pytest.raises(ConfigurationError):
        mle_fit(counts, other, SRC, k_layers=1)
    # a model on 10 sigma fitted a 12 sigma table about 40 stderr off
    elsewhere = DetectionModel(FrequencyGrid(omega_max=10.0 * SIGMA, n_bins=64))
    with pytest.raises(ConfigurationError, match="grids"):
        mle_fit(counts, elsewhere, SRC, k_layers=1)
    # a table of probabilities only, and one whose counts are all zero
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    with pytest.raises(InputDataError, match="holds no counts"):
        mle_fit(table, model, SRC, k_layers=1)
    zero = OutcomeTable("two-port", counts.grid, counts_coincidence=np.zeros(64))
    with pytest.raises(InputDataError, match="zero total counts"):
        mle_fit(zero, model, SRC, k_layers=1)


@pytest.mark.parametrize("bad", [-5000.0, math.nan, math.inf, 2.5])
@pytest.mark.parametrize("init", [None, [(0.5e-12, 1.0)]])
@pytest.mark.parametrize("block", ["counts_coincidence", "counts_bunching", "counts_single",
                                   "counts_none"])
def test_mle_refuses_a_negative_or_non_finite_count(block, init, bad):
    # with a caller's init, a coincidence bin of -5000 was fitted here to
    # 500.37 +/- 0.018 fs (20 stderr off), converged; a nan raised a bare
    # ValueError from total_counts and an inf an OverflowError, whatever the init;
    # a count of 2.5 was refused with init None only (by extract_delays' spectrum)
    counts, model = _counts_table(DelayProfile.single(0.5e-12), 1_000_000, seed=0)
    values = np.array(getattr(counts, block), dtype=float)
    values.flat[min(100, values.size - 1)] = bad
    message = "integer values" if bad == 2.5 else "negative or non-finite"
    with pytest.raises(InputDataError, match=message):
        mle_fit(replace(counts, **{block: values}), model, SRC, k_layers=1, init=init)


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(["two-port", "trinomial"]),
    n_bins=st.sampled_from([64, 256]),
    phi=st.floats(-math.pi, math.pi),
    first=st.floats(0.0, 3.0),
    second=st.none() | st.floats(6.0, 30.0),
    complete=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(variant="two-port", n_bins=256, phi=0.0, first=0.55, second=None, complete=False, seed=3)
def test_mle_never_reports_a_negative_delay(variant, n_bins, phi, first, second, complete, seed):
    # first and second are delays in grid steps, the first within 3 of zero; at
    # 5-7 fs (10 nm, 256 bins) Newton once crossed zero and wrote a negative delay
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=n_bins)
    dt = TemporalGrid.conjugate_of(grid).delta_t
    layers = [(first * dt, 1.0)] + ([] if second is None else [(second * dt, 0.5)])
    trials = 100_000 if variant == "two-port" else 1_000
    model = DetectionModel(grid, gamma=0.1, alpha=0.95, n_trials=trials, variant=variant)
    table = outcome_probabilities(model, SRC, DelayProfile.normalized(layers), phi)
    counts = sample_counts(table, trials, seed=seed)
    if not complete:
        counts = _without_bunch_counts(counts)
    fit = mle_fit(counts, model, SRC, len(layers), phi=phi)
    assert all(tau > 0.0 for tau, _ in fit.layers)


def test_last_weight_stderr_is_nan_where_its_variance_rounds_below_zero():
    # a k = 3 information barely positive definite (smallest eigenvalue
    # 1e-11): the last weight's variance sums entries of size 5e10 to -7.6e-6,
    # where math.sqrt raised ValueError, and the CLI exited 2
    a, b = 0.707106781186547, 0.707106781186548
    vec = np.zeros((5, 5))
    vec[0, 1] = vec[1, 2] = vec[2, 3] = 1.0
    vec[3:, 0], vec[3:, 4] = (a, -b), (b, a)
    lam = np.array([1e-11, 1.0, 1.0, 1.0, 1e280])
    stderr_tau, stderr_weight, _ = _observed_information_errors((lam, vec), np.ones(5))
    assert stderr_tau.tolist() == [1.0, 1.0, 1.0]
    assert np.all(np.isfinite(stderr_weight[:-1])) and math.isnan(stderr_weight[-1])


# -------------------------------------------------- shared forward model

_PROPERTY_TRIALS = 10_000


@st.composite
def _model_cases(draw, bins=(64, 4096), alphas=st.floats(0.0, 1.0)):
    """A detection model, a 1-4 layer profile inside the grid's Nyquist
    range, a fringe phase, and counts sampled from that model."""
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=draw(st.sampled_from(bins)))
    t_max = TemporalGrid.conjugate_of(grid).t_max
    steps = draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(steps), max_size=len(steps)))
    profile = DelayProfile.normalized([(i * t_max / 1000.0, w) for i, w in zip(steps, raw)])
    model = DetectionModel(
        grid,
        gamma=draw(st.floats(0.0, 0.9)),
        alpha=draw(alphas),
        n_trials=_PROPERTY_TRIALS,
        variant=draw(st.sampled_from(["two-port", "trinomial"])),
    )
    phi = draw(st.floats(-math.pi, math.pi))
    return _sampled_case(model, profile, phi, draw(st.integers(0, 2**32 - 1)))


def _sampled_case(model, profile, phi, seed):
    """A ``_model_cases`` draw: the model, profile and phase, and counts
    sampled from them with ``seed``."""
    table = outcome_probabilities(model, SRC, profile, phi)
    return model, profile, phi, sample_counts(table, _PROPERTY_TRIALS, seed=seed)


def _without_bunch_counts(counts):
    """The anti-bunch (or pair) counts alone: the conditioned two-port or
    the pair-only trinomial likelihood. A single layer at zero delay with
    unit visibility has no anti-bunch mass, and an empty table has no
    likelihood (``_Likelihood`` rejects it), so such draws are discarded."""
    assume(np.any(counts.counts_coincidence))
    return OutcomeTable(
        variant=counts.variant, grid=counts.grid, counts_coincidence=counts.counts_coincidence
    )


# the count tables a fit may see: every block, the per-bin blocks only, or
# the anti-bunch (pair) block only
_TABLE_SHAPES = ("complete", "per-bin", "anti-only")


def _observed_table(counts, shape):
    """``counts`` cut to ``shape``. "per-bin" drops the blocks that are
    not per-bin: two-port keeps anti-bunch plus bunch counts (conditioned
    on those two blocks), trinomial keeps pair plus single counts (the
    pair-only binomial with the table's trial count)."""
    if shape == "anti-only":
        return _without_bunch_counts(counts)
    if shape == "per-bin":
        per_bin_single = counts.counts_single if counts.variant == "trinomial" else None
        return replace(counts, counts_single=per_bin_single, counts_none=None)
    return counts


@settings(max_examples=60, deadline=None)
@given(case=_model_cases(), shape=st.sampled_from(_TABLE_SHAPES))
def test_likelihood_row_is_outcome_table_log_probability(case, shape):
    # closed forms: the complete table's log-probability; two-port blocks
    # conditioned on their probability mass M, sum n log(p / M); and the
    # trinomial pairs' binomial, sum n log p + (N - n) log(1 - p)
    model, profile, phi, table = case
    counts = _observed_table(table, shape)
    assume(counts.total_counts() > 0)
    like = _Likelihood(counts, model, SRC, phi)
    got = like.score(profile.delays, profile.weights, math.inf)[0]
    blocks = [
        (n, p)
        for n, p in (
            (counts.counts_coincidence, table.coincidence),
            (counts.counts_bunching, table.bunching),
            (counts.counts_single, table.single_click),
            (counts.counts_none, table.no_click),
        )
        if n is not None
    ]
    if shape == "complete":
        expected = sum(float(np.sum(xlogy(n, p))) for n, p in blocks)
    elif model.variant == "two-port":
        mass = sum(float(np.sum(p)) for _, p in blocks)
        expected = sum(float(np.sum(xlogy(n, p / mass))) for n, p in blocks)
    else:
        n, p = blocks[0]
        expected = float(np.sum(xlogy(n, p) + xlogy(_PROPERTY_TRIALS - n, 1.0 - p)))
    assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    case=_model_cases(),
    shape=st.sampled_from(_TABLE_SHAPES),
    n_delays=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_profile_values_each_delay_as_score_does(case, shape, n_delays, seed):
    # the profile adds the case's last layer at each delay beside the others
    # held; up to 300 delays span several chunks at either grid size
    model, profile, phi, counts = case
    counts = _observed_table(counts, shape)
    assume(counts.total_counts() > 0)
    like = _Likelihood(counts, model, SRC, phi)
    weight = profile.weights[-1]
    held_taus, held_weights = profile.delays[:-1], profile.weights[:-1] / (1.0 - weight)
    t_max = TemporalGrid.conjugate_of(counts.grid).t_max
    delays = np.random.default_rng(seed).uniform(0.0, 2.0 * t_max, n_delays)
    got = like.profile(held_taus, held_weights, weight, delays)
    weights = np.append((1.0 - weight) * held_weights, weight)
    expected = [like.score(np.append(held_taus, d), weights, math.inf)[0] for d in delays]
    assert got.shape == (n_delays,)
    assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    case=_model_cases(),
    shape=st.sampled_from(_TABLE_SHAPES),
    n_rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_likelihood_batch_equals_single_rows(case, shape, n_rows, seed):
    # one profile call over n_rows delays against one call per delay
    model, profile, phi, counts = case
    counts = _observed_table(counts, shape)
    assume(counts.total_counts() > 0)
    like = _Likelihood(counts, model, SRC, phi)
    rng = np.random.default_rng(seed)
    k = len(profile.layers)
    t_max = TemporalGrid.conjugate_of(counts.grid).t_max
    taus = rng.uniform(0.0, t_max, k)
    weights = rng.dirichlet(np.ones(k))
    weight = rng.uniform(0.05, 0.95)
    delays = rng.uniform(0.0, 2.0 * t_max, n_rows)
    batch = like.profile(taus, weights, weight, delays)
    singles = [like.profile(taus, weights, weight, delays[i : i + 1])[0] for i in range(n_rows)]
    assert batch == pytest.approx(singles, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    case=_model_cases(),
    complete=st.booleans(),
    phi=st.sampled_from([0.0, 0.7 - math.pi]),
)
def test_likelihood_product_batch_equals_single_rows_exactly(case, complete, phi):
    # 7 held delays x 7 added weights, each profiled at 7 added delays: at
    # 4096 bins the delays split across chunks of 2 rows
    model, profile, _, counts = case
    if not complete:
        counts = _without_bunch_counts(counts)
    like = _Likelihood(counts, model, SRC, phi)
    dt = TemporalGrid.conjugate_of(counts.grid).delta_t
    tau0 = profile.delays[0] + dt * np.linspace(-3.0, 3.0, 7)
    tau1 = profile.delays[-1] + 10.0 * dt + dt * np.linspace(-3.0, 3.0, 7)
    for held, weight in itertools.product(tau0, np.linspace(0.1, 0.9, 7)):
        held = np.array([held])
        batch = like.profile(held, np.ones(1), weight, tau1)
        singles = [like.profile(held, np.ones(1), weight, tau1[i : i + 1])[0] for i in range(7)]
        assert np.array_equal(batch, singles)


def _central_differences(like, x0, k, h):
    """Gradient and Hessian of the log-likelihood at the natural point
    ``x0`` (k delays, first k-1 weights) by fourth-order central
    differences with steps ``h``, the stencil points grouped by delay
    vector; the gradient is Richardson-extrapolated from steps h and 2h."""
    d = x0.size
    unit = np.diag(h)
    offsets = [m * unit[i] for i in range(d) for m in (1, -1, 2, -2, 4, -4)]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    offsets += [
        m * (a * unit[i] + b * unit[j])
        for i, j in pairs for m in (1, 2) for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    points = x0 + np.array([np.zeros(d), *offsets])
    weights = np.column_stack([points[:, k:], 1.0 - np.sum(points[:, k:], axis=1)])
    f = _values(like, points[:, :k], weights)
    f0, axis, mixed = f[0], f[1 : 1 + 6 * d].reshape(d, 6), f[1 + 6 * d :].reshape(-1, 2, 4)
    # the five-point differences at steps h and 2h, and their extrapolation
    g_near = (8.0 * (axis[:, 0] - axis[:, 1]) - (axis[:, 2] - axis[:, 3])) / (12.0 * h)
    g_far = (8.0 * (axis[:, 2] - axis[:, 3]) - (axis[:, 4] - axis[:, 5])) / (24.0 * h)
    gradient = (16.0 * g_near - g_far) / 15.0
    hessian = np.diag(
        (16.0 * (axis[:, 0] + axis[:, 1]) - (axis[:, 2] + axis[:, 3]) - 30.0 * f0) / (12.0 * h * h)
    )
    for (i, j), (near, far) in zip(pairs, mixed):
        # Richardson extrapolation of the four-point mixed difference
        d_near = (near[0] - near[1] - near[2] + near[3]) / (4.0 * h[i] * h[j])
        d_far = (far[0] - far[1] - far[2] + far[3]) / (16.0 * h[i] * h[j])
        hessian[i, j] = hessian[j, i] = (4.0 * d_near - d_far) / 3.0
    return gradient, hessian


@settings(max_examples=40, deadline=None)
@given(
    # every bracket >= 0.1, so no bin's log probability turns too fast for
    # the difference steps
    case=_model_cases(alphas=st.floats(0.3, 0.9)),
    shape=st.sampled_from(_TABLE_SHAPES),
    phi=st.sampled_from([0.0, 0.7 - math.pi]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # one layer at zero delay: the five-point gradient alone was 1.24e-6 off
    case=_sampled_case(
        DetectionModel(FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64), gamma=0.0,
                       alpha=0.8999999999999999, n_trials=_PROPERTY_TRIALS),
        DelayProfile.normalized([(0.0, 1.0)]), 0.0, 0,
    ),
    shape="complete", phi=0.0, seed=0,
)
def test_score_matches_central_differences(case, shape, phi, seed):
    # all four likelihoods: two-port complete, or conditioned on the mass of
    # its per-bin blocks or of the anti-bunch block; trinomial complete or
    # pair-only (binomial), with or without the single counts beside it
    model, profile, _, counts = case
    counts = _observed_table(counts, shape)
    assume(counts.total_counts() > 0)
    like = _Likelihood(counts, model, SRC, phi)
    rng = np.random.default_rng(seed)
    k = len(profile.layers)
    delta = SRC.delta_temporal
    taus = profile.delays + rng.normal(0.0, 0.3, k) / delta
    head = (0.8 * profile.weights + 0.2 * rng.dirichlet(np.ones(k)))[:-1]
    weights = np.append(head, 1.0 - np.sum(head))
    value, gradient, hessian = like.score(taus, weights)
    assert value == _values(like, taus[None], weights[None])[0]

    scale = np.concatenate([np.full(k, 1.0 / delta), np.ones(k - 1)])
    balance = np.outer(scale, scale)
    # the differences resolve the Hessian only above the rounding of the
    # log-likelihood, ~1e-9 |L| at these steps (near zero delay, or at low
    # visibility, the data carry too little delay information)
    assume(np.max(np.abs(hessian * balance)) >= 1e-2 * abs(value))
    expected_gradient, expected_hessian = _central_differences(
        like, np.concatenate([taus, head]), k, 1e-3 * scale
    )
    gradient, expected_gradient = gradient * scale, expected_gradient * scale
    hessian, expected_hessian = hessian * balance, expected_hessian * balance
    assert np.max(np.abs(gradient - expected_gradient)) <= 1e-6 * np.max(np.abs(gradient))
    assert np.max(np.abs(hessian - expected_hessian)) <= 1e-6 * np.max(np.abs(hessian))


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "coincidence-only"])
@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_score_hessian_where_a_block_touches_zero(variant, complete):
    # at unit visibility the phase puts the fringe at exactly +1 (two-port) or
    # -1 (trinomial) in one bin, so the anti-bunch or pair block is exactly 0
    # there while its slope is not: the Hessian is still the model's own
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=256)
    tau, n_trials = 0.3e-12, 10**6 if variant == "two-port" else 2_000
    phi = (0.0 if variant == "two-port" else math.pi) - grid.values[148] * tau
    model = DetectionModel(grid, gamma=0.1, alpha=1.0, n_trials=n_trials, variant=variant)
    table = outcome_probabilities(model, SRC, DelayProfile.normalized([(tau, 1.0)]), phi)
    assert table.coincidence[148] == 0.0
    counts = sample_counts(table, n_trials, seed=1)
    if not complete:  # conditioned two-port; pair-only (binomial) trinomial
        counts = replace(counts, counts_bunching=None, counts_single=None, counts_none=None)
    like = _Likelihood(counts, model, SRC, phi)
    _, gradient, hessian = like.score(np.array([tau]), np.ones(1))
    expected_gradient, expected_hessian = _central_differences(
        like, np.array([tau]), 1, np.array([1e-3 / SRC.delta_temporal])
    )
    assert np.max(np.abs(gradient - expected_gradient)) <= 1e-6 * np.max(np.abs(gradient))
    assert np.max(np.abs(hessian - expected_hessian)) <= 1e-6 * np.max(np.abs(hessian))


@settings(max_examples=40, deadline=None)
@given(case=_model_cases(bins=(64,)), shape=st.sampled_from(_TABLE_SHAPES),
       seed=st.integers(0, 2**32 - 1))
def test_score_at_or_below_its_floor_returns_the_value_alone(case, shape, seed):
    # a trial that does not rise above the floor gets a plain value's bits
    # and no derivatives; one that rises gets the derivatives of a plain score
    model, profile, phi, counts = case
    counts = _observed_table(counts, shape)
    assume(counts.total_counts() > 0)
    like = _Likelihood(counts, model, SRC, phi)
    rng = np.random.default_rng(seed)
    k = len(profile.layers)
    taus = profile.delays + rng.normal(0.0, 0.3, k) / SRC.delta_temporal
    weights = rng.dirichlet(np.ones(k))
    value = _values(like, taus[None], weights[None])[0]
    for floor in (value, np.nextafter(value, math.inf), value + 1.0):
        scored = like.score(taus, weights, floor)
        assert scored[1:] == (None, None)
        assert struct.pack("<d", scored[0]) == struct.pack("<d", value)
    plain = like.score(taus, weights)
    for floor in (np.nextafter(value, -math.inf), -math.inf):
        scored = like.score(taus, weights, floor)
        assert struct.pack("<d", scored[0]) == struct.pack("<d", value)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(scored[1:], plain[1:]))


@settings(max_examples=25, deadline=None)
@given(case=_model_cases(bins=(64,)), shape=st.sampled_from(_TABLE_SHAPES))
def test_newton_steps_only_raise_the_scan_optimum(case, shape):
    # _start places the layers missing from a one-layer list at their delay
    # profiles' best; every Newton step raises it, and 500 steps are mle_fit's
    model, profile, phi, counts = case
    counts = _observed_table(counts, shape)
    assume(counts.total_counts() > 0)
    k = len(profile.layers)
    like = _Likelihood(counts, model, SRC, phi)
    taus, weights, profiled = _start(like, counts, SRC, k, profile.layers[:1])
    # (taus, weights, value, iterations, converged, evaluations, eig) after 0, 1, 500 steps
    fits = [_newton_ascent(like, taus, weights, _scale(k), m) for m in (0, 1, 500)]
    assert fits[0][2] <= fits[1][2] <= fits[2][2]
    assert all(fit[3] <= m for fit, m in zip(fits, (0, 1, 500)))
    assert fits[0][5] <= fits[1][5] <= fits[2][5]
    for fit in fits:
        assert np.sum(fit[1]) == pytest.approx(1.0, rel=1e-9)
        assert np.all(fit[1] > 0.0)
    full = mle_fit(counts, model, SRC, k, init=profile.layers[:1], phi=phi)
    assert (full.log_likelihood, full.evaluations) == (fits[2][2], profiled + fits[2][5])


# ------------------------------------------------------------------- fisher


def test_fisher_ideal_plateau():
    # perfect visibility and no loss: the information rate is 4 sigma^2
    # for any delay past the envelope transient
    model = DetectionModel(FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64))
    for tau in (5e-14, 5e-13, 2e-12):
        rep = fisher_information(SRC, tau, model)
        assert rep.g_omega == pytest.approx(FOUR_SIGMA_SQ, rel=1e-6), f"tau={tau}"


def test_fisher_loss_scales_as_survival():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    clean = fisher_information(SRC, 5e-13, DetectionModel(grid))
    lossy = fisher_information(SRC, 5e-13, DetectionModel(grid, gamma=0.2))
    assert lossy.g_omega / clean.g_omega == pytest.approx(0.64, rel=1e-9)


def test_fisher_partial_visibility_reduces_information():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 5e-13, DetectionModel(grid, alpha=0.9))
    assert rep.g_omega < FOUR_SIGMA_SQ
    assert rep.g_omega > 0.5 * FOUR_SIGMA_SQ


def test_fisher_two_port_tiny_delay_suppressed():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 1e-4 / SIGMA, DetectionModel(grid, alpha=0.9))
    assert rep.g_omega <= 1e-4 * FOUR_SIGMA_SQ


def test_fisher_trinomial_plateau_is_half_ideal():
    # frozen: the per-bin trinomial keeps the pair channel only, which
    # carries half the ideal information at large delay
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 2e-12, DetectionModel(grid, variant="trinomial"))
    assert rep.g_omega / FOUR_SIGMA_SQ == pytest.approx(0.5, rel=1e-4)


def test_fisher_trinomial_transient_value():
    # frozen regression value at tau = 0.05 ps
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 5e-14, DetectionModel(grid, variant="trinomial"))
    assert rep.g_omega / FOUR_SIGMA_SQ == pytest.approx(0.5588, abs=2e-4)


def test_fisher_crb_reconstruction():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    model = DetectionModel(grid, gamma=0.1, alpha=0.95, n_trials=10_000)
    rep = fisher_information(SRC, 3e-13, model)
    assert rep.crb == 1.0 / math.sqrt(10_000 * rep.g_omega)
    assert rep.n_trials == 10_000


def _long_delay_limit(variant, gamma, alpha, span_sd=6.0):
    """Fisher information past the envelope transient: the fringe average
    of the two-port weight is 1 - sqrt(1 - alpha^2), times the envelope's
    second moment truncated to the +/- span_sd standard deviation window;
    the trinomial pair channel carries half of it."""
    moment = FOUR_SIGMA_SQ * (
        math.erf(span_sd / math.sqrt(2.0))
        - math.sqrt(2.0 / math.pi) * span_sd * math.exp(-span_sd**2 / 2.0)
    )
    share = 1.0 if variant == "two-port" else 0.5
    return share * (1.0 - gamma) ** 2 * (1.0 - math.sqrt(1.0 - alpha**2)) * moment


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95])
def test_fisher_long_delay_limit(variant, gamma, alpha):
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    model = DetectionModel(grid, gamma=gamma, alpha=alpha, variant=variant)
    rep = fisher_information(SRC, 1e-11, model)
    assert rep.g_omega == pytest.approx(_long_delay_limit(variant, gamma, alpha), rel=1e-8)
    assert 0.0 <= rep.error_estimate <= 1e-8 * rep.g_omega


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_fisher_fifty_picoseconds(variant):
    # adaptive quadrature gave up here; the panel rule reaches the limit
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 5e-11, DetectionModel(grid, alpha=0.9, variant=variant))
    assert rep.g_omega == pytest.approx(_long_delay_limit(variant, 0.0, 0.9), rel=1e-8)


def _oracle_integrand(variant, tau, gamma, alpha):
    """The Fisher integrand written out per point, the trinomial
    single-click term included."""
    survive = (1.0 - gamma) ** 2

    def f(w):
        env = math.exp(-(w**2) / (8.0 * SIGMA**2)) / (math.sqrt(2.0 * math.pi) * 2.0 * SIGMA)
        s, c = math.sin(w * tau), math.cos(w * tau)
        if variant == "two-port":
            return survive * env * alpha**2 * w * w * s * s / (1.0 - alpha**2 * c * c)
        p_pair = survive / 2.0 * env * (1.0 + alpha * c)
        dp = survive / 2.0 * env * alpha * w * s
        return dp * dp / p_pair + dp * dp / (1.0 - gamma**2 - p_pair)
    return f


def _quad_oracle(variant, tau, gamma, alpha, omega_max):
    """The integrand integrated over the whole window by adaptive quadrature."""
    f = _oracle_integrand(variant, tau, gamma, alpha)
    limit = int(max(800, 32 * math.ceil(tau * omega_max / math.pi)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only a converged oracle counts
        value, error = integrate.quad(
            f, -omega_max, omega_max, limit=limit, epsabs=0.0, epsrel=1e-11
        )
    assert error <= 1e-10 * value
    return value


def _panel_split_oracle(variant, tau, gamma, alpha, omega_max):
    """The integrand integrated by adaptive quadrature on each fringe
    half-period, whose edges hold the notches, to quad's tightest relative
    tolerance, and the panels summed exactly."""
    f = _oracle_integrand(variant, tau, gamma, alpha)
    edges = np.append(np.arange(0.0, omega_max, math.pi / tau), omega_max)
    panels = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in zip(edges[:-1], edges[1:]):
            value, error = integrate.quad(f, a, b, limit=200, epsabs=0.0, epsrel=1.2e-14)
            assert error <= 1e-13 * value
            panels.append(value)
    return 2.0 * math.fsum(panels)


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
@pytest.mark.parametrize(("alpha", "gamma"), [(0.9, 0.0), (0.8, 0.2)])
@pytest.mark.parametrize("tau", [5e-14, 5e-13, 2e-12])
def test_fisher_matches_quadrature_oracle(variant, alpha, gamma, tau):
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    model = DetectionModel(grid, gamma=gamma, alpha=alpha, variant=variant)
    rep = fisher_information(SRC, tau, model)
    assert rep.g_omega == pytest.approx(
        _quad_oracle(variant, tau, gamma, alpha, grid.omega_max), rel=1e-9
    )


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_fisher_high_visibility_short_delay(variant):
    # alpha = 0.999 puts near-poles within 0.045 rad of every fringe
    # extremum; adaptive quadrature failed this cell
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=16)
    rep = fisher_information(SRC, 4e-13, DetectionModel(grid, alpha=0.999, variant=variant))
    ideal = 1.0 if variant == "two-port" else 0.5
    assert 0.9 * ideal * FOUR_SIGMA_SQ < rep.g_omega < ideal * FOUR_SIGMA_SQ
    assert rep.error_estimate <= 1e-8 * rep.g_omega


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
@pytest.mark.parametrize("alpha", [0.99, 0.999])
@pytest.mark.parametrize("tau", [2e-12, 1e-11])
def test_fisher_matches_panel_split_oracle(variant, alpha, tau):
    # the stop test at 1e-12 holds the series within 1e-12 of the oracle,
    # and within its own error estimate
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, tau, DetectionModel(grid, 0.1, alpha, variant=variant))
    oracle = _panel_split_oracle(variant, tau, 0.1, alpha, grid.omega_max)
    assert rep.g_omega == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert abs(rep.g_omega - oracle) <= rep.error_estimate + 1e-13 * rep.g_omega


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_fisher_near_unit_visibility_reaches_the_long_delay_limit(variant):
    # at alpha = 1 - 1e-13 the integrand dips to 0 within 4.5e-7 rad of each
    # fringe zero, a notch the panel quadrature missed; the series holds it,
    # and lands 4.5e-7 below the value that missed it
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    for alpha in (1.0 - 1e-13, math.nextafter(1.0, 0.0)):
        rep = fisher_information(SRC, 1e-11, DetectionModel(grid, alpha=alpha, variant=variant))
        assert rep.g_omega == pytest.approx(_long_delay_limit(variant, 0.0, alpha), rel=1e-8)


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_fisher_ten_nanoseconds_at_high_visibility(variant):
    # the panel quadrature ran past its cap here
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 1e-8, DetectionModel(grid, alpha=0.999999, variant=variant))
    assert rep.g_omega == pytest.approx(_long_delay_limit(variant, 0.0, 0.999999), rel=1e-8)


def test_fisher_series_term_cap_raises():
    # 1e-19 s at alpha = 1 - 1e-13 needs far more than 2^20 terms
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    model = DetectionModel(grid, alpha=1.0 - 1e-13, variant="trinomial")
    with pytest.raises(QuadratureError, match=f"within {_MAX_TERMS} terms") as caught:
        fisher_information(SRC, 1e-19, model)
    assert caught.value.error_estimate > 1e-12 * abs(caught.value.value)


def test_faddeeva_matches_scipy_wofz():
    x = np.concatenate([[0.0], np.logspace(-8, 14, 200)])
    y = np.logspace(-6, math.log10(200.0), 150)
    z = (x[:, None] + 1j * y).ravel()
    assert np.max(np.abs(_faddeeva(z) / wofz(z) - 1.0)) <= 5e-14


# omega_max |tau| overflows here
_HUGE_TAU = 1e300


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_fisher_edges(variant):
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)

    def g(tau, **kw):
        return fisher_information(SRC, tau, DetectionModel(grid, variant=variant, **kw))

    # no visibility, or no delay, leaves no delay information
    assert g(2e-12, alpha=0.0).g_omega == 0.0
    assert g(2e-12, alpha=0.0).crb == math.inf
    assert g(0.0, alpha=0.9).g_omega == 0.0
    if variant == "trinomial":
        assert g(0.0).g_omega == 0.0
    else:  # the two-port factor is 1 at unit visibility: the window moment
        assert g(0.0).g_omega == pytest.approx(_long_delay_limit(variant, 0.0, 1.0), rel=1e-12)
    # a delay near 0 keeps its digits, though the moments then all near m(0)
    oracle = _quad_oracle(variant, 1e-18, 0.0, 0.9, grid.omega_max)
    assert g(1e-18, alpha=0.9).g_omega == pytest.approx(oracle, rel=1e-12)
    # near-total loss scales the information by the surviving pair fraction
    nearly_lost = g(2e-12, alpha=0.9, gamma=1.0 - 1e-6)
    assert nearly_lost.g_omega == pytest.approx(1e-12 * g(2e-12, alpha=0.9).g_omega, rel=1e-8)
    with pytest.raises(ConfigurationError):
        g(math.nan)
    # a delay whose omega_max |tau| overflows evaluates no fringe moment
    huge = g(_HUGE_TAU, alpha=0.9)
    assert huge.g_omega == pytest.approx(_long_delay_limit(variant, 0.0, 0.9), rel=1e-12)
    assert huge.error_estimate >= 0.0


def test_sweep_huge_delay_gets_the_long_delay_limit():
    for variant in ("two-port", "trinomial"):
        res = sweep([SIGMA], [_HUGE_TAU], [0.0], [0.9, 1.0], variant=variant)
        for row in res.rows:
            assert row.error is None
            assert row.g_omega == pytest.approx(
                _long_delay_limit(variant, 0.0, row.alpha), rel=1e-12)


def test_sweep_fisher_cells_raise_no_warning():
    # the delays at which adaptive quadrature warned or failed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("two-port", "trinomial"):
            taus = [4.85e-14, 5.15e-14, 9.7e-12, 1e-11, 1.03e-11]
            res = sweep([SIGMA], taus, [0.0, 0.2], [0.9, 1.0], variant=variant)
            assert all(row.error is None for row in res.rows)


def test_fisher_reports_inputs():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    rep = fisher_information(SRC, 3e-13, DetectionModel(grid, gamma=0.2, alpha=0.8))
    assert (rep.sigma, rep.tau, rep.gamma, rep.alpha) == (SIGMA, 3e-13, 0.2, 0.8)
    assert rep.variant == "two-port"


def _lone_cell(sigma, tau, gamma, alpha, variant, n_trials, span_sd):
    """(g_omega, crb, error) of one sweep cell from its own
    ``fisher_information`` call."""
    try:
        source = BiphotonSource(sigma_spectral=sigma)
        grid = default_frequency_grid(source, n_bins=16, span_sd=span_sd)
        model = DetectionModel(grid, gamma=gamma, alpha=alpha, n_trials=n_trials, variant=variant)
        report = fisher_information(source, tau, model)
    except (ConfigurationError, EstimationError, InputDataError) as exc:
        return None, None, str(exc)
    return report.g_omega, report.crb, None


_SWEEP_ALPHAS = st.one_of(
    st.sampled_from([0.0, 0.9, 0.999, 1.0 - 1e-13, 1.0, 1.5]), st.floats(0.0, 0.99)
)


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(["two-port", "trinomial"]),
    sigmas=st.lists(st.sampled_from([SIGMA, 2.0 * SIGMA, 0.0, -SIGMA]), min_size=1, max_size=2),
    taus=st.lists(
        st.one_of(st.sampled_from([0.0, 1e-11]), st.floats(-5e-14, -1e-15)),
        min_size=1, max_size=2,
    ),
    gammas=st.lists(
        st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1, max_size=3,
    ),
    alphas=st.lists(_SWEEP_ALPHAS, min_size=1, max_size=3),
    n_trials=st.sampled_from([1, 10_000]),
)
@example(  # at 10 ps alpha = 0.999 needs more halvings than 0.5 in the same layout
    variant="trinomial", sigmas=[SIGMA], taus=[1e-11, 0.0], gammas=[0.0, 0.2],
    alphas=[0.5, 0.999, 1.0 - 1e-13], n_trials=1,
)
@example(  # a delay whose starting panel width is 0
    variant="two-port", sigmas=[SIGMA], taus=[_HUGE_TAU, 1e-11], gammas=[0.0, 0.2],
    alphas=[0.9, 1.0], n_trials=1,
)
def test_sweep_cells_equal_lone_fisher_calls_bit_for_bit(
    variant, sigmas, taus, gammas, alphas, n_trials
):
    # cells whose series blocks share batched window-moment calls, round by
    # round, keep the bits and errors of lone calls
    res = sweep(sigmas, taus, gammas, alphas, variant=variant, n_trials=n_trials)
    assert len(res.rows) == len(sigmas) * len(taus) * len(gammas) * len(alphas)
    for row in res.rows:
        lone = _lone_cell(row.sigma, row.tau, row.gamma, row.alpha, variant, n_trials, 6.0)
        assert repr((row.g_omega, row.crb, row.error)) == repr(lone)


def _counted_window_moments(monkeypatch) -> list[int]:
    """Sizes of the ``_window_moments`` calls made from here on."""
    sizes, window_moments = [], estimation._window_moments

    def counted(kappa, h):
        sizes.append(kappa.size)
        return window_moments(kappa, h)

    monkeypatch.setattr(estimation, "_window_moments", counted)
    return sizes


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_sweep_over_several_groups_equals_lone_fisher_calls_bit_for_bit(variant, monkeypatch):
    # 72 cells: a full group of 64 and a second of 8. The three sigmas give
    # three window half-widths h (6 and 6 -+ 1 ulp), so a round makes calls for
    # each. gamma = 1 and alpha = 1.5 cells fail to build, and at 1 fs and
    # alpha = 1 - 1e-13 the series hits its term cap, in both groups (cells
    # 20, 44 and 68), while the other cells of the group finish early.
    sizes = _counted_window_moments(monkeypatch)
    sigmas = [SIGMA, 1.0015 * SIGMA, 1.003 * SIGMA]
    res = sweep(sigmas, [0.0, 2e-13, 1e-11, 1e-15], [0.0, 1.0], [0.9, 1.5, 1.0 - 1e-13],
                variant=variant)
    assert len({default_frequency_grid(BiphotonSource(sigma_spectral=s), n_bins=16).omega_max
                / (2.0 * s) for s in sigmas}) == 3
    assert max(sizes) <= _BLOCK_TERMS
    assert len(res.rows) == 72
    capped = [i for i, row in enumerate(res.rows) if "did not bound" in (row.error or "")]
    assert capped == [20, 44, 68]
    assert sum(row.error is not None for row in res.rows) == 3 + 3 * 4 * 4  # 48 builds fail
    monkeypatch.undo()
    for row in res.rows:
        lone = _lone_cell(row.sigma, row.tau, row.gamma, row.alpha, variant, 1, 6.0)
        assert repr((row.g_omega, row.crb, row.error)) == repr(lone)


@pytest.mark.parametrize("variant", ["two-port", "trinomial"])
def test_sweep_batches_window_moments_into_few_bounded_calls(variant, monkeypatch):
    # the 240-cell sweep: per-cell calls would make 420 (two-port) or 480
    sizes = _counted_window_moments(monkeypatch)
    sigma = BiphotonSource.from_bandwidth(10e-9, 810e-9).sigma_spectral
    res = sweep([sigma], np.linspace(0.05, 10.0, 30) * 1e-12, [0.0, 0.2],
                np.linspace(0.9, 1.0, 4), variant=variant)
    assert len(res.rows) == 240 and all(row.error is None for row in res.rows)
    assert max(sizes) <= _BLOCK_TERMS
    assert len(sizes) <= 8


# ----------------------------------------------------------------- qfi/qcrb


def test_qfi_equals_quarter_spectral_variance():
    # the delay generator is half the difference frequency, so the quantum
    # information rate is a quarter of the envelope variance (2 sigma)^2
    from qwkt import envelope_density
    from scipy import integrate

    rep = quantum_fisher_information(SRC, 1)
    var, _ = integrate.quad(
        lambda w: w * w * envelope_density(w, SIGMA), -40 * SIGMA, 40 * SIGMA, limit=200
    )
    assert rep.q == pytest.approx(var / 4.0, rel=1e-6)
    assert rep.q == SIGMA**2


def test_qcrb_printed_form():
    for n in (1, 100, 10_000):
        rep = quantum_fisher_information(SRC, n)
        assert format(rep.qcrb, ".17g") == format(1.0 / (2.0 * SIGMA * math.sqrt(n)), ".17g")


def test_qcrb_scales_with_sigma_and_trials():
    wide = BiphotonSource.from_bandwidth(20e-9)
    assert quantum_fisher_information(wide, 1).qcrb == pytest.approx(
        quantum_fisher_information(SRC, 1).qcrb / 2.0, rel=1e-12, abs=0.0
    )
    assert quantum_fisher_information(SRC, 400).qcrb == pytest.approx(
        quantum_fisher_information(SRC, 100).qcrb / 2.0, rel=1e-12, abs=0.0
    )


def test_classical_information_never_beats_quantum():
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    q = quantum_fisher_information(SRC, 1).q
    for gamma in (0.0, 0.3):
        for alpha in (1.0, 0.8):
            for tau in (5e-14, 3e-13):
                rep = fisher_information(SRC, tau, DetectionModel(grid, gamma=gamma, alpha=alpha))
                assert rep.g_omega <= 4.0 * q * (1.0 + 1e-12)


# -------------------------------------------------------------------- sweep


def test_sweep_shapes_and_monotonicity():
    sigmas = [SIGMA, 1.5 * SIGMA, 2.0 * SIGMA]
    res = sweep(sigmas, [5e-13], [0.0], [1.0])
    assert len(res.rows) == 3
    gs = [row.g_omega for row in res.rows]
    assert gs == sorted(gs)
    assert res.monotonicity["sigma"] == "increasing"
    assert all(row.error is None for row in res.rows)


def test_sweep_gamma_axis_decreasing():
    res = sweep([SIGMA], [5e-13], [0.0, 0.2, 0.4], [1.0])
    assert res.monotonicity["gamma"] == "decreasing"


def test_sweep_single_cell_constant():
    res = sweep([SIGMA], [5e-13], [0.0], [1.0])
    assert res.monotonicity["sigma"] == "constant"
    assert res.rows[0].crb is not None


def test_sweep_rejects_empty_or_huge_axes():
    with pytest.raises(ConfigurationError):
        sweep([], [5e-13], [0.0], [1.0])
    with pytest.raises(ConfigurationError):
        sweep(list(np.linspace(SIGMA, 2 * SIGMA, 300)), [5e-13], [0.0], [1.0])


def _monotonicity_reference(rows, shape):
    """The labelling ``_monotonicity`` replaced: a failed-cell mask beside the
    values, and each slice along each axis labelled on its own."""
    g = np.array(
        [row.g_omega if row.error is None else np.nan for row in rows], dtype=float
    ).reshape(shape)
    ok = np.array([row.error is None for row in rows]).reshape(shape)
    scale = float(np.nanmax(np.abs(g))) if np.any(ok) else 0.0
    tol = 1e-12 * scale if scale > 0.0 else 0.0
    labels = {}
    for axis, name in enumerate(_SWEEP_AXES):
        if shape[axis] < 2:
            labels[name] = "constant"
            continue
        moved = np.moveaxis(g, axis, -1).reshape(-1, shape[axis])
        moved_ok = np.moveaxis(ok, axis, -1).reshape(-1, shape[axis])
        slice_labels = set()
        for values, valid in zip(moved, moved_ok):
            if not np.all(valid):
                slice_labels.add("unavailable")
                continue
            diffs = np.diff(values)
            if np.all(np.abs(diffs) <= tol):
                slice_labels.add("constant")
            elif np.all(diffs > tol):
                slice_labels.add("increasing")
            elif np.all(diffs < -tol):
                slice_labels.add("decreasing")
            else:
                slice_labels.add("mixed")
        labels[name] = slice_labels.pop() if len(slice_labels) == 1 else "mixed"
    return labels


def _sweep_cells(shape, offsets, scale=1.0):
    """Cells of a sweep grid: g_omega = scale (1 + offset), or failed where
    the offset is None."""
    return tuple(
        SweepCell(sigma=SIGMA, tau=0.0, gamma=0.0, alpha=1.0, variant="two-port",
                  g_omega=None if c is None else scale * (1.0 + c), crb=None,
                  error="failed" if c is None else None)
        for c in offsets
    )


# offsets tie, straddle the 1e-12-of-scale tolerance, or clear it
_OFFSETS = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 2e-12, -1e-12, -3e-12, 0.25, -0.5, 1.0])


@st.composite
def _sweep_grids(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=4, max_size=4)))
    scale = draw(st.sampled_from([0.0, 1.0, FOUR_SIGMA_SQ, 1e-300, 1e300, -2.0]))
    failed = draw(st.floats(0.0, 1.0))
    offsets = draw(st.lists(
        st.one_of(st.none(), _OFFSETS) if failed > 0.5 else _OFFSETS,
        min_size=math.prod(shape), max_size=math.prod(shape),
    ))
    return _sweep_cells(shape, offsets, scale), shape


@settings(max_examples=500, deadline=None)
@given(grid=_sweep_grids())
@example(grid=(_sweep_cells((2, 1, 3, 1), [None] * 6), (2, 1, 3, 1)))
@example(grid=(_sweep_cells((3, 2, 1, 2), [0.0] * 12, 0.0), (3, 2, 1, 2)))
@example(grid=(_sweep_cells((1, 1, 1, 1), [None]), (1, 1, 1, 1)))
def test_monotonicity_matches_per_slice_reference(grid):
    rows, shape = grid
    assert _monotonicity(rows, shape) == _monotonicity_reference(rows, shape)


def test_sweep_captures_cell_errors():
    # a nonpositive sigma cannot build a source; the cell must carry the
    # error message instead of raising
    res = sweep([SIGMA, -1.0], [5e-13], [0.0], [1.0])
    good = [row for row in res.rows if row.error is None]
    bad = [row for row in res.rows if row.error is not None]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0].g_omega is None
