"""Interference and detection tests: amplitudes, probabilities, sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from qwkt import (
    BiphotonSource,
    ConfigurationError,
    DelayProfile,
    DetectionModel,
    FrequencyGrid,
    InputDataError,
    JointAmplitude,
    OutcomeTable,
    antibunch_amplitude,
    binned_envelope,
    coincidence_probability,
    outcome_probabilities,
    sample_counts,
)
from qwkt.hom import _ndtr

SRC = BiphotonSource.from_bandwidth(10e-9)


def _grid(n_bins=64):
    return FrequencyGrid(omega_max=6.0 * 2.0 * SRC.sigma_spectral, n_bins=n_bins)


# ------------------------------------------------------------- amplitudes


def test_joint_amplitude_unit_norm():
    # 2D quadrature of |f|^2 over the rotated (sum, difference) plane;
    # the Jacobian of the rotation is 1/2
    amp = JointAmplitude(SRC)
    sig = SRC.sigma_spectral
    sp = amp.sum_bandwidth
    uc = amp.sum_center

    def inner(u):
        def f(v):
            ws = 0.5 * (u + v)
            wi = 0.5 * (u - v)
            return abs(amp(ws, wi)) ** 2

        val, _ = integrate.quad(f, -32.0 * sig, 32.0 * sig, limit=200)
        return 0.5 * val

    mass, _ = integrate.quad(inner, uc - 8.0 * sp, uc + 8.0 * sp, limit=100)
    assert mass == pytest.approx(1.0, rel=1e-6)


def test_joint_amplitude_symmetry_flag():
    amp = JointAmplitude(SRC)
    rng = np.random.default_rng(13)
    ws = amp.sum_center / 2.0 + rng.normal(scale=2 * SRC.sigma_spectral, size=40)
    wi = amp.sum_center / 2.0 + rng.normal(scale=2 * SRC.sigma_spectral, size=40)
    assert amp(ws, wi) == pytest.approx(amp(wi, ws), rel=1e-12)


def test_antibunch_magnitude_swap_invariance():
    # exchanging the ports while reversing the delay flips only a global
    # phase, so the magnitude is unchanged
    amp = JointAmplitude(SRC)
    rng = np.random.default_rng(17)
    ws = amp.sum_center / 2.0 + rng.normal(scale=2 * SRC.sigma_spectral, size=40)
    wi = amp.sum_center / 2.0 + rng.normal(scale=2 * SRC.sigma_spectral, size=40)
    tau = 1.7e-13
    a = np.abs(antibunch_amplitude(amp, tau, ws, wi))
    b = np.abs(antibunch_amplitude(amp, -tau, wi, ws))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-30)


def test_antibunch_vanishes_at_zero_delay():
    amp = JointAmplitude(SRC)
    rng = np.random.default_rng(7)
    ws = amp.sum_center / 2.0 + rng.normal(scale=2 * SRC.sigma_spectral, size=50)
    wi = amp.sum_center - ws + rng.normal(scale=SRC.sigma_spectral, size=50)
    out = antibunch_amplitude(amp, 0.0, ws, wi)
    assert np.max(np.abs(out)) == 0.0


def test_coincidence_zero_delay_exact():
    assert coincidence_probability(SRC, 0.0) == 0.0


def _gauss_legendre(lo, hi, panels, order=16):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half + half * x).ravel(), (half * w).ravel()


def test_coincidence_closed_form_vs_quadrature():
    # integrate |antibunch|^2 over the rotated (sum u, difference v) plane
    # at five delays and compare with the closed form
    # (1 - exp(-2 sigma^2 tau^2)) / 2; the Jacobian of the rotation is 1/2
    amp = JointAmplitude(SRC)
    sig = SRC.sigma_spectral
    sp = amp.sum_bandwidth
    uc = amp.sum_center
    u, wu = _gauss_legendre(uc - 8.0 * sp, uc + 8.0 * sp, panels=4)
    # quarter-sigma panels resolve the cos(v tau) fringe at every delay below
    v, wv = _gauss_legendre(-32.0 * sig, 32.0 * sig, panels=256)

    def oracle(tau):
        ws = 0.5 * (u[:, None] + v)
        wi = 0.5 * (u[:, None] - v)
        return 0.5 * wu @ np.abs(antibunch_amplitude(amp, tau, ws, wi)) ** 2 @ wv

    for tau in (1e-14, 5e-14, 1e-13, 2e-13, 5e-13):
        closed = coincidence_probability(SRC, tau)
        assert closed == pytest.approx(oracle(tau), rel=1e-6, abs=1e-9), f"tau={tau}"


def test_coincidence_limits_and_vectorization():
    taus = np.array([0.0, 1e-13, 1e-11])
    vals = coincidence_probability(SRC, taus)
    assert vals[0] == 0.0
    assert vals[2] == pytest.approx(0.5, rel=1e-12)  # far from overlap
    assert np.all(np.diff(vals) > 0.0)


# --------------------------------------------------------------- detection


def test_detection_model_validation():
    g = _grid()
    with pytest.raises(ConfigurationError):
        DetectionModel(g, gamma=1.0)
    with pytest.raises(ConfigurationError):
        DetectionModel(g, gamma=-0.1)
    with pytest.raises(ConfigurationError):
        DetectionModel(g, alpha=1.5)
    with pytest.raises(ConfigurationError):
        DetectionModel(g, alpha=-0.5)
    with pytest.raises(ConfigurationError):
        DetectionModel(g, n_trials=0)
    with pytest.raises(ConfigurationError):
        DetectionModel(g, variant="lossless")


def test_binned_envelope_probability_mass():
    g = _grid()
    env = binned_envelope(g, SRC.sigma_spectral)
    assert env.shape == (g.n_bins,)
    assert np.all(env >= 0.0)
    assert env.sum() == pytest.approx(1.0, rel=1e-14)


def test_binned_envelope_is_cached_and_read_only():
    g = _grid()
    env = binned_envelope(g, SRC.sigma_spectral)
    assert binned_envelope(replace(g), SRC.sigma_spectral) is env
    with pytest.raises(ValueError):
        env[0] = 0.0


# branch points of the Cephes port (|x| = sqrt(1/2), 1 and 8 for x = a /
# sqrt(2)), and inputs whose square would overflow
_NDTR_POINTS = [
    0.0, math.sqrt(0.5), math.sqrt(2.0), 8.0 * math.sqrt(2.0), 1e300, math.inf,
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False),
            st.floats(-10.0, 10.0),
            st.floats(37.0, 40.0),  # exp(-a^2/2) underflows
            st.sampled_from(_NDTR_POINTS),
        ).flatmap(lambda a: st.sampled_from([a, -a])),
        min_size=1,
        max_size=64,
    )
)
@example([sign * a for a in _NDTR_POINTS for sign in (1.0, -1.0)])
def test_ndtr_matches_scipy_bitwise(values):
    a = np.array(values)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cdf = _ndtr(a)
    assert cdf.tobytes() == ndtr(a).tobytes()


def test_two_port_outcomes_sum_to_one():
    g = _grid()
    model = DetectionModel(g, gamma=0.2, alpha=0.9, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    total = table.coincidence.sum() + table.bunching.sum() + table.single_click + table.no_click
    assert total == pytest.approx(1.0, abs=1e-12)
    assert table.single_click == pytest.approx(2.0 * 0.2 * 0.8, rel=1e-14)
    assert table.no_click == pytest.approx(0.04, rel=1e-14)


def test_two_port_channels_split_the_envelope():
    # per bin, antibunched plus bunched mass equals the surviving envelope
    g = _grid()
    model = DetectionModel(g, gamma=0.3, alpha=0.7, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(1.5e-13))
    survive = (1.0 - 0.3) ** 2
    expected = survive * binned_envelope(g, SRC.sigma_spectral)
    assert table.coincidence + table.bunching == pytest.approx(expected, rel=1e-12)


def test_trinomial_outcomes_sum_per_bin():
    g = _grid()
    model = DetectionModel(g, gamma=0.2, alpha=0.9, variant="trinomial")
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    assert table.bunching is None
    per_bin = table.coincidence + table.single_click + table.no_click
    assert per_bin == pytest.approx(np.ones(g.n_bins), abs=1e-12)
    assert table.no_click == pytest.approx(0.04, rel=1e-14)


def test_two_port_lossless_has_no_click_categories():
    g = _grid()
    model = DetectionModel(g, gamma=0.0, alpha=1.0, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    assert table.single_click == 0.0
    assert table.no_click == 0.0
    assert table.coincidence.sum() + table.bunching.sum() == pytest.approx(1.0, abs=1e-12)


def test_antibunch_fringe_dips_at_fringe_nodes():
    # at omega tau = 2 pi k the antibunched channel is dark for alpha = 1
    g = _grid(n_bins=2048)
    tau = 2e-13
    model = DetectionModel(g, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(tau))
    node = 2.0 * math.pi / tau
    j = int(np.argmin(np.abs(g.values - node)))
    assert table.coincidence[j] < 1e-3 * table.coincidence.max()


# ---------------------------------------------------------------- sampling


def test_sampling_deterministic_and_conserving():
    g = _grid()
    model = DetectionModel(g, gamma=0.2, alpha=0.9, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    a = sample_counts(table, 50_000, seed=42)
    b = sample_counts(table, 50_000, seed=42)
    assert np.array_equal(a.counts_coincidence, b.counts_coincidence)
    assert np.array_equal(a.counts_bunching, b.counts_bunching)
    assert a.counts_single == b.counts_single and a.counts_none == b.counts_none
    total = (
        a.counts_coincidence.sum() + a.counts_bunching.sum() + a.counts_single + a.counts_none
    )
    assert total == 50_000
    c = sample_counts(table, 50_000, seed=43)
    assert not np.array_equal(a.counts_coincidence, c.counts_coincidence)


def test_sampling_matches_probabilities():
    g = _grid(n_bins=32)
    model = DetectionModel(g, gamma=0.1, alpha=1.0, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(1.2e-13))
    n = 200_000
    counts = sample_counts(table, n, seed=11)
    # five-sigma binomial bands per category
    for got, p in (
        (counts.counts_coincidence.sum(), table.coincidence.sum()),
        (counts.counts_bunching.sum(), table.bunching.sum()),
        (counts.counts_single, table.single_click),
        (counts.counts_none, table.no_click),
    ):
        band = 5.0 * math.sqrt(n * p * (1.0 - p)) + 1.0
        assert abs(got - n * p) <= band


def test_trinomial_sampling_per_bin():
    g = _grid(n_bins=32)
    model = DetectionModel(g, gamma=0.2, alpha=0.9, variant="trinomial")
    table = outcome_probabilities(model, SRC, DelayProfile.single(2e-13))
    n = 10_000
    counts = sample_counts(table, n, seed=5)
    per_bin = counts.counts_coincidence + counts.counts_single + counts.counts_none
    assert np.all(per_bin == n)
    p = table.coincidence
    band = 5.0 * np.sqrt(n * p * (1.0 - p)) + 1.0
    assert np.all(np.abs(counts.counts_coincidence - n * p) <= band)


def test_counts_only_table_cannot_be_resampled():
    g = _grid(n_bins=32)
    table = OutcomeTable(
        variant="two-port", grid=g, counts_coincidence=np.zeros(32, dtype=np.int64)
    )
    with pytest.raises(InputDataError):
        sample_counts(table, 100, seed=0)


def test_outcome_table_requires_some_coincidence_data():
    g = _grid(n_bins=32)
    with pytest.raises(InputDataError):
        OutcomeTable(variant="two-port", grid=g)
    with pytest.raises(InputDataError):
        OutcomeTable(variant="two-port", grid=g, coincidence=np.full(16, 0.01))


def _valid_table(variant):
    g = _grid(n_bins=16)
    model = DetectionModel(g, variant=variant)
    return outcome_probabilities(model, SRC, DelayProfile.single(1e-13))


@pytest.mark.parametrize("variant, change, error, message", [
    ("two-port", {"variant": "three-port"}, ConfigurationError, "variant must be one of"),
    ("two-port", {"bunching": None}, InputDataError, "need per-bin bunching"),
    ("two-port", {"no_click": 0.5}, ConfigurationError, "outcome probabilities sum to"),
    ("trinomial", {"bunching": np.zeros(16)}, ConfigurationError, "carry no bunching block"),
    ("trinomial", {"single_click": 0.5}, InputDataError, "per-bin single-click"),
    ("trinomial", {"no_click": 0.5}, ConfigurationError, "per-bin outcome probabilities must sum"),
    ("two-port", {"counts_coincidence": np.zeros(8)}, InputDataError,
     "coincidence counts must be per-bin"),
])
def test_outcome_table_rejects_each_bad_field(variant, change, error, message):
    table = _valid_table(variant)
    with pytest.raises(error, match=message):
        replace(table, **change)


def test_outcome_table_without_counts_has_no_total():
    with pytest.raises(InputDataError, match="holds no counts"):
        _valid_table("two-port").total_counts()


def test_sample_counts_validates_trials():
    g = _grid(n_bins=32)
    model = DetectionModel(g, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(1e-13))
    with pytest.raises(ConfigurationError):
        sample_counts(table, 0, seed=0)
