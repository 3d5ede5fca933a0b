"""Transform layer tests: grids and the forward/inverse pair."""

import math

import numpy as np
import pytest

from qwkt import (
    BiphotonSource,
    ConfigurationError,
    DelayProfile,
    FrequencyGrid,
    InputDataError,
    SpectralPattern,
    TemporalCorrelation,
    TemporalGrid,
    cross_correlation,
    default_frequency_grid,
    envelope_density,
    forward_qwkt,
    inverse_qwkt,
    joint_spectral_intensity,
)


def _random_band_limited(grid, rng):
    # smooth nonnegative spectrum supported on the central half of the band
    n = grid.n_bins
    values = np.zeros(n)
    lo, hi = n // 4, 3 * n // 4
    width = hi - lo
    base = rng.uniform(0.2, 1.0, size=8)
    x = np.linspace(0.0, 1.0, width)
    for k, a in enumerate(base):
        values[lo:hi] += a * np.cos(math.pi * k * x) ** 2
    taper = np.sin(math.pi * x) ** 2
    values[lo:hi] *= taper
    return SpectralPattern(grid, values)


# ---------------------------------------------------------------- grids


def test_grid_midpoint_layout():
    g = FrequencyGrid(omega_max=8.0, n_bins=64)
    assert g.delta_omega == pytest.approx(0.25)
    assert g.values[0] == pytest.approx(-8.0 + 0.125)
    assert g.values[-1] == pytest.approx(8.0 - 0.125)
    # symmetric midpoints, no on-axis sample
    assert np.allclose(g.values + g.values[::-1], 0.0, atol=1e-15)
    assert np.all(g.values != 0.0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(omega_max=1.0, n_bins=63)
    with pytest.raises(ConfigurationError):
        FrequencyGrid(omega_max=1.0, n_bins=8)
    with pytest.raises(ConfigurationError):
        FrequencyGrid(omega_max=-1.0, n_bins=64)
    with pytest.raises(ConfigurationError):
        TemporalGrid(delta_t=-1.0, n_bins=64)


def test_temporal_grid_pairing():
    g = FrequencyGrid(omega_max=8.0, n_bins=64)
    tg = TemporalGrid.conjugate_of(g)
    assert tg.delta_t * g.delta_omega * g.n_bins == pytest.approx(2.0 * math.pi, rel=1e-15)
    paired = tg.paired_frequency_grid()
    assert paired.n_bins == g.n_bins
    assert paired.omega_max == pytest.approx(g.omega_max, rel=1e-15)


def test_default_grid_spans_six_widths():
    src = BiphotonSource.from_bandwidth(10e-9)
    g = default_frequency_grid(src)
    assert g.n_bins == 4096
    assert g.omega_max == pytest.approx(6.0 * 2.0 * src.sigma_spectral, rel=1e-12)


# ------------------------------------------------------- pattern/correlation


def test_pattern_validation():
    g = FrequencyGrid(omega_max=4.0, n_bins=64)
    with pytest.raises(InputDataError):
        SpectralPattern(g, -np.ones(64))
    with pytest.raises(InputDataError):
        SpectralPattern(g, np.ones(32))
    with pytest.raises(InputDataError):
        SpectralPattern(g, np.full(64, np.nan))
    with pytest.raises(InputDataError):
        SpectralPattern(g, np.full(64, 1.5), kind="counts")
    with pytest.raises(ConfigurationError):
        SpectralPattern(g, np.ones(64), kind="histogram")
    # integer-valued floats are legal counts
    SpectralPattern(g, np.full(64, 3.0), kind="counts")


def test_correlation_validation():
    g = FrequencyGrid(omega_max=4.0, n_bins=64)
    tg = TemporalGrid.conjugate_of(g)
    with pytest.raises(InputDataError):
        TemporalCorrelation(tg, np.ones(12))
    with pytest.raises(InputDataError):
        TemporalCorrelation(tg, np.full(64, np.nan + 0j))


# ------------------------------------------------------------ direct oracles


def test_inverse_matches_direct_sum():
    # R(T_m) = sum_j F(omega_j) exp(-i omega_j T_m) d_omega, checked
    # against an explicit O(n^2) sum at n = 64
    g = FrequencyGrid(omega_max=8.0, n_bins=64)
    tg = TemporalGrid.conjugate_of(g)
    rng = np.random.default_rng(11)
    pat = _random_band_limited(g, rng)
    corr = inverse_qwkt(pat)
    direct = np.array(
        [np.sum(pat.values * np.exp(-1j * g.values * t)) * g.delta_omega for t in tg.values]
    )
    assert np.max(np.abs(corr.values - direct)) < 1e-12 * np.max(np.abs(direct))


def test_forward_matches_direct_sum():
    # F(omega_j) = (1/2pi) sum_m R(T_m) exp(+i omega_j T_m) d_T
    g = FrequencyGrid(omega_max=8.0, n_bins=64)
    rng = np.random.default_rng(12)
    corr = inverse_qwkt(_random_band_limited(g, rng))
    pat = forward_qwkt(corr)
    tg = corr.grid
    direct = np.array(
        [
            np.sum(corr.values * np.exp(1j * w * tg.values)) * tg.delta_t / (2.0 * math.pi)
            for w in g.values
        ]
    )
    assert np.max(np.abs(pat.values - direct.real)) < 1e-12 * np.max(np.abs(direct))
    assert np.max(np.abs(direct.imag)) < 1e-12 * np.max(np.abs(direct))


def test_gaussian_analytic_pair():
    # the normal spectral density with standard deviation 2 sigma maps to
    # exp(-2 sigma^2 T^2) under the inverse transform
    sigma = 1.0
    g = FrequencyGrid(omega_max=12.0 * sigma, n_bins=512)
    pat = SpectralPattern(g, envelope_density(g.values, sigma))
    corr = inverse_qwkt(pat)
    expected = np.exp(-2.0 * sigma**2 * corr.grid.values**2)
    assert np.max(np.abs(corr.values - expected)) < 1e-9


def test_roundtrip_twenty_random_inputs():
    # inverse then forward must reproduce band-limited spectra to 1e-9
    g = FrequencyGrid(omega_max=10.0, n_bins=256)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pat = _random_band_limited(g, rng)
        back = forward_qwkt(inverse_qwkt(pat))
        err = np.max(np.abs(back.values - pat.values)) / np.max(pat.values)
        assert err < 1e-9, f"seed {seed}: roundtrip error {err:.3e}"


def test_pair_preserves_energy():
    # unitarity: integral |F|^2 d_omega = (1/2pi) integral |R|^2 dT
    g = FrequencyGrid(omega_max=10.0, n_bins=128)
    rng = np.random.default_rng(5)
    pat = _random_band_limited(g, rng)
    corr = inverse_qwkt(pat)
    lhs = np.sum(pat.values**2) * g.delta_omega
    rhs = np.sum(np.abs(corr.values) ** 2) * corr.grid.delta_t / (2.0 * math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inverse_of_even_spectrum_is_real():
    src = BiphotonSource.from_bandwidth(10e-9)
    prof = DelayProfile.single(2e-13)
    g = default_frequency_grid(src, n_bins=1024)
    pat = SpectralPattern(g, joint_spectral_intensity(src, prof, g.values))
    corr = inverse_qwkt(pat)
    scale = np.max(np.abs(corr.values.real))
    assert np.max(np.abs(corr.values.imag)) <= 1e-9 * scale


def test_forward_rejects_asymmetric_correlation():
    g = FrequencyGrid(omega_max=4.0, n_bins=64)
    tg = TemporalGrid.conjugate_of(g)
    rng = np.random.default_rng(3)
    corr = TemporalCorrelation(tg, rng.normal(size=64) + 1j * rng.normal(size=64))
    with pytest.raises(InputDataError):
        forward_qwkt(corr)


def test_source_correlation_spectrum_consistency():
    # the closed-form pair: forward of R/2 at fringe phase pi equals the
    # published spectral density
    src = BiphotonSource.from_bandwidth(10e-9)
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (2.0e-13, 0.5)])
    g = default_frequency_grid(src, n_bins=2048, span_sd=9.0)
    tg = TemporalGrid.conjugate_of(g)
    corr = TemporalCorrelation(tg, cross_correlation(src, prof, tg.values) / 2.0)

    expected = joint_spectral_intensity(src, prof, g.values, phi=math.pi)
    got = forward_qwkt(corr).values
    keep = np.abs(g.values) <= 12.0 * src.sigma_spectral
    denom = np.maximum(expected[keep], 1e-8 * expected.max())
    assert np.max(np.abs(got[keep] - expected[keep]) / denom) < 1e-6
