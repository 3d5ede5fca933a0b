"""Source model tests: converter, profiles, correlation/spectrum forms."""

import math

import numpy as np
import pytest

from qwkt import (
    SPEED_OF_LIGHT,
    BiphotonSource,
    ConfigurationError,
    DelayProfile,
    bandwidth_nm_to_rads,
    cross_correlation,
    envelope_density,
    fringe_factor,
    joint_spectral_intensity,
)

# frozen: 2*pi*c*(10 nm)/(810 nm)^2
SIGMA_10NM = 2.8709824223576484e13


def test_speed_of_light_exact():
    assert SPEED_OF_LIGHT == 299792458.0


def test_bandwidth_converter_value():
    sigma = bandwidth_nm_to_rads(10e-9, 810e-9)
    assert sigma == pytest.approx(SIGMA_10NM, rel=1e-12)
    # reference point: 2.8726e13 rad/s within 1e-3 relative
    assert abs(sigma - 2.8726e13) / 2.8726e13 < 1e-3


def test_bandwidth_converter_scaling():
    # linear in delta_lambda, inverse quadratic in the center wavelength
    base = bandwidth_nm_to_rads(10e-9, 810e-9)
    assert bandwidth_nm_to_rads(20e-9, 810e-9) == pytest.approx(2 * base, rel=1e-12)
    assert bandwidth_nm_to_rads(10e-9, 1620e-9) == pytest.approx(base / 4, rel=1e-12)


@pytest.mark.parametrize(
    "bad", [0.0, -1e-9, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_bandwidth_converter_rejects_nonpositive(bad):
    # a ConfigurationError, like every configuration check, and so a ValueError
    with pytest.raises(ConfigurationError):
        bandwidth_nm_to_rads(bad, 810e-9)
    with pytest.raises(ConfigurationError):
        bandwidth_nm_to_rads(10e-9, bad)


def test_source_delta_calibration():
    src = BiphotonSource.from_bandwidth(10e-9)
    assert src.delta_temporal == pytest.approx(math.sqrt(2) * src.sigma_spectral, rel=1e-15)


def test_source_rejects_nonpositive_sigma():
    with pytest.raises(ConfigurationError):
        BiphotonSource(sigma_spectral=-1.0)


def test_delay_profile_validation():
    with pytest.raises(ConfigurationError):
        DelayProfile(layers=((-1e-13, 1.0),))
    with pytest.raises(ConfigurationError):
        DelayProfile(layers=((2e-13, 0.5), (1e-13, 0.5)))  # not increasing
    with pytest.raises(ConfigurationError):
        DelayProfile(layers=((1e-13, 0.4),))  # weights must sum to 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: DelayProfile(((math.nan, 1.0),)),
        lambda: DelayProfile(((math.inf, 1.0),)),
        lambda: DelayProfile(((1e-13, math.nan),)),
        lambda: DelayProfile(((1e-13, math.nan), (2e-13, 1.0))),
        lambda: BiphotonSource(sigma_spectral=math.nan),
        lambda: BiphotonSource(sigma_spectral=math.inf),
        lambda: BiphotonSource(sigma_spectral=SIGMA_10NM, center_wavelength=math.nan),
        lambda: BiphotonSource(sigma_spectral=SIGMA_10NM, center_wavelength=math.inf),
    ],
    ids=["delay-nan", "delay-inf", "weight-nan", "one-weight-nan", "sigma-nan", "sigma-inf",
         "center-nan", "center-inf"],
)
def test_non_finite_parameters_are_rejected(build):
    # every range check fails on nan and +/-inf, not only on values past its bounds
    with pytest.raises(ConfigurationError):
        build()


def test_delay_profile_normalized():
    prof = DelayProfile.normalized([(1e-13, 2.0), (2e-13, 6.0)])
    assert prof.weights == pytest.approx([0.25, 0.75])
    assert prof.delays == pytest.approx([1e-13, 2e-13], abs=0.0)


def test_cross_correlation_matches_mode_overlap_oracle():
    # The closed form is the T-symmetrized overlap of Gaussian mode
    # envelopes exp(-2 delta^2 t^2), the idler's with one delayed replica
    # per layer, normalized to its T = 0 value. Trapezoid oracle on a
    # dense grid.
    src = BiphotonSource.from_bandwidth(10e-9)
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (2.67e-13, 0.5)])
    delta = src.delta_temporal
    t = np.linspace(-8.0 / delta - 4e-13, 8.0 / delta + 4e-13, 40001)

    def mode(x):
        return np.exp(-2.0 * delta**2 * x**2)

    def overlap(shift):
        g_i = mode(t + shift) + sum(a * mode(t + shift + tau) for tau, a in prof.layers)
        return np.trapezoid(mode(t) * g_i, t)

    # normalize by the pure single-Gaussian T = 0 overlap so the main
    # peak contributes exactly exp(-delta^2 T^2)
    base = np.trapezoid(mode(t) * mode(t), t)
    t_test = np.linspace(-4e-13, 4e-13, 41)
    oracle = np.array([0.5 * (overlap(T) + overlap(-T)) for T in t_test]) / base
    closed = cross_correlation(src, prof, t_test)
    assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-9)


def test_cross_correlation_even_in_fp():
    src = BiphotonSource.from_bandwidth(10e-9)
    prof = DelayProfile.normalized([(1.2e-13, 0.3), (3.64e-13, 0.7)])
    t = np.linspace(1e-14, 5e-13, 77)
    assert np.array_equal(cross_correlation(src, prof, t), cross_correlation(src, prof, -t))


def test_jsi_zeros_spaced_by_fringe_period():
    # with phi = 0 and positive fringe sign the bracket 1 - cos(omega tau)
    # vanishes at multiples of 2 pi / tau
    src = BiphotonSource.from_bandwidth(10e-9)
    tau = 2.67e-13
    prof = DelayProfile.single(tau)
    zeros = np.arange(-3, 4) * 2.0 * math.pi / tau
    values = joint_spectral_intensity(src, prof, zeros)
    peak = float(np.max(joint_spectral_intensity(src, prof, np.linspace(-4e14, 4e14, 4001))))
    assert np.all(values <= 1e-12 * peak)


def test_jsi_linear_in_layer_weights():
    src = BiphotonSource.from_bandwidth(10e-9)
    omega = np.linspace(-3e14, 3e14, 501)
    prof = DelayProfile.normalized([(1.2e-13, 0.25), (2.0e-13, 0.75)])
    combined = joint_spectral_intensity(src, prof, omega)
    parts = 0.25 * joint_spectral_intensity(src, DelayProfile.single(1.2e-13), omega)
    parts = parts + 0.75 * joint_spectral_intensity(src, DelayProfile.single(2.0e-13), omega)
    assert combined == pytest.approx(parts, rel=1e-12, abs=1e-30)


def test_jsi_fringe_phase_pi_flips_sign():
    src = BiphotonSource.from_bandwidth(10e-9)
    prof = DelayProfile.single(2e-13)
    omega = np.linspace(-2e14, 2e14, 301)
    flipped = joint_spectral_intensity(src, prof, omega, phi=math.pi)
    x = fringe_factor(prof, omega, phi=0.0)
    expected = envelope_density(omega, src.sigma_spectral) * (1.0 + x) / 2.0
    assert flipped == pytest.approx(expected, rel=1e-9, abs=1e-30)


def test_fringe_factor_bounds():
    prof = DelayProfile.normalized([(1e-13, 0.5), (2e-13, 0.5)])
    omega = np.linspace(-5e14, 5e14, 2001)
    x = fringe_factor(prof, omega)
    assert np.all(np.abs(x) <= 1.0 + 1e-12)
    assert x[1000] == pytest.approx(1.0)  # omega = 0, phi = 0


def test_envelope_density_unit_mass():
    sigma = SIGMA_10NM
    omega = np.linspace(-40 * sigma, 40 * sigma, 400001)
    mass = np.trapezoid(envelope_density(omega, sigma), omega)
    assert mass == pytest.approx(1.0, rel=1e-9)
