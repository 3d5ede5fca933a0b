"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the suite both reports and enforces.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from qwkt import (
    BiphotonSource,
    DelayProfile,
    DetectionModel,
    FrequencyGrid,
    JointAmplitude,
    SpectralPattern,
    TemporalCorrelation,
    TemporalGrid,
    antibunch_amplitude,
    coincidence_probability,
    cross_correlation,
    default_frequency_grid,
    extract_delays,
    fisher_information,
    forward_qwkt,
    inverse_qwkt,
    joint_spectral_intensity,
    mle_fit,
    outcome_probabilities,
    quantum_fisher_information,
    sample_counts,
)
from qwkt.cli import main as cli_main

SRC = BiphotonSource.from_bandwidth(10e-9)
SIGMA = SRC.sigma_spectral
FOUR_SIGMA_SQ = 4.0 * SIGMA**2


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_ac01_transform_matches_closed_forms():
    """Forward transform of the closed-form correlation reproduces the
    closed-form spectral density to 1e-6 inside the six-width band."""
    prof = DelayProfile.normalized([(1.2e-13, 0.5), (2.67e-13, 0.5)])
    # pad the window beyond the comparison band so edge residue stays
    # below the tolerance
    grid = default_frequency_grid(SRC, n_bins=4096, span_sd=9.0)
    tg = TemporalGrid.conjugate_of(grid)
    corr = TemporalCorrelation(tg, cross_correlation(SRC, prof, tg.values) / 2.0)
    t0 = time.perf_counter()
    got = forward_qwkt(corr)
    elapsed = time.perf_counter() - t0
    expected = joint_spectral_intensity(SRC, prof, grid.values, phi=math.pi)
    band = np.abs(grid.values) <= 6.0 * (2.0 * SIGMA)
    denom = np.maximum(expected[band], 1e-8 * expected.max())
    err = float(np.max(np.abs(got.values[band] - expected[band]) / denom))
    _line(
        "AC1",
        err <= 1e-6 and elapsed < 1.0,
        f"max rel err {err:.2e} <= 1e-6 over |omega| <= 12 sigma; forward took {elapsed:.3f}s",
    )


def test_ac02_roundtrip_identity():
    """inverse then forward is the identity to 1e-9 on 20 random
    band-limited spectra."""
    grid = default_frequency_grid(SRC, n_bins=4096, span_sd=6.0)
    n = grid.n_bins
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        values = np.zeros(n)
        lo, hi = n // 4, 3 * n // 4
        x = np.linspace(0.0, 1.0, hi - lo)
        for k, a in enumerate(rng.uniform(0.2, 1.0, size=8)):
            values[lo:hi] += a * np.cos(math.pi * k * x) ** 2
        values[lo:hi] *= np.sin(math.pi * x) ** 2
        pat = SpectralPattern(grid, values)
        back = forward_qwkt(inverse_qwkt(pat))
        worst = max(worst, float(np.max(np.abs(back.values - values)) / values.max()))
    _line("AC2", worst <= 1e-9, f"worst roundtrip error {worst:.2e} <= 1e-9 over 20 seeds")


def test_ac03_interference_dip():
    """Coincidence probability: exact null at zero delay and quadrature
    agreement with the closed form at five delays."""
    exact_zero = coincidence_probability(SRC, 0.0) == 0.0

    # |antibunch|^2 over the rotated (sum u, difference v) plane on a
    # product of composite Gauss-Legendre rules; the rotation's Jacobian is 1/2
    amp = JointAmplitude(SRC)
    sp = amp.sum_bandwidth
    uc = amp.sum_center
    x, w = np.polynomial.legendre.leggauss(16)

    def rule(lo, hi, panels):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        return (edges[:-1, None] + half + half * x).ravel(), (half * w).ravel()

    u, wu = rule(uc - 8.0 * sp, uc + 8.0 * sp, 4)
    v, wv = rule(-32.0 * SIGMA, 32.0 * SIGMA, 256)  # quarter-sigma panels resolve cos(v tau)

    def quadrature(tau):
        ws = 0.5 * (u[:, None] + v)
        wi = 0.5 * (u[:, None] - v)
        return 0.5 * wu @ np.abs(antibunch_amplitude(amp, tau, ws, wi)) ** 2 @ wv

    worst = 0.0
    for tau in (1e-14, 5e-14, 1e-13, 2e-13, 5e-13):
        closed = coincidence_probability(SRC, tau)
        worst = max(worst, abs(closed - quadrature(tau)) / closed)
    _line(
        "AC3",
        exact_zero and worst <= 1e-6,
        f"P(0) == 0 exactly; closed form vs 2D quadrature max rel err {worst:.2e} at 5 delays",
    )


def test_ac04_information_ceiling_and_loss_scaling():
    """Ideal two-port information rate equals 4 sigma^2 at all probed
    delays; loss rescales it by the pair survival probability."""
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    worst = 0.0
    for tau_ps in (0.05, 0.5, 2.0):
        rep = fisher_information(SRC, tau_ps * 1e-12, DetectionModel(grid))
        worst = max(worst, abs(rep.g_omega / FOUR_SIGMA_SQ - 1.0))
    clean = fisher_information(SRC, 5e-13, DetectionModel(grid)).g_omega
    lossy = fisher_information(SRC, 5e-13, DetectionModel(grid, gamma=0.2)).g_omega
    loss_err = abs(lossy / clean - 0.64)
    _line(
        "AC4",
        worst <= 1e-6 and loss_err <= 1e-6,
        f"|G/4sigma^2 - 1| <= {worst:.2e} at 0.05/0.5/2 ps; "
        f"loss ratio error {loss_err:.2e} at gamma=0.2",
    )


def test_ac05_visibility_collapse_and_monotonicity():
    """Partial visibility kills the information at tiny delay, grows
    monotonically over small delays, and grows with bandwidth."""
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=64)
    tiny = fisher_information(SRC, 1e-4 / SIGMA, DetectionModel(grid, alpha=0.9)).g_omega
    collapse = tiny <= 1e-4 * FOUR_SIGMA_SQ

    # monotone climb holds below sigma*tau ~ 0.45; probe up to 0.4
    taus = np.linspace(0.02, 0.4, 20) / SIGMA
    gs = [fisher_information(SRC, float(t), DetectionModel(grid, alpha=0.9)).g_omega for t in taus]
    tau_monotone = bool(np.all(np.diff(gs) > 0.0))

    sigmas = np.linspace(0.5 * SIGMA, 3.0 * SIGMA, 20)
    gsig = []
    for s in sigmas:
        src = BiphotonSource(sigma_spectral=float(s))
        g = FrequencyGrid(omega_max=12.0 * float(s), n_bins=64)
        gsig.append(fisher_information(src, 5e-13, DetectionModel(g, alpha=0.9)).g_omega)
    sigma_monotone = bool(np.all(np.diff(gsig) > 0.0))

    _line(
        "AC5",
        collapse and tau_monotone and sigma_monotone,
        f"G(1e-4/sigma)/4sigma^2 = {tiny / FOUR_SIGMA_SQ:.2e} <= 1e-4; "
        f"tau-monotone over 20 points (sigma tau <= 0.4): {tau_monotone}; "
        f"sigma-monotone over 20 points: {sigma_monotone}",
    )


def test_ac06_single_layer_reconstruction():
    """Each probe delay is recovered from its noiseless spectrum within
    one temporal grid step, in under a second."""
    results = []
    ok = True
    for tau_ps in (0.120, 0.200, 0.267, 0.364):
        tau = tau_ps * 1e-12
        grid = default_frequency_grid(SRC, n_bins=4096, span_sd=6.0)
        pattern = SpectralPattern(grid, joint_spectral_intensity(SRC, DelayProfile.single(tau), grid.values))
        t0 = time.perf_counter()
        report = extract_delays(pattern, SRC)
        elapsed = time.perf_counter() - t0
        hit = (
            len(report.taus) == 1
            and abs(report.taus[0] - tau) <= report.grid_resolution
            and elapsed < 1.0
        )
        ok = ok and hit
        results.append(f"{tau_ps}ps:{'ok' if hit else 'MISS'}({elapsed * 1e3:.0f}ms)")
    _line("AC6", ok, "; ".join(results))


def test_ac07_two_layer_reconstruction():
    """Well-separated layer pairs resolve by peak picking alone; close
    pairs resolve by the likelihood fit in at least 90 of 100 seeds."""
    suite_start = time.perf_counter()

    grid = default_frequency_grid(SRC, n_bins=4096, span_sd=6.0)
    prof_wide = DelayProfile.normalized([(0.120e-12, 0.5), (0.267e-12, 0.5)])
    pattern = SpectralPattern(grid, joint_spectral_intensity(SRC, prof_wide, grid.values))
    report = extract_delays(pattern, SRC)
    peaks_ok = (
        len(report.taus) == 2
        and abs(report.taus[0] - 0.120e-12) <= report.grid_resolution
        and abs(report.taus[1] - 0.267e-12) <= report.grid_resolution
    )

    fit_grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=256)
    model = DetectionModel(fit_grid, variant="two-port")
    prof_close = DelayProfile.normalized([(0.120e-12, 0.5), (0.200e-12, 0.5)])
    table = outcome_probabilities(model, SRC, prof_close)
    hits = 0
    for seed in range(100):
        counts = sample_counts(table, 1_000_000, seed=seed)
        fit = mle_fit(counts, model, SRC, k_layers=2)
        ok_seed = abs(fit.layers[0][0] - 0.120e-12) <= 10.0 * fit.stderr_tau[0] and abs(
            fit.layers[1][0] - 0.200e-12
        ) <= 10.0 * fit.stderr_tau[1]
        hits += int(ok_seed)
    elapsed = time.perf_counter() - suite_start
    _line(
        "AC7",
        peaks_ok and hits >= 90 and elapsed < 600.0,
        f"peaks-only pair recovered: {peaks_ok}; MLE within 10 stderr in {hits}/100 seeds; "
        f"{elapsed:.0f}s < 600s",
    )


def test_ac08_estimator_efficiency():
    """Monte-Carlo spread of the single-layer delay estimate sits inside
    [0.8, 1.6] times the bound 1/(2 sigma sqrt(N))."""
    n_trials = 100_000
    tau = 0.2e-12
    grid = FrequencyGrid(omega_max=12.0 * SIGMA, n_bins=256)
    model = DetectionModel(grid, variant="two-port")
    table = outcome_probabilities(model, SRC, DelayProfile.single(tau))
    hats = []
    for seed in range(100):
        counts = sample_counts(table, n_trials, seed=seed)
        fit = mle_fit(counts, model, SRC, k_layers=1)
        hats.append(fit.layers[0][0])
    std = float(np.std(hats, ddof=1))
    crb = 1.0 / (2.0 * SIGMA * math.sqrt(n_trials))
    ratio = std / crb
    _line("AC8", 0.8 <= ratio <= 1.6, f"MC std / CRB = {ratio:.3f} over 100 seeds at N=1e5")


def test_ac09_quantum_bound():
    """Quantum information rate equals sigma^2; the reported bound prints
    exactly as 1/(2 sigma sqrt(N))."""
    rep = quantum_fisher_information(SRC, 1)
    var, _ = integrate.quad(
        lambda w: w * w * math.exp(-(w**2) / (8.0 * SIGMA**2)) / math.sqrt(8.0 * math.pi * SIGMA**2),
        -40.0 * SIGMA,
        40.0 * SIGMA,
        limit=200,
    )
    q_err = abs(rep.q / (var / 4.0) - 1.0)
    printed_ok = all(
        format(quantum_fisher_information(SRC, n).qcrb, ".17g")
        == format(1.0 / (2.0 * SIGMA * math.sqrt(n)), ".17g")
        for n in (1, 100, 10_000, 1_000_000)
    )
    _line(
        "AC9",
        q_err <= 1e-6 and printed_ok,
        f"|Q/sigma^2 - 1| = {q_err:.2e} <= 1e-6; printed bound matches at 17 digits: {printed_ok}",
    )


def test_ac10_deterministic_outputs(tmp_path):
    """Running the same commands twice overwrites every data file with
    byte-identical content."""
    spec = tmp_path / "counts.csv"
    est = tmp_path / "estimate.json"
    fisher = tmp_path / "fisher.csv"
    files = [spec, est, tmp_path / "estimate.correlation.csv", fisher]

    def run_all():
        assert cli_main([
            "simulate", "--layers", "0.12:0.5,0.267:0.5", "--trials", "200000",
            "--seed", "17", "--bins", "512", "--out", str(spec),
        ]) == 0
        assert cli_main([
            "estimate", "--input", str(spec), "--trials", "200000", "--out", str(est),
        ]) == 0
        assert cli_main([
            "fisher", "--sigma-nm", "10", "--tau-axis", "0.05:1:5ps", "--out", str(fisher),
        ]) == 0

    run_all()
    first = [p.read_bytes() for p in files]
    run_all()
    same = all(p.read_bytes() == before for p, before in zip(files, first))
    names = ", ".join(p.name for p in files)
    _line("AC10", same, f"byte-identical across consecutive runs: {names}")
