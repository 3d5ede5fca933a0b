"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup``. ``op(i)``
runs operation ``i`` and returns what the benchmark needs to check it; every
call into qwkt goes through a module attribute looked up at call time, the
way a caller's imported name is, so the traced run's wrappers see it.
``record(i, outcome)`` runs outside the timed region: it checks the outcome,
counts attempts and failures, and keeps the accuracy figures. ``finish``
runs the end-of-run checks. Operations cycle with period ``cycle``; the
benchmark measures whole cycles so every run has the same mix.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import tempfile

from qwkt import biphoton, cli, estimation, hom, transform

HIT_STDERRS = 10.0  # a layer is recovered when within this many stderr
MIN_HIT_RATE = 0.9


def _check(value, limit: str, passed: bool) -> dict:
    return {"value": value, "limit": limit, "passed": bool(passed)}


class _FitWorkload:
    """Accuracy bookkeeping shared by the two workloads that fit delays."""

    true_taus: tuple[float, ...]

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.squared_errors: list[float] = []
        self.iterations: list[int] = []
        self.converged: list[bool] = []

    def _add_fit(self, layers, iterations, converged) -> None:
        """Count one fit; ``layers`` is ``[(tau_s, stderr_tau_s), ...]``."""
        self.attempted += 1
        values = [v for layer in layers for v in layer]
        if len(layers) != len(self.true_taus) or not all(map(math.isfinite, values)):
            self.failed += 1
            return
        errors = [tau - true for (tau, _), true in zip(layers, self.true_taus)]
        self.squared_errors += [e * e for e in errors]
        self.hits += all(
            abs(e) <= HIT_STDERRS * stderr for e, (_, stderr) in zip(errors, layers)
        )
        self.iterations.append(int(iterations))
        self.converged.append(bool(converged))

    def _add_failure(self) -> None:
        self.attempted += 1
        self.failed += 1

    def _hit_rate(self) -> float:
        return self.hits / self.attempted

    def _hit_check(self) -> dict:
        return _check(self._hit_rate(), f">= {MIN_HIT_RATE}", self._hit_rate() >= MIN_HIT_RATE)

    def figures(self) -> dict:
        n_ok = len(self.iterations)
        return {
            "tau_rmse_fs": 1e15 * math.sqrt(sum(self.squared_errors) / len(self.squared_errors))
            if n_ok else None,
            "hit_rate": self._hit_rate(),
            "mle_iterations_mean": sum(self.iterations) / n_ok if n_ok else 0.0,
            "mle_converged_frac": sum(self.converged) / n_ok if n_ok else 0.0,
        }

    def counts(self) -> tuple[int, int]:
        return self.attempted, self.failed


class MleCampaign(_FitWorkload):
    """Monte-Carlo calibration: ``sample_counts`` then a two-layer ``mle_fit``."""

    name = "mle-campaign"
    cycle = 1
    true_taus = (0.120e-12, 0.200e-12)
    n_bins = 256
    n_trials = 1_000_000

    def __init__(self, seed: int, workdir):
        super().__init__()
        self.seed = seed

    def setup(self) -> None:
        self.source = biphoton.BiphotonSource.from_bandwidth(10e-9)
        grid = transform.FrequencyGrid(
            omega_max=12.0 * self.source.sigma_spectral, n_bins=self.n_bins
        )
        self.model = hom.DetectionModel(grid, variant="two-port")
        profile = biphoton.DelayProfile.normalized([(t, 0.5) for t in self.true_taus])
        self.table = hom.outcome_probabilities(self.model, self.source, profile)

    def op(self, i: int):
        counts = hom.sample_counts(self.table, self.n_trials, seed=self.seed * 10_000 + i)
        return estimation.mle_fit(counts, self.model, self.source, k_layers=2)

    def record(self, i: int, fit) -> None:
        if isinstance(fit, Exception):
            self._add_failure()
            return
        layers = [(tau, stderr) for (tau, _), stderr in zip(fit.layers, fit.stderr_tau)]
        self._add_fit(layers, fit.iterations, fit.converged)

    def finish(self) -> dict:
        return {"hit_rate": self._hit_check()}

    def close(self) -> None:
        pass


class CliPipeline(_FitWorkload):
    """An analyst's path: ``qwkt simulate`` then ``qwkt estimate --mle --layers 3``."""

    name = "cli-pipeline"
    cycle = 1
    layers_spec = "0.12:0.4,0.2:0.3,0.4:0.3"
    true_taus = (0.12e-12, 0.2e-12, 0.4e-12)
    data_files = ("counts.csv", "estimate.json", "estimate.correlation.csv")

    def __init__(self, seed: int, workdir, bins: int = 4096):
        super().__init__()
        self.seed = seed
        self.workdir = workdir
        self.bins = bins
        self.failed_calls = 0
        self.reference: dict[str, bytes] | None = None
        self.identical = True

    def setup(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)

    def _dir(self, i: int) -> str:
        return os.path.join(self.tmp, f"op-{i}")

    def op(self, i: int):
        folder = self._dir(i)
        os.makedirs(folder, exist_ok=True)
        counts = os.path.join(folder, "counts.csv")
        model = ["--alpha", "0.95", "--gamma", "0.1", "--trials", "1000000"]
        simulate = cli.main([
            "simulate", "--layers", self.layers_spec, "--bins", str(self.bins),
            "--seed", str(self.seed * 10_000 + i), "--out", counts, *model,
        ])
        if simulate != 0:
            return (simulate,)
        return simulate, cli.main([
            "estimate", "--input", counts, "--mle", "--layers", "3",
            "--out", os.path.join(folder, "estimate.json"), *model,
        ])

    def _read_data(self, i: int) -> dict[str, bytes]:
        out = {}
        for name in self.data_files:
            with open(os.path.join(self._dir(i), name), "rb") as handle:
                out[name] = handle.read()
        return out

    def _compare_with_first(self, i: int) -> None:
        """Op 0 runs twice in a traced run and again in ``finish``: same bytes every time."""
        data = self._read_data(i)
        if self.reference is None:
            self.reference = data
        else:
            self.identical &= data == self.reference

    def record(self, i: int, codes) -> None:
        if isinstance(codes, Exception) or codes != (0, 0):
            self.failed_calls += 1
            self._add_failure()
            return
        if i == 0:
            self._compare_with_first(0)
        with open(os.path.join(self._dir(i), "estimate.json"), encoding="utf-8") as handle:
            mle = json.load(handle).get("mle")
        if i != 0:
            shutil.rmtree(self._dir(i))
        if mle is None:
            self._add_failure()
            return
        layers = [(layer["tau_s"], layer["stderr_tau_s"]) for layer in mle["layers"]]
        self._add_fit(layers, mle["iterations"], mle["converged"])

    def finish(self) -> dict:
        if self.op(0) == (0, 0):
            self._compare_with_first(0)
        else:
            self.failed_calls += 1
        identical = self.identical and self.reference is not None
        return {
            "exit_codes_zero": _check(self.failed_calls, "== 0", self.failed_calls == 0),
            "rerun_byte_identical": _check(identical, "true", identical),
            "hit_rate": self._hit_check(),
        }

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class FisherSweep:
    """Precision maps: ``qwkt sweep`` tau curves over eight settings.

    The settings are variant x alpha x gamma. Each op is one sweep call for
    one (variant, gamma) pair that draws the tau curve at both visibilities,
    alpha = 1 and 0.9: an alpha = 1 curve alone costs from 1/200 to 1/5 of
    an alpha = 0.9 one, so one curve per call would split the ops into a
    cheap and a costly half and put the median latency on the gap.

    Long-delay cells at alpha < 1 cost and fail erratically with the exact
    delay, so every op draws its own endpoints (within ``tau_jitter`` of
    0.05 and 10 ps) from the workload seed and the op index; a run then
    averages over many of them instead of repeating one draw. The curve has
    ``tau_points`` = 2 points, its two endpoints: a mid-range cell would add
    half again to an op's cost, and the benchmark needs 40 ops in a run.
    """

    name = "fisher-sweep"
    settings = tuple(
        (variant, gamma) for variant in ("two-port", "trinomial") for gamma in ("0", "0.2")
    )
    alpha_axis = "0.9:1:2"
    cycle = len(settings)
    sigma_nm = 10.0
    tau_jitter = 0.03
    tau_points = 2
    cells = 2 * tau_points

    def __init__(self, seed: int, workdir, tau_stop_ps: float = 10.0):
        self.seed = seed
        self.workdir = workdir
        self.tau_stop_ps = tau_stop_ps
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.ideal_cells = 0

    def setup(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)

    def _out(self, i: int) -> str:
        return os.path.join(self.tmp, f"setting-{i % self.cycle}.csv")

    def _tau_axis(self, i: int) -> str:
        rng = random.Random(self.seed * 10_000 + i)
        start, stop = (
            end * (1.0 + rng.uniform(-self.tau_jitter, self.tau_jitter))
            for end in (0.05, self.tau_stop_ps)
        )
        return f"{start!r}:{stop!r}:{self.tau_points}ps"

    def op(self, i: int):
        variant, gamma = self.settings[i % self.cycle]
        return cli.main([
            "sweep", "--variant", variant, "--sigma-axis", str(self.sigma_nm),
            "--tau-axis", self._tau_axis(i), "--gamma-axis", gamma,
            "--alpha-axis", self.alpha_axis, "--out", self._out(i),
        ])

    def record(self, i: int, code) -> None:
        self.attempted += self.cells
        if isinstance(code, Exception) or not os.path.isfile(self._out(i)):
            self.failed += self.cells
            return
        with open(self._out(i), encoding="utf-8") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        os.remove(self._out(i))
        self.failed += self.cells - len(rows)
        for row in rows:
            if row["error"]:
                self.failed += 1
            elif row["variant"] == "two-port" and float(row["alpha"]) == 1.0:
                sigma, gamma = float(row["sigma_rad_per_s"]), float(row["gamma"])
                expected = 4.0 * sigma**2 * (1.0 - gamma) ** 2
                rel = abs(float(row["g_omega"]) / expected - 1.0)
                self.max_rel_err = max(self.max_rel_err, rel)
                self.ideal_cells += 1

    def finish(self) -> dict:
        ok = self.ideal_cells > 0 and self.max_rel_err <= 1e-6
        return {"fisher_max_rel_err": _check(self.max_rel_err, "<= 1e-6", ok)}

    def figures(self) -> dict:
        return {"fisher_max_rel_err": self.max_rel_err}

    def counts(self) -> tuple[int, int]:
        return self.attempted, self.failed

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MleCampaign, CliPipeline, FisherSweep)}
