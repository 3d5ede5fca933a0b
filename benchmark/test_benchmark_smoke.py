"""Smoke test of the benchmark: each workload at a tiny size, untraced and
traced, emits every metric BENCHMARK.json names and runs every check.

Run with ``python3 -m pytest benchmark`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "mle-campaign": {},
    "cli-pipeline": {"bins": 512},
    "fisher-sweep": {"tau_stop_ps": 1.0},
}
LAYERS = ("biphoton", "transform", "hom", "estimation", "io", "cli")


@pytest.fixture(autouse=True)
def _restore_environment(monkeypatch):
    """``run.prepare_imports`` pins thread variables; undo that afterwards."""
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("QWKT_THREADS", raising=False)


def test_workload_names_match():
    run.prepare_imports()
    from workloads import WORKLOADS

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS) == set(TINY)
    contract = run.load_contract()
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric(name):
    contract = run.load_contract()
    for trace, specs in ((False, contract["end_to_end"]), (True, contract["per_layer"])):
        result, report = run.run(name, seed=11, seconds=0.0, trace=trace,
                                 setup_probes=1, min_ops=1, **TINY[name])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert [m for m in result["metrics"]] == [m["name"] for m in specs]
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])
        assert report["checks"] and all("passed" in c for c in report["checks"].values())
        assert result["correct"], report["checks"]
        assert result["attempted"] >= 1
        json.dumps(result)
        json.dumps(report)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(values[f"{layer}.busy_s"] for layer in LAYERS) + values["bench.op.self_s"]
    assert layers == pytest.approx(values["trace.op_latency_s"], rel=1e-9)
    assert values["trace.op_latency_s"] == pytest.approx(1 / values["trace.ops_per_s"], rel=0.01)
    if name == "fisher-sweep":
        assert values["estimation.mle_fit.calls"] == 0
    if name == "mle-campaign":
        assert values["estimation.fisher_information.calls"] == 0
        assert all(v == 0 for k, v in values.items() if k.startswith("io.") and k.endswith(".bytes"))


def test_fails_without_sources(tmp_path):
    shutil.copy(run.CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "mle-campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
