"""qwkt benchmark: one command, three workloads, one closed-loop client.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. Workloads: ``mle-campaign``,
``cli-pipeline``, ``fisher-sweep`` (see README.md next to this file).

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every operation twice in a row with the same inputs:
once untraced, and once with every public layer function wrapped in a span
(see ``spans.py``). It reports the per-layer metrics and the tracing
overhead, and writes the spans to
``benchmark/out/trace-<workload>-seed<n>.json``.

Times are speed-normalized. A shared host runs the same code up to twice as
slowly from one second to the next, so a fixed reference computation that
does not touch qwkt runs between consecutive ops, and each op's wall time is
scaled by ``REF_NOMINAL_S`` over the median of the reference times nearest
to it: the figures are seconds at the speed where the reference takes
``REF_NOMINAL_S``. Each ``setup_s`` probe runs the reference in its own
process right after it is ready, and is scaled by that time. The raw
wall-clock figures are in the report line.

The last line of standard output is the result as JSON; the line before it
is a report with the environment, the checks, the wall-clock figures and the
workload's accuracy figures. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CONTRACT = ROOT / "BENCHMARK.json"
SETUP_PROBES = 3
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
MIN_OPS = 4 * TAIL_BEYOND  # so the untraced tail is at least the 75th percentile
# An op is normalized by the median of the REF_WINDOW reference times before
# it and the REF_WINDOW after it. One reference on each side is noisier, and
# leaves about twice as much of the host's speed in the normalized figures.
REF_WINDOW = 4
# Median of reference_seconds() on the machine the README's baseline comes from.
REF_NOMINAL_S = 0.006
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mle-campaign", "cli-pipeline", "fisher-sweep")


def prepare_imports() -> None:
    """Pin numeric libraries to one thread and import qwkt from ``src/`` only.

    Raises ``FileNotFoundError`` when the checkout has no ``src/qwkt``.
    """
    if not (SRC / "qwkt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qwkt sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QWKT_THREADS", None)
    for path in (SRC, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import qwkt

    if not Path(qwkt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qwkt imported from {qwkt.__file__}, not from {SRC}")


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not touch qwkt.

    Pure-Python arithmetic and small numpy calls, the two kinds of work the
    workloads spend their time in.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 256)
    started = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += i * i
    for i in range(300):
        total += float(np.sum(np.cos(x * i)))
    return time.perf_counter() - started


def make_workload(name: str, seed: int, workdir, **sizes):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, **sizes)


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Launch a fresh interpreter and time it until the first op is ready.

    Returns the wall seconds and the median of three reference times the
    probe process took right after it was ready.
    """
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    ready, ref = map(float, proc.stdout.split()[-2:])
    return ready - started, ref


def _probe_main(name: str, seed: int) -> int:
    import qwkt.cli  # noqa: F401  (what every CLI user pays)

    OUT.mkdir(exist_ok=True)
    workload = make_workload(name, seed, OUT)
    workload.setup()
    ready = time.monotonic()
    workload.close()
    ref = statistics.median(reference_seconds() for _ in range(3))
    print(repr(ready), repr(ref))
    return 0


def measure(workload, seconds: float, min_ops: int = MIN_OPS, tracer=None) -> list[dict]:
    """Closed loop, one client, in whole cycles of ops.

    Without a ``tracer`` it runs ops until ``seconds`` have passed and at
    least ``min_ops`` have run, and returns one loop. With one, every op runs
    twice in a row with the same inputs, untraced (no wrappers installed)
    and traced, in alternating order so both sides see the same host speed;
    ``min_ops`` does not apply, and the untraced loop comes first.

    The reference computation runs before the first op and after each run
    of an op.
    """
    sides = [{"latencies": [], "wall_latencies": [], "scales": [], "warnings": 0, "errors": []}
             for _ in range(1 if tracer is None else 2)]
    runs = []  # (side, wall seconds) in the order the ops ran
    refs = [reference_seconds()]
    gc.collect()
    started = time.perf_counter()
    i = 0
    while True:
        for traced in (False,) if tracer is None else ((False, True), (True, False))[i % 2]:
            side = sides[traced]
            if traced:
                tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    if traced:
                        outcome = tracer.run_op(i, caught, workload.op, i)
                    else:
                        outcome = workload.op(i)
                except Exception as exc:  # a failed op is counted, the run goes on
                    outcome = exc
                    side["errors"].append(repr(exc))
                wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            refs.append(reference_seconds())
            runs.append((side, wall))
            side["wall_latencies"].append(wall)
            side["warnings"] += len(caught)
            workload.record(i, outcome)
        i += 1
        if (i % workload.cycle == 0 and (tracer is not None or i >= min_ops)
                and time.perf_counter() - started >= seconds):
            break
    # Run k ran between refs[k] and refs[k + 1].
    for k, (side, wall) in enumerate(runs):
        local = statistics.median(refs[max(0, k + 1 - REF_WINDOW):k + 1 + REF_WINDOW])
        side["scales"].append(REF_NOMINAL_S / local)
        side["latencies"].append(wall * side["scales"][-1])
    speed = REF_NOMINAL_S / statistics.median(refs)
    for side in sides:
        side.update(ops=i, speed=speed, errors=side["errors"][:3])
    return sides


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ``TAIL_BEYOND`` samples above it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def rate(loop: dict) -> float:
    """Normalized closed-loop throughput: ops over their summed normalized latency."""
    return len(loop["latencies"]) / sum(loop["latencies"])


def end_to_end(loop: dict, setup_s: float, attempted: int, failed: int) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": rate(loop),
        "latency_p50_s": statistics.median(loop["latencies"]),
        "latency_tail_s": tail(loop["latencies"])[0],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced: dict, traced: dict, figures: dict) -> dict:
    """Per-op means from the traced runs of the ops: self time, calls, failures, bytes.

    ``busy_s`` and ``self_s`` are both self time per op, each span scaled
    like the latency of its op; the six layer totals plus
    ``bench.op.self_s`` (the workload's own code inside an op) add up to
    ``trace.op_latency_s``.
    """
    from spans import LAYERS, ROOT as OP_SPAN

    stats = tracer.stats(traced["scales"])
    n = stats[OP_SPAN].calls
    scale = 1.0 / n
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = s.calls / n
        out[f"{name}.busy_s"] = out[f"{name}.self_s"] = s.self_s * scale
        out[f"{name}.failed"] = s.failed / n
        out[f"{name}.warnings"] = s.warnings / n
        out[f"{name}.bytes"] = s.nbytes / n
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = scale * sum(
            s.self_s for name, s in stats.items() if name.startswith(layer + ".")
        )
    out["trace.op_latency_s"] = stats[OP_SPAN].total_s * scale
    out["estimation.mle_fit.iterations_mean"] = figures.get("mle_iterations_mean", 0.0)
    out["estimation.mle_fit.converged_frac"] = figures.get("mle_converged_frac", 0.0)
    out["trace.untraced_ops_per_s"] = rate(untraced)
    out["trace.ops_per_s"] = rate(traced)
    out["trace.overhead_frac"] = out["trace.untraced_ops_per_s"] / out["trace.ops_per_s"] - 1.0
    return out


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        rev = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "threads": {var: os.environ.get(var) for var in (*THREAD_VARS, "QWKT_THREADS")},
    }


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES,
        min_ops: int = MIN_OPS, **sizes) -> tuple[dict, dict]:
    """Run one workload; return (result, report) as printed by ``main``."""
    prepare_imports()
    from spans import Tracer

    contract = load_contract()
    probes = [] if trace else [setup_probe(name, seed) for _ in range(setup_probes)]
    OUT.mkdir(exist_ok=True)
    workload = make_workload(name, seed, OUT, **sizes)
    workload.setup()
    tracer = Tracer() if trace else None
    try:
        loops = measure(workload, seconds, min_ops, tracer)
        checks = workload.finish()
    finally:
        workload.close()
    attempted, failed = workload.counts()
    figures = workload.figures()
    if trace:
        values = per_layer(tracer, *loops, figures)
        specs = contract["per_layer"]
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_file)
    else:
        setup_s = statistics.median(wall * REF_NOMINAL_S / ref for wall, ref in probes)
        values = end_to_end(loops[0], setup_s, attempted, failed)
        specs = contract["end_to_end"]
        trace_file = None
    _, tail_pct, samples = tail(loops[0]["latencies"])
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": [loop["ops"] for loop in loops],
        "latency_tail_pct": tail_pct,
        "latency_samples": samples,
        "failed_frac": failed / attempted,
        "warnings": sum(loop["warnings"] for loop in loops),
        "op_errors": [e for loop in loops for e in loop["errors"]],
        "wall": {
            "speed": [loop["speed"] for loop in loops],
            "ops_per_s": [loop["ops"] / sum(loop["wall_latencies"]) for loop in loops],
            "latency_p50_s": [statistics.median(loop["wall_latencies"]) for loop in loops],
            "setup_s": [wall for wall, _ in probes],
            "setup_ref_s": [ref for _, ref in probes],
        },
        "figures": figures,
        "checks": checks,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "env": environment(),
    }
    result = {
        "correct": all(c["passed"] for c in checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare_imports()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe_main(args.workload, args.seed)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
