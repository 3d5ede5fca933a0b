"""Record a perf-trajectory point: run each checkout's own benchmark/run.py
unchanged (--trace 0, its own run length) for every workload and seed, and
write BENCH_<n>.json.

    python3 scripts/bench_record.py --out BENCH_<n>.json CHECKOUT... --seeds 8000 8001

Checkouts take turns per (seed, workload), the order reversing each seed, so
all sides see the same host. Before any run, each checkout's src/ is compiled
once (``python -m compileall``) into a bytecode cache of its own under a temp
dir, which every run of that checkout reads through PYTHONPYCACHEPREFIX: a host
that sets PYTHONDONTWRITEBYTECODE would otherwise compile src/ from source in
every process, and the record would time the compiler. The runs may write to
that cache (PYTHONDONTWRITEBYTECODE is dropped): the prefix also hides the
bytecode of numpy and the standard library, which the tier-1 run, first of the
checkout's runs, compiles into the cache once. Per checkout: git rev,
src/ line count, compile time (compile_s), tier-1 wall time and pass, each
run's end-to-end metrics, check result and exit code, the metrics' medians
per workload, and the per-layer metrics of one --trace 1 run per workload at
the first seed (checkouts taking turns), which show where a change in the
end-to-end figures comes from. A run whose checks fail is recorded like any
other; the script then exits 1 once the record is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("mle-campaign", "cli-pipeline", "fisher-sweep")


def metrics(root, env, name, seed, trace):
    """One benchmark/run.py run in root under env: its metrics by name, whether
    its checks passed and its exit code. A run whose checks fail exits 1 and is
    recorded as such; a last stdout line that is not JSON stops the record."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", name,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "exit_code": proc.returncode,
            **{metric: m["value"] for metric, m in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        return record(args, Path(tmp))


def record(args, tmp: Path) -> int:
    """Write the record, each checkout's bytecode cached under tmp."""
    sides, envs = [], []
    for i, root in enumerate(args.checkouts):
        env = {var: v for var, v in os.environ.items() if var != "PYTHONDONTWRITEBYTECODE"}
        envs.append({**env, "PYTHONPYCACHEPREFIX": str(tmp / str(i))})
        started = time.monotonic()
        # the absolute path benchmark/run.py imports from, which names the cache
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root.resolve() / "src")],
                       env=envs[i], check=True)
        compile_s = time.monotonic() - started
        started = time.monotonic()
        tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                               cwd=root, env=envs[i], capture_output=True, check=False)
        lines = sum(p.read_bytes().count(b"\n") for p in root.glob("src/**/*.py"))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                             text=True, check=True).stdout.strip()
        sides.append({"git_rev": rev, "src_lines": lines, "compile_s": compile_s,
                      "tier1_wall_s": time.monotonic() - started,
                      "tier1_passed": tier1.returncode == 0,
                      "runs": {name: [] for name in WORKLOADS}, "trace": {}})
    for k, seed in enumerate(args.seeds):
        for name in WORKLOADS:
            for i in range(len(sides))[:: -1 if k % 2 else 1]:
                sides[i]["runs"][name].append(metrics(args.checkouts[i], envs[i], name, seed, 0))
    for name in WORKLOADS:
        for side, root, env in zip(sides, args.checkouts, envs):
            side["trace"][name] = metrics(root, env, name, args.seeds[0], 1)
    for side in sides:
        side["median"] = {name: {metric: statistics.median(r[metric] for r in runs)
                                 for metric in runs[0]
                                 if metric not in ("seed", "correct", "exit_code")}
                          for name, runs in side["runs"].items()}
    args.out.write_text(json.dumps({"seeds": args.seeds, "sides": sides}, indent=1) + "\n")
    failed = [(side["git_rev"], name, r["seed"]) for side in sides for name in WORKLOADS
              for r in [*side["runs"][name], side["trace"][name]] if not r["correct"]]
    for rev, name, seed in failed:
        print(f"checks failed: {rev[:12]} {name} seed {seed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
