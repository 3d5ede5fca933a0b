"""Record a perf-trajectory point: run each checkout's own benchmark/run.py
unchanged (--trace 0, its own run length) for every workload and seed, and
write BENCH_<n>.json.

    python3 scripts/bench_record.py --out BENCH_<n>.json CHECKOUT... --seeds 8000 8001

Checkouts take turns per (seed, workload), the order reversing each seed, so
all sides see the same host. Per checkout: git rev, src/ line count, tier-1
wall time and pass, each run's end-to-end metrics and their medians per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mle-campaign", "cli-pipeline", "fisher-sweep")


def run(root, *argv):
    """stdout of argv run in root; its stderr passes through, and a failure stops the record."""
    return subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args()
    sides = []
    for root in args.checkouts:
        started = time.monotonic()
        tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                               cwd=root, capture_output=True, check=False)
        lines = sum(p.read_bytes().count(b"\n") for p in root.glob("src/**/*.py"))
        sides.append({"git_rev": run(root, "git", "rev-parse", "HEAD").strip(), "src_lines": lines,
                      "tier1_wall_s": time.monotonic() - started,
                      "tier1_passed": tier1.returncode == 0,
                      "runs": {name: [] for name in WORKLOADS}})
    for k, seed in enumerate(args.seeds):
        for name in WORKLOADS:
            for i in range(len(sides))[:: -1 if k % 2 else 1]:
                out = run(args.checkouts[i], sys.executable, "benchmark/run.py", "--workload", name,
                          "--seed", str(seed), "--trace", "0")
                result = json.loads(out.splitlines()[-1])
                sides[i]["runs"][name].append({"seed": seed, "correct": result["correct"], **{
                    metric: m["value"] for metric, m in result["metrics"].items()}})
    for side in sides:
        side["median"] = {name: {metric: statistics.median(r[metric] for r in runs)
                                 for metric in runs[0] if metric not in ("seed", "correct")}
                          for name, runs in side["runs"].items()}
    args.out.write_text(json.dumps({"seeds": args.seeds, "sides": sides}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
