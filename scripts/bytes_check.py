"""Check that two checkouts give the same CLI outputs: run one fixed list of
qwkt commands in each, and compare what they leave behind.

    python3 scripts/bytes_check.py PARENT CHANGE

Each checkout runs the commands in its own temp dir, one process per command,
with its own src/ on PYTHONPATH; each temp dir starts with the same hand-made
input files (a spectrum that is not UTF-8, one with a cell past csv's field
limit). Compared: every output file byte for byte, except the manifests
(*.manifest.json), compared as JSON without duration_seconds; and each
command's exit code and stderr (the checkout's path spelled <checkout>).
Every difference is printed; the exit code is 1 if there is any, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_PIPELINE_MODEL = ["--alpha", "0.95", "--gamma", "0.1", "--trials", "1000000"]
_ONE_LAYER = ["--sigma-nm", "10", "--alpha", "0.95", "--gamma", "0.1", "--trials", "1000000"]
_TRINOMIAL = ["--variant", "trinomial", "--sigma-nm", "10", "--trials", "2000"]
_INPUTS = {
    "not-utf8.csv": b"wavelength_nm,counts\n\xff\xfe,1\n",
    "long-cell.csv": b"wavelength_nm,counts\n" + b"8" * 2**17 + b".5,1\n",
}


def _commands() -> list[list[str]]:
    """The command list; later commands read the files of earlier ones."""
    commands = []
    for seed in (1, 2, 3):  # the cli-pipeline benchmark's shape
        commands += [
            ["simulate", "--layers", "0.12:0.4,0.2:0.3,0.4:0.3", "--bins", "4096",
             "--seed", str(seed), "--out", f"pipeline-{seed}.csv", *_PIPELINE_MODEL],
            ["estimate", "--input", f"pipeline-{seed}.csv", "--mle", "--layers", "3",
             "--out", f"pipeline-{seed}.json", *_PIPELINE_MODEL],
        ]
    commands += [
        # three layers fitted to one: the padded-layer scan
        ["simulate", "--tau-ps", "0.5", "--bins", "256", "--seed", "4", "--out", "one.csv",
         *_ONE_LAYER],
        ["estimate", "--input", "one.csv", "--mle", "--layers", "3", "--out", "one.json",
         *_ONE_LAYER],
        ["simulate", "--tau-ps", "0.3", "--bins", "256", "--seed", "5", "--out", "tri.csv",
         *_TRINOMIAL],
        ["estimate", "--input", "tri.csv", "--mle", "--layers", "1", "--out", "tri.json",
         *_TRINOMIAL],
        ["simulate", "--ideal", "--tau-ps", "0.3", "--bins", "1024", "--out", "ideal.csv"],
        ["estimate", "--input", "ideal.csv", "--out", "ideal.json"],
        ["fisher", "--tau-axis", "1e306", "--alpha", "0.9", "--out", "huge.csv"],  # exit 4
        ["estimate", "--input", "missing.csv", "--out", "missing.json"],  # exit 3
        ["sweep", "--sigma-axis", "0:20:3", "--out", "zero-bandwidth.csv"],  # exit 2
        ["estimate", "--input", "not-utf8.csv", "--out", "not-utf8.json"],  # exit 3
        ["estimate", "--input", "long-cell.csv", "--out", "long-cell.json"],  # exit 3
        # omega_max squared overflows: the cell fails (exit 4), and beside a computed cell
        ["sweep", "--sigma-axis", "1.04e141", "--out", "wide.csv"],
        ["sweep", "--sigma-axis", "1e140:1e142:2", "--out", "wider.csv"],
    ]
    for variant in ("two-port", "trinomial"):
        commands += [
            ["fisher", "--variant", variant, "--tau-axis", "0:2:21ps", "--gamma", "0.1",
             "--alpha", "0.9", "--out", f"fisher-{variant}.csv"],
            # gamma = 1 cells fail to build their model
            ["sweep", "--variant", variant, "--sigma-axis", "5:20:3", "--tau-axis", "0:2:4ps",
             "--gamma-axis", "0:1:3", "--alpha-axis", "0.8:1:3",
             "--out", f"sweep-{variant}-a.csv"],
            # negative alpha cells fail to build, the 1e300 s delay fails to integrate
            ["sweep", "--variant", variant, "--sigma-axis", "10", "--tau-axis", "1e-13:1e300:3s",
             "--gamma-axis", "0.2", "--alpha-axis=-0.5:1:4",
             "--out", f"sweep-{variant}-b.csv"],
        ]
    return commands


def run(root: Path, workdir: Path) -> list[tuple[int, str]]:
    """Run every command in workdir on root's src/: (exit code, stderr) each."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for name, content in _INPUTS.items():
        (workdir / name).write_bytes(content)
    results = []
    for argv in _commands():
        proc = subprocess.run([sys.executable, "-m", "qwkt.cli", *argv], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              check=False)
        results.append((proc.returncode, proc.stderr.replace(str(root), "<checkout>")))
    return results


def _content(path: Path):
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.pop("duration_seconds", None)
        return json.dumps(manifest, sort_keys=True)  # a nan equals itself as text
    return path.read_bytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT")
    roots = [root.resolve() for root in parser.parse_args().checkouts]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / name for name in ("a", "b")]
        results = []
        for root, workdir in zip(roots, dirs):
            workdir.mkdir()
            results.append(run(root, workdir))
        differences = [
            f"command {' '.join(argv)}: exit {a[0]} vs {b[0]}, stderr {a[1]!r} vs {b[1]!r}"
            for argv, a, b in zip(_commands(), *results) if a != b
        ]
        files = [{p.name: p for p in d.iterdir()} for d in dirs]
        for name in sorted(files[0].keys() | files[1].keys()):
            if name not in files[0] or name not in files[1]:
                differences.append(f"file {name}: only in {roots[name in files[1]]}")
            elif _content(files[0][name]) != _content(files[1][name]):
                differences.append(f"file {name}: contents differ")
        for line in differences:
            print(line)
        print(f"{len(_commands())} commands, {len(files[0])} files: "
              f"{len(differences)} differences", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
