"""Check that two checkouts give the same CLI outputs: run one fixed list of
qwkt commands in each, and compare what they leave behind.

    python3 scripts/bytes_check.py PARENT CHANGE

Each checkout runs the commands in its own temp dir, one process per command,
with its own src/ on PYTHONPATH; each temp dir starts with the same hand-made
input files: a spectrum that is not UTF-8, one with a cell past csv's field
limit, and spectra for both readers (one with comment, blank and CRLF lines,
whose comment between rows sends it to csv; quoted cells; a 1_0 cell that only
float() reads; a \\x1c5 cell that only np.loadtxt would read; a whitespace-only
line), two spectra whose inverted correlation overflows float64, and one whose
counts total past int64. One step, "quote", is not a qwkt command: it writes a
copy of an earlier output with every cell quoted, so csv reads it. Outputs in
a missing directory, outputs that name a directory (each temp dir also starts
with the directories in _DIRS), two such faults in one run, an empty --out and
malformed specs check the error paths; odd --out spellings (./x, sub//x, x., .x,
x.tar.gz, sub/../x) check the names of the files a run writes.
Compared: every output file byte for byte, except the manifests
(*.manifest.json), compared as JSON without duration_seconds, and directories
entry by entry; and each command's exit code and stderr (the checkout's path
spelled <checkout>).
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
_ROWS = [f"{800.0 + 0.5 * i!r},{37 * i % 101}" for i in range(64)]
_MAX_FLOAT = 1.7976931348623157e308


def _spectrum(lines, end="\n") -> bytes:
    return (end.join(["wavelength_nm,counts", *lines]) + end).encode()


def _huge(rows) -> bytes:
    """16 ideal-density rows, omega -7.5..7.5 rad/s: float64's maximum at the
    given rows, 0 elsewhere."""
    values = [_MAX_FLOAT if i in rows else 0.0 for i in range(16)]
    return "".join(["omega_rad_per_s,intensity\n",
                    *(f"{-7.5 + i!r},{v!r}\n" for i, v in enumerate(values))]).encode()


_INPUTS = {
    "not-utf8.csv": b"wavelength_nm,counts\n\xff\xfe,1\n",
    "long-cell.csv": b"wavelength_nm,counts\n" + b"8" * 2**17 + b".5,1\n",
    # plain files go to np.loadtxt, all others to csv
    "plain-crlf.csv": b"# hand-made\r\n\r\n" + _spectrum(
        [*_ROWS[:20], "", "# mid", *_ROWS[20:]], "\r\n"),
    "quoted.csv": _spectrum('"{}","{}"'.format(*row.split(",")) for row in _ROWS),
    "underscore.csv": _spectrum([*_ROWS[:-1], _ROWS[-1].split(",")[0] + ",1_0"]),
    "fs-cell.csv": _spectrum(["\x1c" + _ROWS[0], *_ROWS[1:]]),  # exit 3
    "space-line.csv": _spectrum([*_ROWS[:30], "  ", *_ROWS[30:]]),  # exit 3
    # the inverted correlation overflows: exit 3
    "huge-first.csv": _huge({0}),
    "huge-centre.csv": _huge({7, 8}),
    # 16 bins of 1e18: the column total, taken as the trial count, passes int64 (exit 3)
    "big-counts.csv": _spectrum(f"{800 + i},{10**18}" for i in range(16)),
}
# the sidecars of estimate --out taken.json and sweep --out taken.csv, and a
# directory for the odd --out spellings to write into
_DIRS = ("taken.correlation.csv", "taken.monotonicity.json", "sub")


def _quote(source: Path, target: Path) -> None:
    """Copy a spectrum with every cell of its header and rows in double quotes."""
    lines = source.read_bytes().splitlines(keepends=True)
    target.write_bytes(b"".join(
        line if line.startswith(b"#")
        else b",".join(b'"%s"' % cell for cell in line.rstrip(b"\n").split(b",")) + b"\n"
        for line in lines))


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
        # the cli-pipeline shape through the csv reader
        ["quote", "pipeline-1.csv", "pipeline-1-quoted.csv"],
        ["estimate", "--input", "pipeline-1-quoted.csv", "--mle", "--layers", "3",
         "--out", "pipeline-1-quoted.json", *_PIPELINE_MODEL],
        # four layers fitted to three: the missing layer's delay profile at 4096 bins,
        # valued in chunks of 2 rows
        ["estimate", "--input", "pipeline-1.csv", "--mle", "--layers", "4",
         "--out", "pipeline-1-k4.json", *_PIPELINE_MODEL],
        # three layers fitted to one: two missing layers profiled in turn
        ["simulate", "--tau-ps", "0.5", "--bins", "256", "--seed", "4", "--out", "one.csv",
         *_ONE_LAYER],
        ["estimate", "--input", "one.csv", "--mle", "--layers", "3", "--out", "one.json",
         *_ONE_LAYER],
        ["simulate", "--tau-ps", "0.3", "--bins", "256", "--seed", "5", "--out", "tri.csv",
         *_TRINOMIAL],
        ["estimate", "--input", "tri.csv", "--mle", "--layers", "1", "--out", "tri.json",
         *_TRINOMIAL],
        ["estimate", "--input", "tri.csv", "--mle", "--layers", "2", "--out", "tri-k2.json",
         *_TRINOMIAL],
        # a fringe phase: simulated and profiled at phi = 0.7
        ["simulate", "--tau-ps", "0.5", "--bins", "256", "--seed", "8", "--phi", "0.7",
         "--out", "phi.csv", *_ONE_LAYER],
        ["estimate", "--input", "phi.csv", "--mle", "--layers", "2", "--phi", "0.7",
         "--out", "phi.json", *_ONE_LAYER],
        # a delay near zero makes no side peak, so its one layer is profiled: 2 fs at
        # 256 bins, and 1 fs on the default grid (20 nm, 4096 bins)
        ["simulate", "--tau-ps", "0.002", "--bins", "256", "--seed", "0", "--out", "near.csv",
         *_ONE_LAYER],
        ["estimate", "--input", "near.csv", "--mle", "--layers", "1", "--out", "near.json",
         *_ONE_LAYER],
        ["simulate", "--tau-ps", "0.001", "--seed", "0", "--out", "near-default.csv",
         *_PIPELINE_MODEL],
        ["estimate", "--input", "near-default.csv", "--mle", "--layers", "1",
         "--out", "near-default.json", *_PIPELINE_MODEL],
        # the CLI's default model (alpha 1, gamma 0), fitted with no model flags: the
        # likelihood conditioned on the anti-bunch counts, at the true k and one above
        ["simulate", "--tau-ps", "0.5", "--bins", "256", "--sigma-nm", "10", "--seed", "9",
         "--out", "default.csv"],
        *(["estimate", "--input", "default.csv", "--mle", "--sigma-nm", "10", "--layers", k,
           "--out", f"default-k{k}.json"] for k in ("1", "2")),
        ["simulate", "--ideal", "--tau-ps", "0.3", "--bins", "1024", "--out", "ideal.csv"],
        ["estimate", "--input", "ideal.csv", "--out", "ideal.json"],
        # a wide window: 3-digit exponents and half-integer cells in the spectrum
        ["simulate", "--ideal", "--tau-ps", "0.3", "--bins", "4096", "--span-sd", "30",
         "--out", "ideal-wide.csv"],
        ["estimate", "--input", "ideal-wide.csv", "--out", "ideal-wide.json"],
        # the grid holds no envelope mass at this bandwidth: exit 2
        ["simulate", "--tau-ps", "0.3", "--bins", "256", "--sigma-nm", "10", "--trials", "10000",
         "--seed", "6", "--out", "narrow.csv"],
        ["estimate", "--input", "narrow.csv", "--mle", "--layers", "1", "--sigma-nm", "1.04e141",
         "--out", "narrow.json"],
        # omega_max |tau| overflows: the long-delay limit
        ["fisher", "--tau-axis", "1e306", "--alpha", "0.9", "--out", "huge.csv"],
        ["estimate", "--input", "missing.csv", "--out", "missing.json"],  # exit 3
        ["sweep", "--sigma-axis", "0:20:3", "--out", "zero-bandwidth.csv"],  # exit 2
        ["estimate", "--input", "not-utf8.csv", "--out", "not-utf8.json"],  # exit 3
        ["estimate", "--input", "long-cell.csv", "--out", "long-cell.json"],  # exit 3
        *(["estimate", "--input", f"{name}.csv", "--out", f"{name}.json"]
          for name in ("plain-crlf", "quoted", "underscore", "fs-cell", "space-line")),
        # omega_max squared overflows: the cell fails (exit 4), and beside a computed cell
        ["sweep", "--sigma-axis", "1.04e141", "--out", "wide.csv"],
        ["sweep", "--sigma-axis", "1e140:1e142:2", "--out", "wider.csv"],
        *(["estimate", "--input", f"{name}.csv", "--out", f"{name}.json"]
          for name in ("huge-first", "huge-centre")),
        # malformed specs: exit 2
        ["fisher", "--tau-axis", "1:2", "--out", "spec-axis.csv"],
        ["fisher", "--tau-axis", "0:1:-1", "--out", "spec-count.csv"],
        ["simulate", "--layers", "0.1", "--out", "spec-layer.csv"],
        ["simulate", "--layers", "0.1:0", "--out", "spec-weight.csv"],
        ["estimate", "--input", "big-counts.csv", "--out", "big-counts.json"],  # exit 3
        # an output in a missing directory: exit 2, and no file written
        *([command, *args, flag, target]
          for command, args in (
              ("simulate", ["--tau-ps", "0.5", "--bins", "256", "--sigma-nm", "10",
                            "--out", "unwritable.csv"]),
              ("estimate", ["--input", "one.csv", "--out", "unwritable.json"]),
              ("fisher", ["--out", "unwritable-fisher.csv"]),
              ("sweep", ["--out", "unwritable-sweep.csv"]))
          for flag, target in (("--out", "missing/x.csv"), ("--manifest", "missing/m.json"))),
        # an output that names a directory: exit 2, and no file written
        *([command, *args, flag, "."]
          for command, args in (
              ("simulate", ["--tau-ps", "0.5", "--bins", "256", "--sigma-nm", "10",
                            "--out", "dir-target.csv"]),
              ("estimate", ["--input", "one.csv", "--out", "dir-target.json"]),
              ("fisher", ["--out", "dir-target-fisher.csv"]),
              ("sweep", ["--out", "dir-target-sweep.csv"]))
          for flag in ("--out", "--manifest")),
        ["estimate", "--input", "one.csv", "--out", "taken.json"],
        ["sweep", "--out", "taken.csv"],
        # an empty --out: exit 2, and no file written
        ["simulate", "--tau-ps", "0.5", "--bins", "256", "--sigma-nm", "10", "--out", ""],
        ["estimate", "--input", "one.csv", "--out", ""],
        ["fisher", "--out", ""],
        ["sweep", "--out", ""],
        # two faults: --out names a directory, --manifest is in a missing one (exit 2)
        ["estimate", "--input", "one.csv", "--out", ".", "--manifest", "missing/m.json"],
        # odd --out spellings: the sidecar and manifest names follow pathlib's
        # spelling of --out and its stem
        *([command, *args, "--out", spelling.format(stem)]
          for command, stem, args in (("estimate", "x", ["--input", "one.csv"]), ("sweep", "y", []))
          for spelling in ("./{}.json", "sub//{}.json", "{}.", ".{}", "{}.tar.gz", "sub/../{}-up")),
        # the center wavelength's square underflows to 0 or overflows: exit 2
        *([command, *args, "--center-nm", center, "--out", f"center-{command}-{center}.csv"]
          for command, args in (("simulate", ["--tau-ps", "0.1"]), ("sweep", []))
          for center in ("1e-170", "1e300")),
    ]
    for variant in ("two-port", "trinomial"):
        commands += [
            ["fisher", "--variant", variant, "--tau-axis", "0:2:21ps", "--gamma", "0.1",
             "--alpha", "0.9", "--out", f"fisher-{variant}.csv"],
            # gamma = 1 cells fail to build their model
            ["sweep", "--variant", variant, "--sigma-axis", "5:20:3", "--tau-axis", "0:2:4ps",
             "--gamma-axis", "0:1:3", "--alpha-axis", "0.8:1:3",
             "--out", f"sweep-{variant}-a.csv"],
            # negative alpha cells fail to build, the 1e300 s delay gets the long-delay limit
            ["sweep", "--variant", variant, "--sigma-axis", "10", "--tau-axis", "1e-13:1e300:3s",
             "--gamma-axis", "0.2", "--alpha-axis=-0.5:1:4",
             "--out", f"sweep-{variant}-b.csv"],
            # high visibility out to 10 ns: many series terms
            ["sweep", "--variant", variant, "--alpha-axis", "0.999999", "--tau-axis",
             "1e-9:1e-8:2s", "--out", f"sweep-{variant}-c.csv"],
            # 324 cells: six groups of batched series rounds, three window half-widths
            # h (13, 23 and 33 nm), gamma = 1 and alpha = -0.5 cells that fail to build,
            # and 1 fs cells at alpha = 1 - 1e-13 that hit the term cap
            ["sweep", "--variant", variant, "--sigma-axis", "13:33:3", "--tau-axis",
             "0.001:10:12ps", "--gamma-axis", "0:1:3", "--alpha-axis=-0.5:0.9999999999999:3",
             "--out", f"sweep-{variant}-d.csv"],
        ]
    return commands


def run(root: Path, workdir: Path) -> list[tuple[int, str]]:
    """Run every command in workdir on root's src/: (exit code, stderr) each."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for name, content in _INPUTS.items():
        (workdir / name).write_bytes(content)
    for name in _DIRS:
        (workdir / name).mkdir()
    results = []
    for argv in _commands():
        if argv[0] == "quote":
            _quote(workdir / argv[1], workdir / argv[2])
            results.append((0, ""))
            continue
        proc = subprocess.run([sys.executable, "-m", "qwkt.cli", *argv], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              check=False)
        results.append((proc.returncode, proc.stderr.replace(str(root), "<checkout>")))
    return results


def _content(path: Path):
    if path.is_dir():
        return {entry.name: _content(entry) for entry in path.iterdir()}
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
