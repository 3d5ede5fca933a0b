"""Check that two checkouts fit the same: run one fixed panel of ``mle_fit``
calls in each, and compare ``repr(MleResult)`` fit by fit.

    python3 scripts/fit_panel.py PARENT CHANGE [--every N]

The panel crosses both variants, 64, 256 and 1,024 bins, fringe phases 0 and
0.7, one- to three-layer profiles, losses 0 and 0.1, seeds 0-3, complete and
reduced count tables, k = 1..3, and a start from the peak report or from a
caller's list: 3,456 fits. Complete tables are what ``sample_counts`` draws
(every category, as a Monte-Carlo calibration fits them); no CLI command
writes them, so ``bytes_check.py`` cannot see these fits. Reduced tables hold
the coincidence counts alone, as a spectrum file does (a trinomial one with
its per-bin trial count). ``--every N`` keeps each N-th fit of the panel only.

Each checkout runs the panel in its own process with its own src/ on
PYTHONPATH. A fit that raises is recorded by its exception's type and text.
Every difference is printed; the exit code is 1 if there is any, else 0.
"""

import argparse
import itertools
import os
import subprocess
import sys
from pathlib import Path

_PROFILES = (
    ((0.3e-12, 1.0),),
    ((0.12e-12, 0.5), (0.2e-12, 0.5)),
    ((0.12e-12, 0.4), (0.2e-12, 0.3), (0.4e-12, 0.3)),
)
_TRIALS = {"two-port": 100_000, "trinomial": 2_000}  # trinomial: per bin


def panel():
    """The panel's parameter tuples, in order."""
    return itertools.product(("two-port", "trinomial"), (64, 256, 1024), (0.0, 0.7),
                             range(len(_PROFILES)), (0.0, 0.1), range(4),
                             ("complete", "reduced"), (1, 2, 3), ("peaks", "list"))


def emit(every: int) -> None:
    """Print one line per fit of the panel: its parameters, then the result's
    repr or the exception raised. Runs on the qwkt found on sys.path."""
    from qwkt import (BiphotonSource, DelayProfile, DetectionModel, FrequencyGrid, OutcomeTable,
                      mle_fit, outcome_probabilities, sample_counts)

    source = BiphotonSource.from_bandwidth(10e-9)
    for params in itertools.islice(panel(), 0, None, every):
        variant, bins, phi, shape, gamma, seed, table, k, start = params
        grid = FrequencyGrid(omega_max=12.0 * source.sigma_spectral, n_bins=bins)
        model = DetectionModel(grid, gamma=gamma, alpha=0.95, n_trials=_TRIALS[variant],
                               variant=variant)
        profile = DelayProfile.normalized(list(_PROFILES[shape]))
        counts = sample_counts(outcome_probabilities(model, source, profile, phi),
                               _TRIALS[variant], seed=seed)
        if table == "reduced":
            counts = OutcomeTable(variant=variant, grid=grid, n_trials=counts.n_trials,
                                  counts_coincidence=counts.counts_coincidence)
        init = None if start == "peaks" else [(1.05 * t, a) for t, a in _PROFILES[shape]]
        try:
            outcome = repr(mle_fit(counts, model, source, k, init=init, phi=phi))
        except Exception as exc:  # recorded, and compared like a result
            outcome = f"{type(exc).__name__}: {exc}"
        print(f"{params!r} {outcome}", flush=True)


def run(root: Path, every: int) -> list[str]:
    """The panel's lines from root's src/."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, __file__, "--emit", "--every", str(every)], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT")
    parser.add_argument("--every", type=int, default=1, help="keep each N-th fit only")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.every < 1:
        parser.error("--every must be at least 1")
    if args.emit:
        emit(args.every)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts")
    parent, change = (run(root.resolve(), args.every) for root in args.checkouts)
    differences = [f"{a}\n  vs {b}" for a, b in itertools.zip_longest(parent, change) if a != b]
    for line in differences:
        print(line)
    print(f"{len(parent)} fits: {len(differences)} differences", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
