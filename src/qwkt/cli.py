"""Command-line surface: simulate spectra, estimate delays, and tabulate
Fisher information.

Human-friendly units at the boundary (ps, nm) are converted to SI
immediately; every run writes its outputs atomically plus a JSON manifest
recording the resolved configuration, seed, digests, and wall time.
Exit codes: 0 ok, 2 bad configuration (an output directory that is missing
or not writable, or an output path that names a directory, included), 3 bad
input data, 4 estimation failure (partial diagnostics are still written).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .biphoton import BiphotonSource, DelayProfile, bandwidth_nm_to_rads, joint_spectral_intensity
from .errors import ConfigurationError, EstimationError, InputDataError
from .estimation import (
    _MAX_AXIS_POINTS,
    extract_delays,
    fisher_information,
    mle_fit,
    quantum_fisher_information,
    sweep,
)
from .hom import _MAX_TRIALS, DetectionModel, OutcomeTable, outcome_probabilities, sample_counts
from .io import (
    SCHEMA_VERSION,
    RunManifest,
    read_spectrum,
    sha256_digest,
    write_json,
    write_manifest,
    write_spectrum,
    write_table,
)
from .transform import SpectralPattern, TemporalGrid, default_frequency_grid, inverse_qwkt

# Unit suffixes each axis accepts and their scale to SI; "" is the default.
_AXIS_UNITS = {
    "tau": {"": 1e-12, "ps": 1e-12, "s": 1.0},
    "sigma": {"": 1e-9, "nm": 1e-9},
    "gamma": {"": 1.0},
    "alpha": {"": 1.0},
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_axis(spec: str, axis: str) -> list[float]:
    """Axis spec 'start:stop:count' or a single value, with an optional unit
    suffix from ``_AXIS_UNITS[axis]`` applying to all values. count = 0
    gives an empty axis."""
    units = _AXIS_UNITS[axis]
    body = spec.strip()
    unit = next((u for u in units if u and body.endswith(u)), "")  # "ps" before "s"
    scale = units[unit]
    parts = body[: len(body) - len(unit)].split(":")
    try:
        if len(parts) == 1:
            return [_finite(parts[0]) * scale]
        if len(parts) != 3:
            raise ValueError("expected start:stop:count")
        start, stop, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        allowed = " or ".join(u for u in units if u) or "none"
        raise ConfigurationError(
            f"bad axis spec {spec!r}: {exc}; {axis} unit suffixes: {allowed}"
        ) from exc
    if count < 0:
        raise ConfigurationError(f"axis count must be nonnegative in {spec!r}")
    if count > _MAX_AXIS_POINTS:  # before linspace allocates them
        raise ConfigurationError(f"{axis} axis has {count} points, limit is {_MAX_AXIS_POINTS}")
    return [float(v) * scale for v in np.linspace(start, stop, count)]


def _parse_layers(spec: str) -> list[tuple[float, float]]:
    """Layer list 'tau_ps:weight,tau_ps:weight,...' in picoseconds."""
    pairs = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ConfigurationError(f"bad layer spec {chunk!r}: expected tau_ps:weight")
        try:
            pairs.append((_finite(parts[0]) * 1e-12, _finite(parts[1])))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigurationError(f"bad layer spec {chunk!r}: {exc}") from exc
    return pairs


def _trials(text: str) -> int:
    try:
        value = int(text)  # exact: float() rounds integers past 2**53
    except ValueError:  # such as 1e6
        value = _finite(text)
    if not (value == int(value) and 1 <= value <= _MAX_TRIALS):
        raise argparse.ArgumentTypeError(f"trials must be a whole number in [1, {_MAX_TRIALS}]")
    return int(value)


# beside --out: the default manifest, and the sidecar estimate and sweep name by its stem
_MANIFEST_SUFFIX = ".manifest.json"
_SIDECAR_SUFFIXES = {"estimate": ".correlation.csv", "sweep": ".monotonicity.json"}
# the exit code of the first class a failure is an instance of (ConfigurationError: ValueError)
_EXIT_CODES = {ValueError: 2, InputDataError: 3, EstimationError: 4}

_CRB_TRIALS_HELP = ("total trials for the CRB column (trinomial: spread by the normal-density "
                    "envelope, while simulate --variant trinomial draws --trials per bin)")


def _source_from_args(args) -> BiphotonSource:
    return BiphotonSource.from_bandwidth(args.sigma_nm * 1e-9, args.center_nm * 1e-9)


def _add_source_options(parser) -> None:
    parser.add_argument("--sigma-nm", type=_finite, default=20.0,
                        help="single-photon bandwidth, nm equivalent")
    parser.add_argument("--center-nm", type=_finite, default=810.0,
                        help="center wavelength of both photons, nm; the pump is at half")


def _add_grid_options(parser) -> None:
    parser.add_argument("--bins", type=int, default=4096,
                        help="frequency bins (even)")
    parser.add_argument("--span-sd", type=_finite, default=6.0,
                        help="half window in units of the envelope RMS 2*sigma")


def _add_model_options(parser) -> None:
    parser.add_argument("--gamma", type=_finite, default=0.0, help="per-photon loss")
    parser.add_argument("--alpha", type=_finite, default=1.0, help="fringe visibility")
    parser.add_argument("--variant", choices=("two-port", "trinomial"),
                        default="two-port", help="outcome model variant")


def _finish(args, config: dict, seed=None, inputs=()) -> None:
    """Write the run's manifest, with ``--out`` and the sidecar as outputs and
    the time on ``main``'s clock. ``inputs`` are (file name, digest) pairs
    taken before any output was written: ``--out`` may overwrite ``--input``."""
    write_manifest(args.manifest, RunManifest(
        command=args.command,
        config={**config, "out": args.out},
        seed=seed,
        version=__version__,
        input_digests=dict(inputs),
        output_digests={os.path.basename(p): sha256_digest(p)
                        for p in filter(None, (args.out, args.sidecar))},
        duration_seconds=args.elapsed(),
    ))


def cmd_simulate(args) -> None:
    source = _source_from_args(args)
    grid = default_frequency_grid(source, n_bins=args.bins, span_sd=args.span_sd)
    if (args.tau_ps is None) == (args.layers is None):
        raise ConfigurationError("provide exactly one of --tau-ps or --layers")
    if args.tau_ps is not None:
        profile = DelayProfile.single(args.tau_ps * 1e-12)
    else:
        profile = DelayProfile.normalized(_parse_layers(args.layers))
    t_max = TemporalGrid.conjugate_of(grid).t_max
    if profile.delays[-1] >= t_max:
        # beyond t_max the fringe aliases onto a shorter delay, which a fit
        # then reports with a confidently small error
        raise ConfigurationError(
            f"layer delay {profile.delays[-1] * 1e12:.6g} ps is not below the grid's "
            f"unambiguous range {t_max * 1e12:.6g} ps; raise --bins or lower --span-sd"
        )
    comments = (
        f"qwkt {__version__} simulate",
        f"sigma {args.sigma_nm} nm equivalent at {args.center_nm} nm center, "
        f"pump {args.center_nm / 2.0} nm",
        "delays_ps " + ",".join(format(t * 1e12, ".17g") for t in profile.delays),
    )
    if args.ideal:
        values = joint_spectral_intensity(source, profile, grid.values, args.phi)
        pattern = SpectralPattern(grid=grid, values=values, kind="ideal-density")
    else:
        model = DetectionModel(
            grid=grid, gamma=args.gamma, alpha=args.alpha,
            n_trials=args.trials, variant=args.variant,
        )
        table = outcome_probabilities(model, source, profile, args.phi)
        sampled = sample_counts(table, args.trials, args.seed)
        pattern = SpectralPattern(
            grid=grid, values=sampled.counts_coincidence, kind="counts"
        )
    write_spectrum(args.out, pattern, center_wavelength=args.center_nm * 1e-9, comments=comments)
    _finish(args, {
        "sigma_rad_per_s": source.sigma_spectral,
        "center_wavelength_m": args.center_nm * 1e-9,
        "pump_wavelength_m": args.center_nm / 2.0 * 1e-9,
        "delays_s": list(map(float, profile.delays)),
        "weights": list(map(float, profile.weights)),
        "phi_rad": args.phi,
        "gamma": args.gamma,
        "alpha": args.alpha,
        "variant": args.variant,
        "n_trials": args.trials,
        "n_bins": args.bins,
        "span_sd": args.span_sd,
        "ideal": bool(args.ideal),
    }, seed=None if args.ideal else args.seed)


def cmd_estimate(args) -> None:
    if args.variant == "trinomial" and args.trials is None:
        # the column total is not the per-bin trial count a trinomial needs
        raise ConfigurationError("--variant trinomial needs --trials, the per-bin trial count")
    source = _source_from_args(args)
    pattern = read_spectrum(args.input, center_wavelength=args.center_nm * 1e-9)
    if args.mle and pattern.kind != "counts":
        raise InputDataError("--mle needs a counts spectrum; this file is an ideal density")
    if args.mle and pattern.resampled:
        raise InputDataError("--mle cannot fit this file: its axis is not uniform in "
                             "difference frequency, so it was resampled")
    result: dict = {"schema_version": SCHEMA_VERSION, "command": "estimate", "input": args.input}
    config = {
        "input": args.input,
        "sigma_rad_per_s": source.sigma_spectral,
        "center_wavelength_m": args.center_nm * 1e-9,
        "threshold": args.threshold,
        "min_separation": args.min_separation,
        "mle": bool(args.mle),
        "k_layers": args.layers,
        "gamma": args.gamma,
        "alpha": args.alpha,
        "variant": args.variant,
        "n_trials": args.trials,
        "phi_rad": args.phi,
    }
    inputs = ((os.path.basename(args.input), sha256_digest(args.input)),)
    try:
        with np.errstate(over="raise", invalid="raise"):
            correlation = inverse_qwkt(pattern)
            # abs(complex)'s bits; np.abs differs
            modulus = np.hypot(correlation.values.real, correlation.values.imag)
    except FloatingPointError as exc:
        raise InputDataError(f"the inverted correlation overflows float64: {exc}") from exc
    failure = None
    try:
        report = extract_delays(
            pattern, source, threshold=args.threshold, min_separation=args.min_separation
        )
        result["peaks"] = {
            "delays": [
                {"tau_s": t, "weight": w, "relative_height": h}
                for t, w, h in report.delays
            ],
            "ambiguity_flag": report.ambiguity_flag,
            "grid_resolution_s": report.grid_resolution,
        }

        n_diag = args.trials
        if n_diag is None:
            n_diag = int(np.sum(pattern.values)) if pattern.kind == "counts" else 1
        n_diag = max(n_diag, 1)
        model = DetectionModel(
            grid=pattern.grid, gamma=args.gamma, alpha=args.alpha,
            n_trials=n_diag, variant=args.variant,
        )
        qfi = quantum_fisher_information(source, n_diag)
        crb_rows = []
        for tau_hat, _, _ in report.delays:
            fisher = fisher_information(source, tau_hat, model)
            crb_rows.append({
                "tau_s": tau_hat, "g_omega": fisher.g_omega, "crb_s": fisher.crb,
                "error_estimate": fisher.error_estimate,
            })
        result["crb"] = {
            "variant": args.variant,
            "n_trials": n_diag,
            "per_delay": crb_rows,
            "q_rad2_per_s2": qfi.q,
            "qcrb_s": qfi.qcrb,
        }

        if args.mle:
            counts_table = OutcomeTable(
                variant=args.variant,
                grid=pattern.grid,
                counts_coincidence=pattern.values,
            )
            fit = mle_fit(counts_table, model, source, args.layers, init=report, phi=args.phi)
            result["mle"] = {
                "layers": [
                    {"tau_s": t, "weight": w, "stderr_tau_s": st, "stderr_weight": sw}
                    for (t, w), st, sw in zip(fit.layers, fit.stderr_tau, fit.stderr_weight)
                ],
                "log_likelihood": fit.log_likelihood,
                "converged": fit.converged,
                "iterations": fit.iterations,
                "evaluations": fit.evaluations,
                "hessian_condition": fit.hessian_condition,
            }
    except EstimationError as exc:
        result["error"], failure = str(exc), exc
    # only once the estimate stands or failed as exit 4: a run that exits 2
    # or 3 leaves no files behind
    write_table(
        args.sidecar,
        ("delay_s", "correlation_real", "correlation_imag", "correlation_abs"),
        (correlation.grid.values, correlation.values.real, correlation.values.imag, modulus),
        comments=(f"qwkt {__version__} estimate: inverted correlation",),
    )
    write_json(args.out, result)
    _finish(args, config, inputs=inputs)
    if failure is not None:
        raise failure


def _run_sweep(args, sigma_values, tau_values, gamma_values, alpha_values) -> None:
    result = sweep(
        sigma_values, tau_values, gamma_values, alpha_values,
        variant=args.variant, n_trials=args.trials, span_sd=args.span_sd,
    )
    write_table(
        args.out,
        ("sigma_rad_per_s", "tau_s", "gamma", "alpha", "variant", "g_omega", "crb_s", "error"),
        zip(*(
            (c.sigma, c.tau, c.gamma, c.alpha, c.variant, c.g_omega, c.crb, c.error or "")
            for c in result.rows
        )),
        comments=(f"qwkt {__version__} {args.command}: Fisher information sweep",),
    )
    if args.sidecar:
        write_json(args.sidecar, {
            "schema_version": SCHEMA_VERSION,
            "monotonicity": result.monotonicity,
        })
    _finish(args, {
        "sigma_rad_per_s": list(map(float, sigma_values)),
        "tau_s": list(map(float, tau_values)),
        "gamma": list(map(float, gamma_values)),
        "alpha": list(map(float, alpha_values)),
        "variant": args.variant,
        "n_trials": args.trials,
        "span_sd": args.span_sd,
    })
    if result.rows and all(c.error is not None for c in result.rows):
        raise EstimationError("every sweep cell failed; see the error column")


def cmd_fisher(args) -> None:
    center = args.center_nm * 1e-9
    sigma_values = [bandwidth_nm_to_rads(args.sigma_nm * 1e-9, center)]
    tau_values = _parse_axis(args.tau_axis, "tau")
    _run_sweep(args, sigma_values, tau_values, [args.gamma], [args.alpha])


def cmd_sweep(args) -> None:
    center = args.center_nm * 1e-9
    sigma_values = [
        bandwidth_nm_to_rads(dl, center)
        for dl in _parse_axis(args.sigma_axis, "sigma")
    ]
    _run_sweep(
        args,
        sigma_values,
        _parse_axis(args.tau_axis, "tau"),
        _parse_axis(args.gamma_axis, "gamma"),
        _parse_axis(args.alpha_axis, "alpha"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwkt",
        description="Spectrally resolved two-photon interference: simulate, invert, estimate.",
    )
    parser.add_argument("--version", action="version", version=f"qwkt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        p.add_argument("--manifest", default=None,
                       help=f"manifest path (default: OUT{_MANIFEST_SUFFIX})")
        return p

    p = add("simulate", cmd_simulate, "emit an ideal or sampled coincidence spectrum")
    _add_source_options(p)
    _add_grid_options(p)
    _add_model_options(p)
    p.add_argument("--tau-ps", type=_finite, default=None, help="single layer delay, ps")
    p.add_argument("--layers", default=None, help="layer list tau_ps:weight,tau_ps:weight")
    p.add_argument("--phi", type=_finite, default=0.0, help="fringe phase, rad")
    p.add_argument("--ideal", action="store_true", help="write the ideal density instead of counts")
    p.add_argument("--trials", type=_trials, default=100000, help="trials to sample")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", default="spectrum.csv", help="output CSV path")

    p = add("estimate", cmd_estimate, "invert a spectrum and estimate layer delays")
    _add_source_options(p)
    _add_model_options(p)
    p.add_argument("--input", required=True, help="spectrum CSV to analyze")
    p.add_argument("--threshold", type=_finite, default=0.02, help="side-peak height threshold")
    p.add_argument("--min-separation", type=int, default=2, help="peak separation, grid steps")
    p.add_argument("--mle", action="store_true", help="refine with a maximum-likelihood fit")
    p.add_argument("--layers", type=int, default=1, help="layer count for the MLE")
    p.add_argument("--trials", type=_trials, default=None,
                   help="trials behind the counts: the per-bin count, required "
                        "for --variant trinomial; two-port default: column total")
    p.add_argument("--phi", type=_finite, default=0.0, help="fringe phase, rad")
    p.add_argument("--out", default="estimate.json", help="output JSON path")

    p = add("fisher", cmd_fisher, "Fisher information along a delay axis")
    _add_source_options(p)
    _add_model_options(p)
    p.add_argument("--tau-axis", default="0.5",
                   help="delay axis start:stop:count[ps|s], or a single delay")
    p.add_argument("--trials", type=_trials, default=1, help=_CRB_TRIALS_HELP)
    p.add_argument("--span-sd", type=_finite, default=6.0,
                   help="integration half window in units of 2*sigma")
    p.add_argument("--out", default="fisher.csv", help="output CSV path")

    p = add("sweep", cmd_sweep, "Fisher information over a parameter grid")
    p.add_argument("--center-nm", type=_finite, default=810.0,
                   help="center wavelength of both photons, nm")
    p.add_argument("--variant", choices=("two-port", "trinomial"),
                   default="two-port", help="outcome model variant")
    p.add_argument("--sigma-axis", default="20", help="bandwidth axis start:stop:count[nm]")
    p.add_argument("--tau-axis", default="0.5", help="delay axis start:stop:count[ps|s]")
    p.add_argument("--gamma-axis", default="0", help="loss axis start:stop:count")
    p.add_argument("--alpha-axis", default="1", help="visibility axis start:stop:count")
    p.add_argument("--trials", type=_trials, default=1, help=_CRB_TRIALS_HELP)
    p.add_argument("--span-sd", type=_finite, default=6.0,
                   help="integration half window in units of 2*sigma")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one per call costs milliseconds
    and leaves reference cycles for the garbage collector. ``parse_args``
    returns a fresh namespace and leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand: name its outputs once, on ``args``, and refuse any
    that cannot be written before any work; start the manifest's clock; map
    the outcome onto the exit code."""
    args = _parser().parse_args(argv)
    try:
        path = Path(args.out)  # files are named, and recorded, as pathlib spells them: ./x is x
        out = str(path)
        if args.command == "estimate":
            args.input = str(Path(args.input))
        suffix = _SIDECAR_SUFFIXES.get(args.command)
        sidecar = suffix and os.path.join(os.path.dirname(out), path.stem + suffix)
        manifest = args.manifest or out + _MANIFEST_SUFFIX
        # --out as given, so a trailing slash names a directory; os.path: pathlib
        # costs ~10 us a call, a twentieth of a small sweep
        targets = tuple(filter(None, (args.out, sidecar, manifest)))
        for target in targets:
            folder = os.path.dirname(target) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
                raise ConfigurationError(f"cannot write {target}: no writable directory {folder}")
        for target in targets:
            if os.path.isdir(target):
                raise ConfigurationError(f"cannot write {target}: it is a directory")
        args.out, args.sidecar, args.manifest = out, sidecar, manifest
        started = time.perf_counter()
        args.elapsed = lambda: time.perf_counter() - started
        args.func(args)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
