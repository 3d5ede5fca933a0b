"""Spectrum files, run manifests, reproducible writes.

Spectra travel as two-column CSV with a header naming the schema:
``omega_rad_per_s,intensity`` for ideal densities (difference frequency in
rad/s) or ``wavelength_nm,counts`` for sampled spectra on a spectrometer
axis; comment lines start with '#'. Every CSV goes through ``write_table``,
which takes columns and spells each with one field (floats at 17
significant digits, so write-then-read is lossless); every file goes to a
temp file in the target directory and is renamed into place.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .biphoton import SPEED_OF_LIGHT
from .errors import ConfigurationError, InputDataError
from .transform import _MAX_BINS, FrequencyGrid, SpectralPattern

SCHEMA_VERSION = 1
OMEGA_HEADER = ("omega_rad_per_s", "intensity")
WAVELENGTH_HEADER = ("wavelength_nm", "counts")
_SNAP_RTOL = 1e-9
_MIN_ROWS = 16
# the largest grid's bins, plus the row an odd-length axis drops (_to_midpoint_grid)
_MAX_ROWS = _MAX_BINS + 1


def sha256_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write via temp file in the same directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def difference_frequency_from_wavelength(
    wavelength: np.ndarray, center_wavelength: float
) -> np.ndarray:
    """Map a spectrometer wavelength axis (meters) to difference frequency.

    With a monochromatic pump, a signal photon detuned by d sits opposite
    an idler detuned by -d, so the difference frequency is twice the
    single-photon detuning: omega = 2 * 2 pi c (1/lambda - 1/lambda_c).
    """
    return 4.0 * math.pi * SPEED_OF_LIGHT * (1.0 / wavelength - 1.0 / center_wavelength)


def wavelength_from_difference_frequency(
    omega: np.ndarray, center_wavelength: float
) -> np.ndarray:
    inverse = omega / (4.0 * math.pi * SPEED_OF_LIGHT) + 1.0 / center_wavelength
    if np.any(inverse <= 0.0):
        raise ConfigurationError(
            "frequency grid extends past zero optical frequency for this center wavelength"
        )
    return 1.0 / inverse


def write_spectrum(
    path,
    pattern: SpectralPattern,
    center_wavelength: float = 810e-9,
    comments: tuple[str, ...] = (),
) -> None:
    """Write a spectrum CSV through ``write_table``; schema follows the
    pattern kind.

    ideal-density patterns use the (omega_rad_per_s, intensity) schema;
    counts patterns use (wavelength_nm, counts) with the axis mapped
    through ``center_wavelength``, rows sorted by wavelength and counts
    rounded to integers.
    """
    if pattern.kind == "ideal-density":
        return write_table(path, OMEGA_HEADER, (pattern.grid.values, pattern.values), comments)
    wavelength = wavelength_from_difference_frequency(pattern.grid.values, center_wavelength)
    order = np.argsort(wavelength)
    counts = np.rint(pattern.values[order]).astype(np.int64)
    write_table(path, WAVELENGTH_HEADER, (wavelength[order] * 1e9, counts), comments)


def _data_rows(lines):
    """(line number, cells) of each csv row that is neither blank nor a comment;
    a row csv cannot parse, such as a cell past its field limit, raises
    ``InputDataError``."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                yield reader.line_num, row
    except csv.Error as exc:
        raise InputDataError(f"line {reader.line_num}: {exc}") from exc


def _parse_rows(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header's cells and the body as an (n, 2) float64 array. Rows are
    read from the open file, and reading stops past ``_MAX_ROWS`` of them."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = _data_rows(handle)
            _, header = next(rows, (0, None))
            body = list(itertools.islice((row for _, row in rows), _MAX_ROWS + 1))
    except OSError as exc:
        raise InputDataError(f"cannot read spectrum file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"spectrum file {path} is not UTF-8 text: {exc.reason}") from exc
    if header is None:
        raise InputDataError("spectrum file is empty (no header line)")
    if len(body) > _MAX_ROWS:
        raise InputDataError(f"spectrum has more than {_MAX_ROWS} data rows")
    with contextlib.suppress(ValueError):  # a non-numeric cell
        if set(map(len, body)) <= {2}:
            cells = np.fromiter(map(float, itertools.chain.from_iterable(body)), float)
            return tuple(c.strip() for c in header), cells.reshape(-1, 2)
    with open(path, encoding="utf-8", newline="") as handle:  # name the first bad line
        for line_no, row in itertools.islice(_data_rows(handle), 1, None):
            if len(row) != 2:
                raise InputDataError(f"line {line_no}: expected 2 columns, got {len(row)}")
            try:
                float(row[0]), float(row[1])
            except ValueError as exc:
                raise InputDataError(f"line {line_no}: non-numeric cell") from exc
    raise AssertionError("the batch conversion failed on no line")


def read_spectrum(path, center_wavelength: float = 810e-9) -> SpectralPattern:
    """Read a spectrum CSV onto a symmetric uniform frequency grid.

    The header names the schema. Abscissas must be finite and strictly
    increasing, wavelengths positive, and values finite and nonnegative
    (counts additionally integral). Wavelength axes are converted to
    difference frequency first. An axis that already is a symmetric uniform
    midpoint grid (to 1e-9 relative) is adopted exactly; anything else is
    resampled by linear interpolation onto such a grid (counts rounded back
    to integers), zero-filled outside the data. Every bad file raises
    ``InputDataError``, also one whose axis overflows float64 on the way.
    """
    header, body = _parse_rows(path)
    if header == OMEGA_HEADER:
        kind = "ideal-density"
    elif header == WAVELENGTH_HEADER:
        kind = "counts"
    else:
        raise InputDataError(f"unknown spectrum schema header {header!r}")
    if len(body) < _MIN_ROWS:
        raise InputDataError(f"spectrum needs at least {_MIN_ROWS} rows, got {len(body)}")
    abscissa, values = body[:, 0], body[:, 1]
    if not np.all(np.isfinite(abscissa)):
        raise InputDataError("abscissa must be finite")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise InputDataError("spectrum values must be finite and nonnegative")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if not np.all(np.diff(abscissa) > 0.0):
                raise InputDataError("abscissa must be strictly increasing")
            omega = abscissa
            if kind == "counts":
                if np.any(values != np.floor(values)):
                    raise InputDataError("counts schema requires integer values")
                if abscissa[0] <= 0.0:
                    raise InputDataError("wavelengths must be positive")
                omega = difference_frequency_from_wavelength(abscissa * 1e-9, center_wavelength)
                order = np.argsort(omega)
                omega, values = omega[order], values[order]
            grid, resampled = _to_midpoint_grid(omega, values, kind)
    except (FloatingPointError, ConfigurationError) as exc:
        raise InputDataError(f"spectrum axis gives no usable frequency grid: {exc}") from exc
    return SpectralPattern(grid=grid, values=resampled, kind=kind)


def _to_midpoint_grid(
    omega: np.ndarray, values: np.ndarray, kind: str
) -> tuple[FrequencyGrid, np.ndarray]:
    n = omega.size if omega.size % 2 == 0 else omega.size - 1
    diffs = np.diff(omega)
    step = float(np.mean(diffs))
    span = omega[-1] - omega[0]
    uniform = float(np.max(np.abs(diffs - step))) <= _SNAP_RTOL * step
    symmetric = float(np.max(np.abs(omega + omega[::-1]))) <= _SNAP_RTOL * span
    if uniform and symmetric and omega.size % 2 == 0:
        grid = FrequencyGrid(omega_max=0.5 * step * omega.size, n_bins=omega.size)
        return grid, values.copy()
    omega_max = float(np.max(np.abs(omega)))
    grid = FrequencyGrid(omega_max=omega_max, n_bins=n)
    resampled = np.interp(grid.values, omega, values, left=0.0, right=0.0)
    if kind == "counts":
        resampled = np.rint(resampled)
    return grid, resampled


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run: inputs, resolved SI configuration, outputs."""

    command: str
    config: dict
    seed: int | None
    version: str
    input_digests: dict = field(default_factory=dict)
    output_digests: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION


def write_manifest(path, manifest: RunManifest) -> None:
    write_json(path, asdict(manifest))


def read_manifest(path) -> RunManifest:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputDataError(f"cannot read manifest {path}: {exc}") from exc
    try:
        return RunManifest(**payload)
    except TypeError as exc:
        raise InputDataError(f"manifest {path} has unexpected fields: {exc}") from exc


def write_json(path, payload: dict) -> None:
    """JSON with sorted keys; floats use Python's shortest exact repr."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _table_cell(cell) -> str:
    """One ``write_table`` cell: None is empty, a string is itself and a number
    is ``%.17g``, which spells non-finite floats ``inf``, ``-inf`` and ``nan``."""
    if cell is None:
        return ""
    return cell if isinstance(cell, str) else "%.17g" % cell


def write_table(path, header: tuple[str, ...], columns, comments: tuple[str, ...] = ()) -> None:
    """CSV from equal-length columns: a float ndarray is spelled ``%.17g``, an
    integer ndarray ``%d``, any other sequence cell by cell via ``_table_cell``."""
    fields, cells = [], []
    for column in columns:
        field = {"f": "%.17g", "i": "%d", "u": "%d"}.get(getattr(column, "dtype", np.dtype("O")).kind)
        fields.append(field or "%s")
        cells.append(column.tolist() if field else [_table_cell(c) for c in column])
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines += map(",".join(fields).__mod__, zip(*cells, strict=True))
    atomic_write_text(path, "\n".join(lines) + "\n")
