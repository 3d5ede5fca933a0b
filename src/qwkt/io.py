"""Spectrum files, run manifests, reproducible writes.

Spectra travel as two-column CSV with a header naming the schema:
``omega_rad_per_s,intensity`` for ideal densities (difference frequency in
rad/s) or ``wavelength_nm,counts`` for sampled spectra on a spectrometer
axis; comment lines start with '#'. Two readers give the same values and
the same errors. ``csv`` with ``float()`` is the reference and reads any
file. A file whose lines after the header are blank or hold only the
characters that ``write_table`` spells numbers with takes a ``np.loadtxt``
shortcut (``_plain_table``); any other, such as one with a comment among
its rows, and one that ``loadtxt`` refuses, goes to csv.

Every CSV goes through ``write_table``, which takes columns and spells
each with one field (floats at 17 significant digits, so write-then-read
is lossless). Float columns are spelled by a numpy kernel whose bytes
equal ``"%.17g" % x``: a double-double product x * 10**(16 - k) gives the
17 digits, and a per-exponent layout table with a keep-mask gives the
``%g`` text. A cell the kernel cannot decide, or that lies outside its
range, is spelled by ``"%.17g" % x`` itself. Every file goes to a temp
file in the target directory, a CSV in blocks of rows that hold at most
``_BLOCK_FLOATS`` float cells, and is renamed into place.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
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
_BLOCK_FLOATS = 2048
# the characters of the numbers write_table spells, and of line ends
_PLAIN = b"0123456789+-.eEinfaINFA,\r\n"
_BLANK = ("\n", "\r\n", "\r")


def sha256_digest(path) -> str:
    """Hex SHA-256 of the file, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write text as UTF-8 through ``_atomic_write``."""
    _atomic_write(path, (text.encode("utf-8"),))


def _atomic_write(path, chunks) -> None:
    """Write the byte chunks to a temp file in the same directory, then rename
    it into place; on any failure the temp file goes and the target stays."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
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


def _plain_table(lines: list) -> tuple[tuple[str, ...], np.ndarray] | None:
    """The header's cells and the body of a plain file, converted by
    ``np.loadtxt``, from all of the file's lines; None for any other file.

    Before the header, lines may be blank or comments, by csv's rules as in
    ``_data_rows``, and none may hold a quote or a NUL or pass csv's field
    limit. After it, every line is blank or holds only ``_PLAIN``
    characters, so a comment there goes to csv. A body outside
    ``_MIN_ROWS``..``_MAX_ROWS`` rows is not converted, nor is one that
    ``loadtxt`` refuses or reads with other than 2 columns: csv then says
    why.
    """
    limit = csv.field_size_limit()

    def opaque(line):  # csv might not split it at its commas
        return '"' in line or "\x00" in line or len(line) > limit

    at = next((i for i, line in enumerate(lines) if opaque(line)
               or not (line in _BLANK or line.lstrip().startswith("#"))), None)
    if at is None or opaque(lines[at]):
        return None
    header = tuple(c.strip() for c in lines[at].rstrip("\r\n").split(","))
    body = lines[at + 1:]
    if "".join(body).encode().translate(None, _PLAIN):  # a comment, or not plain
        return None
    n_rows = len(body) - sum(map(body.count, _BLANK))
    if max(map(len, body), default=0) > limit or not _MIN_ROWS <= n_rows <= _MAX_ROWS:
        return None
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return (header, cells) if cells.shape == (n_rows, 2) else None


def _parse_rows(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header's cells and the body as an (n, 2) float64 array, from
    ``_plain_table`` for a plain file and from ``_data_rows`` for any other.
    At most 2 (``_MAX_ROWS`` + 1) lines are read ahead, once: room for
    ``_MAX_ROWS`` + 1 data rows and as many blank and comment lines besides.
    A file that fills them, or fails the screen, goes to csv, which reads on
    from there and only up to ``_MAX_ROWS`` + 1 rows, then converts them one
    by one and names the first bad row by its line."""
    budget = 2 * (_MAX_ROWS + 1)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            try:
                lines = list(itertools.islice(handle, budget))
                table = _plain_table(lines) if len(lines) < budget else None
            except UnicodeDecodeError:
                # the read-ahead decodes past the line where csv may stop
                # with an error of its own: csv starts anew
                handle.seek(0)
                lines, table = [], None
            if table is not None:
                return table
            rows = _data_rows(itertools.chain(lines, handle))
            _, header = next(rows, (0, None))
            body = list(itertools.islice(rows, _MAX_ROWS + 1))
    except OSError as exc:
        raise InputDataError(f"cannot read spectrum file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"spectrum file {path} is not UTF-8 text: {exc.reason}") from exc
    if header is None:
        raise InputDataError("spectrum file is empty (no header line)")
    if len(body) > _MAX_ROWS:
        raise InputDataError(f"spectrum has more than {_MAX_ROWS} data rows")
    cells = []
    for line_no, row in body:
        if len(row) != 2:
            raise InputDataError(f"line {line_no}: expected 2 columns, got {len(row)}")
        try:
            cells.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise InputDataError(f"line {line_no}: non-numeric cell") from exc
    return tuple(c.strip() for c in header), np.array(cells, float).reshape(-1, 2)


def read_spectrum(path, center_wavelength: float = 810e-9) -> SpectralPattern:
    """Read a spectrum CSV onto a symmetric uniform frequency grid.

    Either reader of the module docstring gives the same values and
    messages. The header names the schema. Abscissas must be finite and
    strictly increasing, wavelengths positive, and values finite and nonnegative
    (counts additionally integral). Wavelength axes are converted to
    difference frequency first. An axis that already is a symmetric uniform
    midpoint grid (to 1e-9 relative) is adopted exactly; anything else is
    resampled by linear interpolation onto such a grid (counts rounded back
    to integers), zero-filled outside the data, and marked ``resampled``.
    Every bad file raises ``InputDataError``, also one whose axis overflows
    float64 on the way.
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
            return _to_midpoint_grid(omega, values, kind)
    except (FloatingPointError, ConfigurationError) as exc:
        raise InputDataError(f"spectrum axis gives no usable frequency grid: {exc}") from exc


def _to_midpoint_grid(
    omega: np.ndarray, values: np.ndarray, kind: str
) -> SpectralPattern:
    n = omega.size if omega.size % 2 == 0 else omega.size - 1
    diffs = np.diff(omega)
    step = float(np.mean(diffs))
    span = omega[-1] - omega[0]
    uniform = float(np.max(np.abs(diffs - step))) <= _SNAP_RTOL * step
    symmetric = float(np.max(np.abs(omega + omega[::-1]))) <= _SNAP_RTOL * span
    if uniform and symmetric and omega.size % 2 == 0:
        grid = FrequencyGrid(omega_max=0.5 * step * omega.size, n_bins=omega.size)
        return SpectralPattern(grid, values.copy(), kind)
    omega_max = float(np.max(np.abs(omega)))
    grid = FrequencyGrid(omega_max=omega_max, n_bins=n)
    resampled = np.interp(grid.values, omega, values, left=0.0, right=0.0)
    if kind == "counts":
        resampled = np.rint(resampled)
    return SpectralPattern(grid, resampled, kind, resampled=True)


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
    write_json(path, vars(manifest))


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
    """CSV from equal-length columns: a float ndarray is spelled ``%.17g`` (by
    ``_spell_floats``), an integer ndarray ``%d``, any other sequence cell by
    cell via ``_table_cell``.

    Rows go out in blocks that hold at most ``_BLOCK_FLOATS`` float cells,
    which bounds the kernel's working set; each block's bytes
    (``_block_rows``) go straight to the temp file of ``_atomic_write``.
    """
    columns = list(columns)
    kinds = [getattr(column, "dtype", np.dtype("O")).kind for column in columns]
    columns = [column if kind in "fiu" else [_table_cell(c).encode() for c in column]
               for column, kind in zip(columns, kinds)]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("write_table columns differ in length")
    n_rows = len(columns[0]) if columns else 0
    step = max(_BLOCK_FLOATS // max(kinds.count("f"), 1), 1)

    def chunks():
        yield ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n").encode()
        for start in range(0, n_rows, step):
            yield _block_rows([column[start:start + step] for column in columns], kinds)

    _atomic_write(path, chunks())


def _block_rows(block, kinds) -> bytes:
    """The CSV rows of one block of equal-length column slices. The float
    columns are spelled in one ``_spell_floats`` call and the others packed
    in one ``_pack`` call, row by row; the cells then go into one byte matrix
    in header order, with a comma after each and a newline at the row's end.
    A block without float columns is joined as bytes instead: on the small
    tables that have none, numpy's fixed costs exceed the work."""
    n_rows = len(block[0])
    floats = [i for i, kind in enumerate(kinds) if kind == "f"]
    texts = [i for i, kind in enumerate(kinds) if kind != "f"]
    cells = [[b"%d" % c for c in block[i].tolist()] if kinds[i] in "iu" else block[i]
             for i in texts]
    if not floats:
        return b"".join(b",".join(row) + b"\n" for row in zip(*cells))
    spelled = _spell_floats(np.stack([block[i] for i in floats], axis=1, dtype=np.float64))
    groups = [(floats, spelled)]
    if texts:
        groups.append((texts, _pack(list(itertools.chain.from_iterable(zip(*cells))))))
    parts = [None] * len(block)
    for columns, (data, keep) in groups:
        data = data.reshape(n_rows, len(columns), -1)
        keep = keep.reshape(data.shape)
        for j, i in enumerate(columns):
            parts[i] = data[:, j], keep[:, j]
    comma = np.full((n_rows, 1), ord(","), np.uint8)
    always = np.ones((n_rows, 1), bool)
    data = np.concatenate([a for d, _ in parts for a in (d, comma)], axis=1)
    keep = np.concatenate([a for _, k in parts for a in (k, always)], axis=1)
    data[:, -1] = ord("\n")
    return np.extract(keep, data).tobytes()


def _pack(cells: list[bytes], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The cells left-aligned in a (len(cells), width) byte matrix, at least as
    wide as the longest, and the mask of their bytes. The mask comes from the
    lengths, so a NUL byte of a cell's own stays."""
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    width = max(width, int(lengths.max(initial=1)))
    data = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width)
    return data, np.arange(width) < lengths[:, None]


# The float kernel. A finite x with 1e-250 <= |x| <= 1e250 has decimal
# exponent k in [-251, 250]; the tables cover one more on each side for the
# correction of k. For these, 10**(16 - k) and the products stay normal.
_K_LOW, _K_COUNT = -252, 504
_KERNEL_MIN, _KERNEL_MAX = 1e-250, 1e250
# A fraction this close to 1/2 is left to "%.17g" unless 10**(16 - k) is exact:
# the double-double product is good to about 1e-14 at 1e17.
_TIE_MARGIN = 1e-9


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of 26 and 27 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double nearest a * b and the exact rest (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**(16 - k) for k = _K_LOW, _K_LOW + 1, ... as double-doubles hi + lo,
    with lo = 0 exactly when the power is a double. A positive power is
    rounded from its integer; 10**-q is 1 / 10**q and its Newton correction."""
    hi, lo, n = [], [], 1
    for _ in range(17 - _K_LOW):  # 10**0 .. 10**(16 - _K_LOW)
        hi.append(float(n))
        lo.append(float(n - int(hi[-1])))
        n *= 10
    hi, lo = np.array(hi), np.array(lo)
    q_max = _K_LOW + _K_COUNT - 17  # 10**-1 .. 10**-q_max
    big_hi, big_lo = hi[1:q_max + 1], lo[1:q_max + 1]
    inverse = 1.0 / big_hi
    p, p_rest = _two_product(big_hi, inverse)
    residual = ((1.0 - p) - p_rest) - big_lo * inverse  # 1 - 10**q * inverse
    return np.concatenate((hi[::-1], inverse)), np.concatenate((lo[::-1], inverse * residual))


def _digit_quads() -> np.ndarray:
    """The 4 ASCII digits of 0000..9999, each as one 4-byte item (moved, never shifted)."""
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - place))
    return quads.view(np.uint32).reshape(10000)


# Every layout of "%.17g" is a subsequence of one row: the sign, "0.000" for
# fixed notation below 1, the 17 digits with a point candidate after each of
# the first 16, and the exponent "e+ddd". Byte i of a layout is kept when the
# number of significant digits (17 less the trailing zeros) exceeds the
# threshold of k at i: 0 keeps it always, _NEVER drops it.
_DIGIT0, _EXPONENT = 6, 39  # columns of the first digit and of the "e"
_WIDTH = _EXPONENT + 5
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000", np.uint8)
_NEVER = np.uint8(99)


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Keep thresholds (_K_COUNT, _WIDTH) and exponent bytes (_K_COUNT, 5) per k."""
    k = np.arange(_K_LOW, _K_LOW + _K_COUNT, dtype=np.int16)[:, None]
    fixed = (0 <= k) & (k < 17)  # %g: fixed notation for -4 <= k < 17
    small = (-4 <= k) & (k < 0)
    scientific = ~fixed & ~small
    j = np.arange(17, dtype=np.int16)
    threshold = np.full((_K_COUNT, _WIDTH), _NEVER, np.uint8)
    threshold[:, 1:3] = np.where(small, 0, _NEVER)
    threshold[:, 3:6] = np.where(small & (j[:3] < -k - 1), 0, _NEVER)
    threshold[:, _DIGIT0:_EXPONENT:2] = np.where((j == 0) | (fixed & (j <= k)), 0, j)
    threshold[:, _DIGIT0 + 1:_EXPONENT:2] = np.where(
        fixed & (j[:16] == k), k + 1, np.where(scientific & (j[:16] == 0), 1, _NEVER))
    threshold[:, _EXPONENT:] = np.where(scientific, 0, _NEVER)
    threshold[:, _EXPONENT + 2] = np.where(scientific[:, 0] & (np.abs(k[:, 0]) >= 100), 0, _NEVER)
    exponent = np.empty((_K_COUNT, 5), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(k[:, 0] < 0, ord("-"), ord("+"))
    exponent[:, 2:] = np.abs(k) // np.array([100, 10, 1], np.int16) % 10 + ord("0")
    return threshold, exponent


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """Powers of ten (hi, lo), digit quads, keep thresholds and exponent bytes,
    built at the kernel's first use, so a process that writes no float column
    never builds them; read-only, since every call shares them."""
    tables = (*_powers_of_ten(), _digit_quads(), *_layouts())
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * (hi + lo): the exact product of a and
    hi, plus a * lo."""
    p, rest = _two_product(a, hi)
    rest += a * lo
    p_int = np.floor(p)
    t = (p - p_int) + rest
    t_int = np.floor(t)
    return p_int.astype(np.int64) + t_int.astype(np.int64), t - t_int


def _spell_floats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.17g" % v`` for each v of the float64 array x: row i of a
    (x.size, _WIDTH) byte matrix, at the bytes its keep-mask marks.

    k = floor(log10|v|), corrected from the integer part of the scaled
    product; the 17 digits are that product rounded half-even. Zero,
    non-finite values, |v| outside [1e-250, 1e250] and a fraction within
    _TIE_MARGIN of 1/2 at an inexact power of ten are spelled by ``%``.
    """
    pow_hi, pow_lo, quads, thresholds, exponents = _kernel_tables()
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a[~fast] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _K_LOW
    whole, frac = _scaled(a, pow_hi.take(row), pow_lo.take(row))
    shift = (whole >= 10**17).astype(np.intp) - (whole < 10**16)
    moved = np.flatnonzero(shift)
    if moved.size:
        row[moved] += shift[moved]
        whole[moved], frac[moved] = _scaled(a[moved], pow_hi.take(row[moved]),
                                            pow_lo.take(row[moved]))
    fast &= (pow_lo.take(row) == 0.0) | (np.abs(frac - 0.5) >= _TIE_MARGIN)
    whole += (frac > 0.5) | ((frac == 0.5) & (whole % 2 == 1))
    carry = whole == 10**17
    whole[carry] = 10**16
    row[carry] += 1

    data = np.empty((x.size, _WIDTH), np.uint8)
    data[:] = _TEMPLATE
    lead, rest = np.divmod(whole, 10**16)
    data[:, _DIGIT0] = lead + ord("0")
    halves = np.stack(np.divmod(rest, 10**8), axis=1)
    digits = quads.take(np.stack(np.divmod(halves, 10**4), axis=2))  # digits 2-5, 6-9, ...
    data[:, _DIGIT0 + 2:_EXPONENT:2] = digits.view(np.uint8).reshape(x.size, 16)
    data[:, _EXPONENT:] = exponents.take(row, axis=0)
    trailing_zeros = np.argmax(data[:, _EXPONENT - 1:_DIGIT0 - 1:-2] != ord("0"), axis=1)
    significant = (17 - trailing_zeros).astype(np.uint8)
    keep = significant[:, None] > thresholds.take(row, axis=0)
    keep[:, 0] = np.signbit(x)
    slow = np.flatnonzero(~fast)
    if slow.size:
        data[slow], keep[slow] = _pack([b"%.17g" % v for v in x[slow].tolist()], _WIDTH)
    return data, keep
