"""File formats and command-line entry points."""

import argparse
import hashlib
import json
import math
import os
import struct
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwkt import (
    BiphotonSource,
    ConfigurationError,
    FrequencyGrid,
    InputDataError,
    SpectralPattern,
    read_manifest,
    read_spectrum,
    sha256_digest,
    write_manifest,
    write_spectrum,
)
from qwkt import io as qwkt_io
from qwkt.cli import build_parser, main
from qwkt.io import (
    OMEGA_HEADER,
    WAVELENGTH_HEADER,
    RunManifest,
    _parse_rows,
    _spell_floats,
    _table_cell,
    atomic_write_text,
    difference_frequency_from_wavelength,
    wavelength_from_difference_frequency,
    write_json,
    write_table,
)
from qwkt.transform import _MAX_BINS

SRC = BiphotonSource.from_bandwidth(10e-9)
SIGMA = SRC.sigma_spectral


def _pattern(kind="ideal-density", n_bins=64):
    grid = FrequencyGrid(omega_max=6.0 * 2.0 * SIGMA, n_bins=n_bins)
    if kind == "counts":
        rng = np.random.default_rng(0)
        values = rng.integers(0, 500, size=n_bins).astype(float)
    else:
        values = np.exp(-0.5 * (grid.values / (2.0 * SIGMA)) ** 2)
    return SpectralPattern(grid, values, kind=kind)


# ------------------------------------------------------------------ helpers


def test_format_float_shortest_exact(tmp_path):
    # a float cell is spelled at 17 significant digits and reads back exactly
    out = tmp_path / "floats.csv"
    write_table(out, ("a", "b"), [(0.1,), (1.0 / 3.0,)])
    cells = out.read_text().splitlines()[1].split(",")
    assert cells[0] == "0.10000000000000001"
    assert float(cells[1]) == 1.0 / 3.0


def test_write_table_cell_formats(tmp_path):
    # floats at 17 significant digits, not the shortest repr: 0.1 is spelled out
    out = tmp_path / "table.csv"
    row = (3, np.int64(-7), None, "x", -0.0, math.inf, -math.inf, math.nan, 0.1 + 0.2, 0.1)
    write_table(out, tuple("abcdefghij"), [(cell,) for cell in row], comments=("note",))
    assert out.read_bytes() == (
        b"# note\na,b,c,d,e,f,g,h,i,j\n"
        b"3,-7,,x,-0,inf,-inf,nan,0.30000000000000004,0.10000000000000001\n"
    )


# float64 edge cases: signed zeros, non-finite, subnormals, the normal limits
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-308, 1e308, 1.7976931348623157e308,
                -1.7976931348623157e308]
_INT64 = st.integers(-(2**63), 2**63 - 1)
_CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
    "int": _INT64,
    "object": st.one_of(st.none(), st.text(st.characters(codec="utf-8"), max_size=4),
                        st.integers(), _INT64.map(np.int64), st.floats()),
}


@st.composite
def _table_columns(draw):
    """1-4 equal-length columns: float64 arrays, int64 arrays, or lists
    mixing None, str, int, np.int64 and float."""
    n = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4)):
        cells = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
        dtype = {"float": np.float64, "int": np.int64}.get(kind)
        columns.append(cells if dtype is None else np.array(cells, dtype=dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_table_columns())
def test_write_table_matches_per_cell_rows(tmp_path_factory, columns):
    # the reference spells every cell of the transposed rows on its own: an
    # int64 array's cells with %d (exact past 2^53), any other through _table_cell
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    header = tuple(f"c{i}" for i in range(len(columns)))
    write_table(path, header, columns, comments=("note",))
    integer = [getattr(column, "dtype", None) == np.int64 for column in columns]
    rows = [",".join("%d" % cell if i else _table_cell(cell) for i, cell in zip(integer, row))
            for row in zip(*columns)]
    assert path.read_bytes() == "\n".join(["# note", ",".join(header), *rows, ""]).encode()


def _spelled(values):
    data, keep = _spell_floats(np.array(values, dtype=np.float64))
    return [bytes(row[mask]).decode() for row, mask in zip(data, keep)]


# signed zeros, non-finite values, the subnormal and normal limits; powers of
# ten where %g switches notation, and 9.9999999999999998e-13, which stays that
# (not 1e-12) only through the k correction; an exact tie at an exact power
# (half-even: .62 and .88); two fractions within 1e-18 of 1/2 at an inexact
# power, which only the fallback to "%.17g" spells right
_PINNED_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e16, 1e17, 9.9999999999999998e-13, 1e-5, 0.0001,
                  123456789012345.625, 123456789012345.875,
                  6.324027154591757e-75, 1.7706146115181413e137]
_FLOAT64_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0])


@settings(max_examples=1000, deadline=None)
@example(values=_PINNED_FLOATS)
@given(values=st.lists(st.one_of(_FLOAT64_BITS, st.floats()), min_size=1, max_size=32))
def test_float_kernel_matches_percent_17g(values):
    assert _spelled(values) == ["%.17g" % x for x in values]


def test_write_table_streams_a_float_table_in_under_1mb(tmp_path):
    # the 4096 x 4 shape of estimate's correlation sidecar
    rng = np.random.default_rng(0)
    columns = tuple(rng.normal(size=4096) for _ in range(4))
    write_table(tmp_path / "warm.csv", tuple("abcd"), columns)
    tracemalloc.start()
    try:
        write_table(tmp_path / "table.csv", tuple("abcd"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sha256_digest_reads_past_one_chunk(tmp_path):
    path = tmp_path / "blob.bin"
    payload = np.random.default_rng(0).bytes(3 * 2**16 + 5)
    path.write_bytes(payload)
    assert sha256_digest(path) == hashlib.sha256(payload).hexdigest()


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([x for x in _EDGE_FLOATS if math.isfinite(x)]))


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(_FINITE, _FINITE), max_size=20))
def test_written_floats_parse_back_bit_for_bit(tmp_path_factory, cells):
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    body = np.array(cells, dtype=np.float64).reshape(-1, 2)
    write_table(path, OMEGA_HEADER, (body[:, 0], body[:, 1]))
    header, parsed = _parse_rows(path)
    assert header == OMEGA_HEADER
    assert parsed.tobytes() == body.tobytes()  # -0.0 and 0.0 differ here


_ROWS = [f"{800.0 + i!r},{i}" for i in range(20)]


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=50))
def test_hypot_is_abs_complex_bit_for_bit(parts):
    # estimate's correlation_abs column is np.hypot(real, imag) under
    # errstate(over="raise"): Python's abs(complex) bits, and an overflowing
    # modulus raises rather than warns
    real, imag = (np.array(column) for column in zip(*parts))
    try:
        expected = np.array([abs(complex(x, y)) for x, y in parts])
    except OverflowError:
        with pytest.raises(FloatingPointError), np.errstate(over="raise"):
            np.hypot(real, imag)
        return
    with np.errstate(over="raise"):
        assert np.hypot(real, imag).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad, message", [
    ("801.5,5,6", "line 7: expected 2 columns, got 3"),
    ("abc,5", "line 7: non-numeric cell"),
    ("801.5,", "line 7: non-numeric cell"),
    ("801.5", "line 7: expected 2 columns, got 1"),
    ('"801.5","abc"', "line 7: non-numeric cell"),  # quoted: csv reads the whole file
])
def test_read_spectrum_names_the_first_bad_line(tmp_path, bad, message):
    # line numbers count the comment and blank lines; a later bad line of
    # the other kind does not take precedence
    later = "x,y" if "columns" in message else "1,2,3"
    lines = ["# note", "", "wavelength_nm,counts", _ROWS[0], "", "# mid", bad,
             *_ROWS[1:10], later, *_ROWS[10:]]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputDataError) as err:
        read_spectrum(path)
    assert str(err.value) == message


def test_read_spectrum_quoted_cells_load_as_plain(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("wavelength_nm,counts\n" + "\n".join(_ROWS) + "\n")
    quoted.write_text('"wavelength_nm","counts"\n' + "".join(
        '"{}","{}"\n'.format(*row.split(",")) for row in _ROWS
    ))
    assert '"812.0","12"' in quoted.read_text()
    a, b = read_spectrum(plain), read_spectrum(quoted)
    assert a.grid == b.grid and a.kind == b.kind == "counts"
    assert a.values.tobytes() == b.values.tobytes()


def test_plain_files_take_the_loadtxt_path(tmp_path):
    # a write_spectrum file, and one with CRLF endings and a blank line
    # between its rows, are read by np.loadtxt as csv reads them; a comment
    # between the rows sends the file to csv, with the same bits
    path = tmp_path / "plain.csv"
    write_spectrum(path, _pattern("counts"), comments=("note, with a comma",))
    lines = path.read_text().splitlines()
    edited, commented = tmp_path / "edited.csv", tmp_path / "commented.csv"
    edited.write_bytes("\r\n".join([*lines[:9], "", *lines[9:], ""]).encode())
    commented.write_bytes("\r\n".join([*lines[:9], "", " # mid", *lines[9:], ""]).encode())

    def screen(file):
        with open(file, encoding="utf-8", newline="") as handle:
            return qwkt_io._plain_table(list(handle))

    for file in (path, edited):
        header, body = screen(file)
        assert header == WAVELENGTH_HEADER
        with mock.patch.object(qwkt_io, "_plain_table", lambda lines: None):
            assert _parse_rows(file)[1].tobytes() == body.tobytes()
    assert screen(commented) is None
    a, b = read_spectrum(path), read_spectrum(commented)
    assert a.grid == b.grid and a.values.tobytes() == b.values.tobytes()


def test_read_spectrum_names_a_long_cell_before_a_later_non_utf8_byte(tmp_path):
    # the plain reader decodes lines ahead of csv, which stops at the long
    # cell before it reaches the byte that is not UTF-8
    path = tmp_path / "both.csv"
    path.write_bytes(b"wavelength_nm,counts\n" + b"8" * 2**17 + b".5,1\n"
                     + b"800.5,1\n" * 2000 + b"\xff,1\n")
    with pytest.raises(InputDataError) as err:
        read_spectrum(path)
    assert str(err.value) == "line 2: field larger than field limit (131072)"


_PLAIN_CELLS = st.one_of(
    st.floats().map(repr), st.integers(-5, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "NaN", "+nan", "1e400", "-0", "1E5", ".5"]),
)
_ODD_CELLS = st.sampled_from([
    "", " 5", "5 ", '"5"', '"1,5"', "1_0", "\u0661", "\x1c5", "\x1d5", "5\x1e", "5\x1f", "\t5",
    "abc", "#x", "\x005", "1e5e", "infinity", "5#", '" #x"', '"#x"',
])
_ODD_LINES = st.sampled_from([
    "", "   ", "\t", "# note", "  # note, with a comma", "#", '"#x",1', "1,#2", '# a,"b',
    "\x00", "# \x00", '"a\nb",1',
])


@st.composite
def _reader_files(draw):
    """Spectrum-like text around both readers' edges: row counts either side
    of _MIN_ROWS and of a _MAX_ROWS of 20; plain rows with none, one or up
    to four odd lines or rows (1 to 3 cells, quoted, spaced or non-numeric)
    among them; LF, CRLF or CR line ends, with or without a last one."""
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    head = draw(st.lists(st.sampled_from(["", "# comment", "  # x,y", '# "q"']), max_size=2))
    header = draw(st.sampled_from([
        "wavelength_nm,counts", "omega_rad_per_s,intensity", '"wavelength_nm","counts"',
        " wavelength_nm , counts", "volts", "",
    ]))
    n = draw(st.one_of(st.integers(16, 20), st.integers(12, 24)))
    rows = draw(st.lists(st.tuples(_PLAIN_CELLS, _PLAIN_CELLS).map(",".join),
                         min_size=n, max_size=n))
    cells = st.one_of(_ODD_CELLS, _PLAIN_CELLS)
    odd_rows = st.one_of(st.tuples(_ODD_CELLS, _PLAIN_CELLS), st.tuples(cells, cells),
                         st.lists(cells, min_size=1, max_size=3))
    odd_rows = odd_rows.map(",".join)
    for at, line, replace in draw(st.lists(
            st.tuples(st.integers(0, len(rows)), st.one_of(_ODD_LINES, odd_rows), st.booleans()),
            max_size=draw(st.sampled_from([0, 1, 4])))):
        rows[at:at + replace] = [line]
    last = ending if draw(st.booleans()) else ""
    return ending.join([*head, header, *rows]) + last


def _read_outcome(path):
    try:
        header, body = _parse_rows(path)
    except InputDataError as exc:
        return str(exc)
    return header, body.dtype, body.shape, body.tobytes()


@settings(max_examples=300, deadline=None)
@example(text="wavelength_nm,counts\n" + "".join(f"{800 + i},5\n" for i in range(16))
         + "\x1c5,1\n")  # float() refuses what loadtxt reads as a space and a 5
@example(text="wavelength_nm,counts\n" + "5\n" * 16)  # loadtxt reads one column
@given(text=_reader_files())
def test_plain_reader_matches_the_csv_reader(tmp_path_factory, text):
    # the same header and body bits, or the same error, with and without
    # the loadtxt path
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(qwkt_io, "_MAX_ROWS", 20):
        plain = _read_outcome(path)
        with mock.patch.object(qwkt_io, "_plain_table", lambda lines: None):
            assert plain == _read_outcome(path)


def test_wavelength_frequency_roundtrip():
    lam = np.linspace(760e-9, 860e-9, 101)
    omega = difference_frequency_from_wavelength(lam, 810e-9)
    back = wavelength_from_difference_frequency(omega, 810e-9)
    assert np.max(np.abs(back - lam) / lam) < 1e-12
    # the map is a doubled detuning: omega = 4 pi c (1/lam - 1/center)
    expected = 4.0 * math.pi * 299792458.0 * (1.0 / lam - 1.0 / 810e-9)
    assert omega == pytest.approx(expected, rel=1e-15)


def test_wavelength_from_frequency_rejects_unphysical():
    # a difference frequency below the negative optical frequency has no
    # wavelength preimage
    with pytest.raises(ConfigurationError):
        wavelength_from_difference_frequency(np.array([-4e16]), 810e-9)


# ----------------------------------------------------------------- spectra


def test_spectrum_roundtrip_ideal(tmp_path):
    path = tmp_path / "spec.csv"
    pat = _pattern()
    write_spectrum(path, pat)
    back = read_spectrum(path)
    assert back.kind == pat.kind
    assert back.grid.n_bins == pat.grid.n_bins
    assert back.grid.omega_max == pytest.approx(pat.grid.omega_max, rel=1e-12)
    assert back.values == pytest.approx(pat.values, rel=1e-15)


def test_spectrum_roundtrip_counts(tmp_path):
    path = tmp_path / "counts.csv"
    pat = _pattern(kind="counts")
    write_spectrum(path, pat)
    back = read_spectrum(path)
    assert back.kind == "counts"
    assert np.array_equal(back.values, pat.values)


def test_spectrum_write_then_write_is_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    pat = _pattern()
    write_spectrum(a, pat)
    write_spectrum(b, pat)
    assert sha256_digest(a) == sha256_digest(b)


def test_read_spectrum_resamples_foreign_grid(tmp_path):
    # a non-midpoint abscissa still loads; values are interpolated onto
    # the nearest matching midpoint grid
    path = tmp_path / "foreign.csv"
    lam = np.linspace(770e-9, 850e-9, 41)
    inten = np.exp(-0.5 * ((lam - 810e-9) / 20e-9) ** 2)
    lines = ["omega_rad_per_s,intensity"]
    omega = difference_frequency_from_wavelength(lam, 810e-9)
    order = np.argsort(omega)
    for w, v in zip(omega[order], inten[order]):
        lines.append(f"{float(w)!r},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    pat = read_spectrum(path)
    assert pat.grid.n_bins >= 16
    assert np.all(pat.values >= 0.0)


def test_read_spectrum_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("omega_rad_per_s,intensity\n1.0,1.0\n")
    with pytest.raises(InputDataError):
        read_spectrum(path)  # too few rows

    rows = [f"{float(i)},1.0" for i in range(20)]
    rows[5] = "4.0,1.0"  # not strictly increasing
    path.write_text("omega_rad_per_s,intensity\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputDataError):
        read_spectrum(path)

    rows = [f"{float(i)},-1.0" for i in range(20)]
    path.write_text("omega_rad_per_s,intensity\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputDataError):
        read_spectrum(path)

    path.write_text("volts,amps\n1.0,1.0\n2.0,2.0\n")
    with pytest.raises(InputDataError):
        read_spectrum(path)

    path.write_text("")
    with pytest.raises(InputDataError):
        read_spectrum(path)


def _spectrum_text(header, rows):
    # a float's str is its repr; a str cell is written as it is
    return "\n".join([",".join(header), *(f"{a},{v}" for a, v in rows)]) + "\n"


_BAD_CELLS = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _spectrum_files(draw):
    """Spectrum CSV text: 16-41 rows, so odd and even counts; an axis that
    is symmetric, one-sided or asymmetric, at any float64 scale; and up to
    two nan/inf cells in either column."""
    header = draw(st.sampled_from([OMEGA_HEADER, WAVELENGTH_HEADER]))
    n = draw(st.integers(16, 41))
    step = draw(st.one_of(st.floats(1e-3, 10.0), st.floats(0.0, 1e308, exclude_min=True)))
    start = draw(st.one_of(
        st.just(-0.5 * (n - 1) * step), st.floats(1.0, 2000.0), st.floats(-1e308, 1e308)
    ))
    axis = [start + i * step for i in range(n)]
    if header == WAVELENGTH_HEADER:
        values = draw(st.lists(st.integers(0, 10**6).map(float), min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.floats(0.0, 1e308), min_size=n, max_size=n))
    columns = [axis, values]
    cells = st.tuples(st.integers(0, 1), st.integers(0, n - 1), _BAD_CELLS)
    for column, row, bad in draw(st.lists(cells, max_size=2)):
        columns[column][row] = bad
    return _spectrum_text(header, zip(*columns))


@settings(max_examples=200, deadline=None)
@given(text=_spectrum_files())
def test_read_spectrum_loads_finite_or_raises_input_error(tmp_path_factory, text):
    # never a ConfigurationError (exit 2) or a leaked RuntimeWarning
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pattern = read_spectrum(path)
        except InputDataError:
            return
    assert np.all(np.isfinite(pattern.grid.values))
    assert np.all(np.isfinite(pattern.values))


@pytest.mark.parametrize("header, row, at", [
    (WAVELENGTH_HEADER, (math.inf, 5.0), -1),  # was resampled onto a 4.65e15 rad/s grid
    (WAVELENGTH_HEADER, (-5.0, 5.0), 0),  # was resampled onto a 7.6e17 rad/s grid
    (WAVELENGTH_HEADER, (0.0, 5.0), 0),  # was exit 2 plus a RuntimeWarning
    (OMEGA_HEADER, (math.inf, 5.0), -1),  # was exit 2 plus a RuntimeWarning
    (WAVELENGTH_HEADER, (1e-300, 5.0), 0),  # 1/wavelength overflows float64
    # bytes 0xff 0xfe, not UTF-8: was exit 2 with the codec's text
    pytest.param(WAVELENGTH_HEADER, ("\udcff\udcfe", 5.0), 0, id="not-utf8"),
    # past csv's 131,072-character field limit: was a _csv.Error traceback, exit 1
    pytest.param(WAVELENGTH_HEADER, ("8" * 2**17 + ".5", 5.0), 0, id="over-long-cell"),
])
def test_cli_estimate_rejects_bad_abscissa(tmp_path, capsys, header, row, at):
    rows = [(800.0 + i, 5.0) for i in range(32)]
    rows[at] = row
    path = tmp_path / "bad.csv"
    path.write_text(_spectrum_text(header, rows), errors="surrogateescape")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["estimate", "--input", path, "--out", tmp_path / "x.json"]) == 3
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_atomic_write_cleans_up_after_a_failed_rename(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("before\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(target, "after\n")
    assert target.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_read_spectrum_counts_must_be_integers(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    rows = [f"{x!r},1.5" for x in np.linspace(770, 850, 20).tolist()]
    path.write_text("wavelength_nm,counts\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputDataError) as err:
        read_spectrum(path)
    assert str(err.value) == "counts schema requires integer values"
    # through the CLI: exit 3, and no output file
    assert _run(["estimate", "--input", path, "--out", tmp_path / "x.json"]) == 3
    assert capsys.readouterr().err == "error: counts schema requires integer values\n"
    assert [p.name for p in tmp_path.iterdir()] == ["frac.csv"]


def test_read_spectrum_bounds_rows_before_converting(tmp_path, monkeypatch, capsys):
    # the largest grid takes _MAX_BINS + 1 rows (an odd axis drops one); a
    # file past the bound is refused before its first, non-numeric, cell is read
    assert qwkt_io._MAX_ROWS == _MAX_BINS + 1
    monkeypatch.setattr(qwkt_io, "_MAX_ROWS", 20)
    path = tmp_path / "long.csv"
    rows = [f"{800.0 + i!r},5" for i in range(20)]
    path.write_text("wavelength_nm,counts\n" + "\n".join(rows) + "\n")
    assert read_spectrum(path).grid.n_bins == 20
    path.write_text("wavelength_nm,counts\nabc,5\n" + "\n".join(rows) + "\n")
    assert _run(["estimate", "--input", path, "--out", tmp_path / "x.json"]) == 3
    assert capsys.readouterr().err == "error: spectrum has more than 20 data rows\n"
    assert [p.name for p in tmp_path.iterdir()] == ["long.csv"]


def test_read_spectrum_stops_reading_past_the_row_bound(tmp_path, monkeypatch):
    # a plain file past the bound is refused without being read to its end,
    # whose last byte is not UTF-8
    monkeypatch.setattr(qwkt_io, "_MAX_ROWS", 20)
    path = tmp_path / "long.csv"
    path.write_bytes(b"wavelength_nm,counts\n" + b"800.5,5\n" * 10**4 + b"\xff\n")
    with pytest.raises(InputDataError) as err:
        read_spectrum(path)
    assert str(err.value) == "spectrum has more than 20 data rows"


def test_plain_reader_leaves_a_long_run_of_blank_lines_to_csv(tmp_path, monkeypatch):
    # the read-ahead holds as many blank or comment lines as data rows fit;
    # a file that fills it never reaches the screen, and csv streams on
    # without keeping its lines
    monkeypatch.setattr(qwkt_io, "_MAX_ROWS", 20)
    path = tmp_path / "blank.csv"
    rows = "".join(f"{800 + i},5\n" for i in range(20))
    path.write_text("# note\n" + "\n" * 100 + "wavelength_nm,counts\n" + rows)

    def screen(lines):
        raise AssertionError(f"the screen got {len(lines)} lines")

    monkeypatch.setattr(qwkt_io, "_plain_table", screen)
    assert read_spectrum(path).grid.n_bins == 20

# ---------------------------------------------------------------- manifest


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "run.manifest.json"
    manifest = RunManifest(
        command="qwkt simulate --tau-ps 0.2",
        config={"sigma_rad_per_s": SIGMA, "tau_s": 2e-13},
        seed=7,
        version="0.1.0",
        input_digests={},
        output_digests={"out.csv": "ab" * 32},
        duration_seconds=0.25,
    )
    write_manifest(path, manifest)
    back = read_manifest(path)
    assert back.command == manifest.command
    assert back.config == manifest.config
    assert back.seed == 7
    assert back.schema_version == 1
    assert back.output_digests == manifest.output_digests


def test_write_json_stable_key_order(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"z": 1, "a": 2})
    write_json(b, {"a": 2, "z": 1})
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------------- CLI


def _run(argv):
    return main([str(a) for a in argv])


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as err:
        _run(["--version"])
    assert err.value.code == 0


def test_cli_simulate_ideal_then_estimate(tmp_path, capsys):
    out = tmp_path / "jsi.csv"
    code = _run(["simulate", "--tau-ps", "0.364", "--ideal", "--out", out])
    assert code == 0
    assert out.exists() and (tmp_path / "jsi.csv.manifest.json").exists()

    est = tmp_path / "est.json"
    code = _run(["estimate", "--input", out, "--out", est])
    assert code == 0
    payload = json.loads(est.read_text())
    delays = payload["peaks"]["delays"]
    assert len(delays) == 1
    step = payload["peaks"]["grid_resolution_s"]
    assert abs(delays[0]["tau_s"] - 0.364e-12) < 2.0 * step
    lines = (tmp_path / "est.correlation.csv").read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    assert len(rows) == 4096
    assert all(m == abs(complex(re, im)) for _, re, im, m in rows)
    assert "qcrb_s" in payload["crb"]
    row = payload["crb"]["per_delay"][0]
    assert 0.0 <= row["error_estimate"] <= 1e-8 * row["g_omega"]


def test_cli_simulate_counts_then_mle(tmp_path):
    out = tmp_path / "counts.csv"
    code = _run(
        ["simulate", "--layers", "0.12:0.5,0.2:0.5", "--trials", "1000000",
         "--seed", "5", "--bins", "256", "--out", out]
    )
    assert code == 0
    est = tmp_path / "fit.json"
    code = _run(
        ["estimate", "--input", out, "--mle", "--layers", "2",
         "--trials", "1000000", "--out", est]
    )
    assert code == 0
    payload = json.loads(est.read_text())
    taus = [lay["tau_s"] for lay in payload["mle"]["layers"]]
    assert abs(taus[0] - 0.12e-12) < 5e-16
    assert abs(taus[1] - 0.20e-12) < 5e-16
    assert payload["mle"]["evaluations"] < 21  # both peaks pinned: no scan
    assert 1.0 <= payload["mle"]["hessian_condition"] < float("inf")


def test_cli_trinomial_estimate_requires_trials(tmp_path, capsys):
    # the column total of a trinomial spectrum is not its per-bin trial
    # count; guessing it gave a confidently wrong delay with exit code 0
    counts = tmp_path / "counts.csv"
    code = _run(
        ["simulate", "--sigma-nm", "10", "--variant", "trinomial", "--tau-ps", "0.2",
         "--bins", "64", "--trials", "20000", "--seed", "3", "--out", counts]
    )
    assert code == 0
    est = tmp_path / "fit.json"
    fit = ["estimate", "--input", counts, "--sigma-nm", "10", "--variant", "trinomial",
           "--mle", "--out", est]
    capsys.readouterr()
    assert _run(fit) == 2
    assert "--trials" in capsys.readouterr().err
    assert not est.exists()
    # fewer trials than a bin's pairs read 200.87 fs +/- 0.048 fs with exit 0
    assert _run([*fit, "--trials", "2000"]) == 3
    assert "2000 trials" in capsys.readouterr().err
    assert not est.exists()
    assert not (tmp_path / "fit.correlation.csv").exists()
    assert not (tmp_path / "fit.json.manifest.json").exists()
    assert _run([*fit, "--trials", "20000"]) == 0
    layer = json.loads(est.read_text())["mle"]["layers"][0]
    assert abs(layer["tau_s"] - 0.2e-12) <= 10.0 * layer["stderr_tau_s"]


def test_cli_estimate_mle_refuses_a_resampled_axis(tmp_path, capsys):
    # pixels uniform in wavelength are resampled onto a difference-frequency
    # grid; fitted as counts they gave 97 of 100 delays wrong at 0.5 ps
    lam = np.linspace(790.0, 830.0, 256)
    omega = difference_frequency_from_wavelength(lam * 1e-9, 810e-9)
    shape = np.exp(-0.5 * (omega / (2.0 * SIGMA)) ** 2) * (1.0 - 0.9 * np.cos(omega * 0.5e-12))
    rows = [f"{x!r},{c}" for x, c in zip(lam.tolist(), np.rint(1000.0 * shape).astype(int))]
    path = tmp_path / "lambda.csv"
    path.write_text("wavelength_nm,counts\n" + "\n".join(rows) + "\n")
    assert read_spectrum(path).resampled
    fit = ["estimate", "--input", path, "--sigma-nm", "10", "--out", tmp_path / "x.json"]
    capsys.readouterr()
    assert _run([*fit, "--mle"]) == 3
    assert "not uniform in difference frequency" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    # the peak report only seeds a fit, so it still reads the file
    assert _run(fit) == 0
    assert "peaks" in json.loads((tmp_path / "x.json").read_text())


def test_cli_estimate_mle_requires_counts(tmp_path):
    out = tmp_path / "ideal.csv"
    assert _run(["simulate", "--tau-ps", "0.2", "--ideal", "--out", out]) == 0
    code = _run(["estimate", "--input", out, "--mle", "--out", tmp_path / "x.json"])
    assert code == 3
    # an exit-3 run writes nothing: no sidecar, no manifest
    assert not (tmp_path / "x.correlation.csv").exists()
    assert not (tmp_path / "x.json.manifest.json").exists()


def test_cli_estimate_missing_file(tmp_path):
    code = _run(["estimate", "--input", tmp_path / "nope.csv", "--out", tmp_path / "x.json"])
    assert code == 3


def test_cli_simulate_rejects_conflicting_delays(tmp_path):
    code = _run(
        ["simulate", "--tau-ps", "0.2", "--layers", "0.1:1", "--out", tmp_path / "x.csv"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # inf raised OverflowError (exit 1); 2.7 ran 2 trials; 1e30 exited 3 or 4
        ["simulate", "--tau-ps", "0.2", "--trials", "inf"],
        ["simulate", "--tau-ps", "0.2", "--trials", "2.7"],
        ["simulate", "--tau-ps", "0.2", "--trials", "1e30"],
        ["fisher", "--trials", "1e30"],
        ["simulate", "--layers", "0.2:nan"],
        # exit 0 with a nan fit, exit 0 with no delays, exit 4 after 4.5 s
        ["estimate", "--input", "IN", "--mle", "--phi", "nan"],
        ["estimate", "--input", "IN", "--threshold", "nan"],
        ["estimate", "--input", "IN", "--sigma-nm", "nan"],
        # exit 4 after writing its files
        ["sweep", "--tau-axis", "nan"],
    ],
    ids=["trials-inf", "trials-fraction", "trials-huge", "fisher-trials-huge", "layer-nan",
         "phi-nan", "threshold-nan", "sigma-nan", "axis-nan"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, argv):
    spectrum = tmp_path / "in.csv"
    assert _run(["simulate", "--tau-ps", "0.2", "--bins", "256", "--out", spectrum]) == 0
    before = sorted(tmp_path.iterdir())
    argv = [spectrum if a == "IN" else a for a in argv] + ["--out", tmp_path / "out"]
    try:
        code = _run(argv)
    except SystemExit as exc:  # argparse rejects a flag's value
        code = exc.code
    assert code == 2
    assert sorted(tmp_path.iterdir()) == before


def test_cli_trials_keep_every_integer_digit():
    # integer literals went through float: 2**53 + 1 ran as 2**53, and
    # 2**63 - 1, the bound named in the message, was refused
    def trials(text):
        return build_parser().parse_args(["simulate", "--trials", text]).trials

    assert trials(str(2**53 + 1)) == 2**53 + 1
    assert trials(str(2**63 - 1)) == 2**63 - 1
    assert trials("1e6") == 10**6
    with pytest.raises(SystemExit) as exc:
        trials(str(2**63))
    assert exc.value.code == 2


@pytest.mark.parametrize("ideal", [True, False])
def test_cli_simulate_rejects_delays_beyond_unambiguous_range(tmp_path, capsys, ideal):
    # 10 nm at 256 bins resolves delays below t_max = 1.167 ps; 1.5 ps
    # aliases, and a fit of it read 0.90 ps with a femtosecond stderr
    out = tmp_path / "x.csv"
    code = _run(
        ["simulate", "--sigma-nm", "10", "--layers", "0.3:0.5,1.5:0.5", "--bins", "256",
         "--out", out, *(["--ideal"] if ideal else [])]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--bins" in err and "--span-sd" in err and "1.167" in err
    assert not out.exists()


def test_cli_fisher_axis(tmp_path):
    out = tmp_path / "fisher.csv"
    code = _run(["fisher", "--sigma-nm", "10", "--tau-axis", "0.05:2:5ps", "--out", out])
    assert code == 0
    rows = [r for r in out.read_text().splitlines() if r and not r.startswith("#")]
    assert rows[0].split(",")[0] == "sigma_rad_per_s"
    assert len(rows) == 6
    for row in rows[1:]:
        g = float(row.split(",")[5])
        assert g == pytest.approx(4.0 * SIGMA**2, rel=1e-6)


def test_cli_sweep_monotonicity_sidecar(tmp_path):
    out = tmp_path / "sweep.csv"
    code = _run(
        ["sweep", "--sigma-axis", "10:40:4nm", "--tau-axis", "0.5",
         "--gamma-axis", "0:0.4:3", "--out", out]
    )
    assert code == 0
    side = json.loads((tmp_path / "sweep.monotonicity.json").read_text())
    assert side["monotonicity"]["sigma"] == "increasing"
    assert side["monotonicity"]["gamma"] == "decreasing"
    rows = [r for r in out.read_text().splitlines() if r and not r.startswith("#")]
    assert len(rows) == 1 + 4 * 3


def test_cli_main_repeated_calls_leave_no_garbage(tmp_path):
    # no gc.collect(): memory that only a full collection would free counts
    args = ["sweep", "--sigma-axis", "10", "--tau-axis", "0.5", "--out", str(tmp_path / "s.csv")]
    assert main(args) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            assert main(args) == 0
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= 0.2 * 2**20


def test_estimate_exits_2_when_no_bin_holds_envelope_mass(tmp_path, capsys):
    # at 1.04e141 nm every bin edge's normal CDF rounds to 1/2: mass 0 in every bin
    spectrum = tmp_path / "narrow.csv"
    assert _run(["simulate", "--tau-ps", "0.3", "--bins", "256", "--sigma-nm", "10",
                 "--trials", "10000", "--out", spectrum]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["estimate", "--input", spectrum, "--mle", "--layers", "1",
                     "--sigma-nm", "1.04e141", "--out", tmp_path / "x.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "envelope mass" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["narrow.csv", "narrow.csv.manifest.json"]


@pytest.mark.parametrize("rows", [(0,), (7, 8)], ids=["first-row", "centre-rows"])
def test_estimate_exits_3_when_the_correlation_overflows(tmp_path, capsys, rows):
    # cells at float64's maximum: the first row's was a FloatingPointError
    # traceback from the modulus, exit 1; the centre rows' printed two
    # RuntimeWarnings before exit 3
    values = [0.0] * 16
    for row in rows:
        values[row] = 1.7976931348623157e308
    spectrum = tmp_path / "huge.csv"
    spectrum.write_text("omega_rad_per_s,intensity\n" + "".join(
        f"{-7.5 + i!r},{v!r}\n" for i, v in enumerate(values)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["estimate", "--input", spectrum, "--out", tmp_path / "x.json"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the inverted correlation overflows")
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


def test_cli_bad_axis_spec(tmp_path):
    assert _run(["fisher", "--tau-axis", "oops", "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize(
    ("argv", "error"),
    [
        # exited 2 only after linspace built the list: 125.6 MB peak RSS
        (["fisher", "--tau-axis", "0:1:2000000ps"], "tau axis has 2000000 points, limit is 256"),
        (["sweep", "--gamma-axis", "0:0.5:2000000"], "gamma axis has 2000000 points, limit is 256"),
        (["fisher", "--tau-axis", "0:1:-1"], "axis count must be nonnegative in '0:1:-1'"),
        # exited 1 with a numpy _ArrayMemoryError from FrequencyGrid.bin_edges
        (["simulate", "--tau-ps", "0.5", "--bins", "1099511627776"],
         "frequency grid has 1099511627776 bins, limit is 1048576"),
    ],
    ids=["fisher-tau", "sweep-gamma", "fisher-tau-negative", "simulate-bins"],
)
def test_cli_axis_count_is_bounded_before_allocating(tmp_path, capsys, argv, error):
    tracemalloc.start()
    try:
        code = _run([*argv, "--out", tmp_path / "x.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {error}"]
    assert peak < 2**20
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        # each exited 0 with a wrong value: tau 500 ps, sigma 0.01 nm, gamma 2e-13
        ["fisher", "--sigma-nm", "10", "--tau-axis", "0.5nm"],
        ["sweep", "--sigma-axis", "10ps"],
        ["sweep", "--gamma-axis", "0.2ps"],
        ["sweep", "--alpha-axis", "1s"],
        ["sweep", "--sigma-axis", "1e-8s"],
    ],
    ids=["tau-nm", "sigma-ps", "gamma-ps", "alpha-s", "sigma-s"],
)
def test_cli_axis_unit_must_fit_its_axis(tmp_path, capsys, argv):
    assert _run([*argv, "--out", tmp_path / "x.csv"]) == 2
    assert "unit suffixes" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code, error", [
    (["fisher", "--tau-axis", "1:2"], 2,
     "bad axis spec '1:2': expected start:stop:count; tau unit suffixes: ps or s"),
    (["simulate", "--layers", "0.1"], 2, "bad layer spec '0.1': expected tau_ps:weight"),
    (["simulate", "--layers", "0.1:0"], 2, "weights must have positive total"),
    # 16 bins of 1e18: the column total, taken as the trial count, passes int64
    (["estimate", "--input", "big.csv"], 3, "n_trials exceeds the 64-bit count range"),
], ids=["axis-two-parts", "layer-one-part", "layer-zero-weight", "counts-past-int64"])
def test_cli_bad_spec_or_data_exits_with_one_line(tmp_path, monkeypatch, capsys, argv, code,
                                                   error):
    monkeypatch.chdir(tmp_path)
    Path("big.csv").write_text("wavelength_nm,counts\n"
                               + "".join(f"{800 + i},{10**18}\n" for i in range(16)))
    assert _run([*argv, "--out", "x"]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_cli_tau_axis_units_agree(tmp_path):
    tables = []
    for i, spec in enumerate(["0.5", "0.5ps", "5e-13s"]):
        out = tmp_path / f"f{i}.csv"
        assert _run(["fisher", "--tau-axis", spec, "--out", out]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] == tables[2]


def test_cli_center_wavelength_sets_the_pump(tmp_path):
    # both exited 2 at any --center-nm but 810 unless a pump at half of it was given
    out = tmp_path / "s.csv"
    assert _run(["simulate", "--center-nm", "800", "--tau-ps", "0.2", "--bins", "256",
                 "--trials", "1000", "--out", out]) == 0
    assert "# sigma 20.0 nm equivalent at 800.0 nm center, pump 400.0 nm" in out.read_text()
    assert _run(["estimate", "--center-nm", "800", "--input", out,
                 "--out", tmp_path / "e.json"]) == 0


@pytest.mark.parametrize("center", ["1e-170", "1e300"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "fisher", "sweep"])
def test_cli_center_wavelength_whose_square_fails_exits_2(tmp_path, capsys, command, center):
    # the square underflows to 0 or overflows: was a ZeroDivisionError or an
    # OverflowError traceback, exit 1
    spectrum = tmp_path / "in.csv"
    write_spectrum(spectrum, _pattern("counts"))
    argv = {"simulate": ["--tau-ps", "0.1"], "estimate": ["--input", spectrum]}.get(command, [])
    assert _run([command, *argv, "--center-nm", center, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: center wavelength")
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


@pytest.mark.parametrize("command", ["simulate", "estimate", "fisher"])
def test_cli_has_no_pump_flag(tmp_path, capsys, command):
    # the pump is at half the center wavelength; fisher accepted and ignored the flag
    inputs = ["--input", "in.csv"] if command == "estimate" else []
    with pytest.raises(SystemExit) as exc:
        _run([command, *inputs, "--pump-nm", "405", "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--layers", "0.12:0.5,0.267:0.5", "--trials", "100000", "--seed", "9"]
    assert _run(args + ["--out", a]) == 0
    assert _run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_manifest_contents(tmp_path):
    out = tmp_path / "jsi.csv"
    _run(["simulate", "--tau-ps", "0.2", "--ideal", "--seed", "3", "--out", out])
    manifest = read_manifest(tmp_path / "jsi.csv.manifest.json")
    assert manifest.schema_version == 1
    assert "simulate" in manifest.command
    assert manifest.output_digests[out.name] == sha256_digest(out)
    assert manifest.version
    assert manifest.duration_seconds >= 0.0


_SIDECAR_SUFFIX = {"estimate": ".correlation.csv", "sweep": ".monotonicity.json"}
_RUNS = {
    "simulate": (["--tau-ps", "0.2", "--bins", "256", "--trials", "1000", "--out", "s.csv"],
                 {"s.csv"}),
    "estimate": (["--input", "in.csv", "--out", "e.json"], {"e.json", "e.correlation.csv"}),
    "fisher": (["--tau-axis", "0.3", "--out", "f.csv"], {"f.csv"}),
    "sweep": (["--tau-axis", "0.5", "--out", "w.csv"], {"w.csv", "w.monotonicity.json"}),
}


def test_manifest_runs_cover_every_subcommand():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(_RUNS) == set(subparsers.choices)


def _simulate_input(name="in.csv"):
    assert _run(["simulate", "--tau-ps", "0.2", "--bins", "256", "--trials", "1000",
                 "--seed", "1", "--out", name]) == 0


def _assert_manifest(path, command, outputs):
    manifest = read_manifest(path)
    assert manifest.command == command
    assert manifest.output_digests == {name: sha256_digest(name) for name in outputs}
    return manifest


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("command", sorted(_RUNS))
def test_cli_manifest_records_run(tmp_path, monkeypatch, command, override):
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    input_digest = sha256_digest("in.csv")
    argv, outputs = _RUNS[command]
    default = f"{argv[-1]}.manifest.json"
    path = "custom.json" if override else default
    assert _run([command, *argv, *(["--manifest", path] if override else [])]) == 0
    manifest = _assert_manifest(path, command, outputs)
    assert os.path.exists(default) != override
    expected_inputs = {"in.csv": input_digest} if command == "estimate" else {}
    assert manifest.input_digests == expected_inputs


@pytest.mark.parametrize("flag", ["--out", "--manifest"])
@pytest.mark.parametrize("command", sorted(_RUNS))
def test_cli_output_in_a_missing_directory_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    # was a FileNotFoundError traceback from the temp file, exit 1; a missing
    # --manifest directory failed only after the data files were written
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    target = tmp_path / "missing" / "x.out"
    argv, _ = _RUNS[command]
    assert _run([command, *argv, flag, target]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {target}: no writable directory {target.parent}"]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, target", [
    (command, target) for command in sorted(_RUNS)
    for target in ("--out", "--manifest", "sidecar", "default manifest")
    if target != "sidecar" or len(_RUNS[command][1]) > 1
])
def test_cli_output_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys, command, target):
    # was an IsADirectoryError traceback from os.replace, exit 1; a manifest
    # or sidecar naming a directory failed only after other files were written
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    argv, outputs = _RUNS[command]
    out = argv[argv.index("--out") + 1]
    name = {"--out": "adir", "--manifest": "adir", "default manifest": f"{out}.manifest.json",
            "sidecar": min(outputs - {out}, default=None)}[target]
    Path(name).mkdir()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    flags = [target, name] if target.startswith("--") else []
    assert _run([command, *argv, *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {name}: it is a directory"]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("spelling, out", [
    ("./x.json", "x.json"), ("sub//x.json", "sub/x.json"), ("x.", "x."), (".hidden", ".hidden"),
    ("x.tar.gz", "x.tar.gz"), ("sub/../x.json", "sub/../x.json")])
@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_cli_output_spellings_name_files_as_pathlib_does(tmp_path, monkeypatch, command,
                                                          spelling, out):
    # the files written, the manifest's out and its digest keys follow
    # str(Path(out)) and Path(out).stem: os.path would cut x. and keep ./
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    Path("sub").mkdir()

    def files():
        return {p.resolve() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    argv, _ = _RUNS[command]
    assert _run([command, *argv[:-2], "--out", spelling]) == 0
    path = Path(out)
    sidecar = path.parent / (path.stem + _SIDECAR_SUFFIX[command])
    manifest = read_manifest(f"{out}.manifest.json")
    assert files() - before == {Path(p).resolve() for p in (out, sidecar, f"{out}.manifest.json")}
    assert manifest.config["out"] == out
    assert manifest.output_digests == {p.name: sha256_digest(p) for p in (path, sidecar)}


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_cli_outputs_get_the_mode_open_gives(tmp_path, monkeypatch, command):
    # every output kept mkstemp's owner-only 0o600; a umask other than the
    # usual one shows that it is applied
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    argv, outputs = _RUNS[command]
    out = argv[argv.index("--out") + 1]
    umask = os.umask(0o027)
    try:
        assert _run([command, *argv]) == 0
        with open("reference", "w"):
            pass
    finally:
        os.umask(umask)
    expected = os.stat("reference").st_mode & 0o777
    assert expected == 0o640
    for name in outputs | {f"{out}.manifest.json"}:
        assert os.stat(name).st_mode & 0o777 == expected, name


def test_cli_manifest_digests_input_before_out_overwrites_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _simulate_input()
    before = sha256_digest("in.csv")
    assert _run(["estimate", "--input", "in.csv", "--out", "in.csv"]) == 0
    manifest = _assert_manifest("in.csv.manifest.json", "estimate", {"in.csv", "in.correlation.csv"})
    assert manifest.input_digests == {"in.csv": before}
    assert manifest.output_digests["in.csv"] != before


def test_cli_estimate_failure_still_records_run(tmp_path, monkeypatch):
    # exit 4: the partial result, the sidecar and the manifest are written
    monkeypatch.chdir(tmp_path)
    Path("zero.csv").write_text(
        _spectrum_text(OMEGA_HEADER, (((i - 31.5) * 1e12, 0.0) for i in range(64)))
    )
    assert _run(["estimate", "--input", "zero.csv", "--out", "e.json"]) == 4
    payload = json.loads(Path("e.json").read_text())
    assert payload["error"] and "peaks" not in payload
    manifest = _assert_manifest("e.json.manifest.json", "estimate", {"e.json", "e.correlation.csv"})
    assert manifest.input_digests == {"zero.csv": sha256_digest("zero.csv")}


def test_cli_fisher_term_cap_fails_with_exit_4(tmp_path, monkeypatch, capsys):
    # 1e-19 s at alpha = 1 - 1e-13 needs more series terms than the cap; the
    # cell fails on its own, not with a traceback, and says why
    monkeypatch.chdir(tmp_path)
    argv = ["fisher", "--variant", "trinomial", "--alpha", "0.9999999999999",
            "--tau-axis", "1e-7", "--out", "f.csv"]
    assert _run(argv) == 4
    assert capsys.readouterr().err.startswith("error:")
    rows = [r for r in Path("f.csv").read_text().splitlines() if r and not r.startswith("#")]
    assert len(rows) == 2 and "within 1048576 terms" in rows[1]


@pytest.mark.parametrize("argv, code", [
    # was exit 0 with g_omega 0 and a leaked overflow warning
    (["sweep", "--sigma-axis", "1.04e141"], 4),
    (["fisher", "--sigma-nm", "1.04e141"], 4),
    # was an OverflowError traceback, exit 1
    (["sweep", "--sigma-axis", "1e140:1e142:2"], 0),
])
def test_cli_huge_bandwidth_fails_its_cell(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([*argv, "--out", "w.csv"]) == code
    rows = [r.split(",") for r in Path("w.csv").read_text().splitlines()
            if r and not r.startswith("#")]
    *computed, huge = rows[1:]
    assert huge[5:7] == ["", ""] and huge[7].endswith("must be positive with a finite square")
    assert [row[5] for row in computed] == ["3.297015780901648e+305"] * len(computed)


def test_cli_sweep_failure_still_records_run(tmp_path, monkeypatch):
    # exit 4 when every cell fails: the CSV, its sidecar and the manifest are written
    monkeypatch.chdir(tmp_path)
    assert _run(["sweep", "--alpha-axis", "1.5", "--out", "w.csv"]) == 4
    rows = [r for r in Path("w.csv").read_text().splitlines() if r and not r.startswith("#")]
    assert len(rows) == 2 and rows[1].split(",")[-1]
    assert Path("w.monotonicity.json").exists()
    _assert_manifest("w.csv.manifest.json", "sweep", {"w.csv", "w.monotonicity.json"})
