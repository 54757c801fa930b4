"""The band reader: every double the writers emit reads back bit for bit,
the writers' own text is decided in NumPy passes, and the reader accepts
one grammar, that of ``%.17g``, whatever the size of its blocks of lines:
other spellings in it read as ``float()`` reads them, and any other text,
spacing or line end is a malformed row, named from the file's start.
"""

import importlib.util
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ikmig import forward
from ikmig.cli import _load_scene, main
from ikmig.errors import DataFormatError
from ikmig.forward import (
    IntensityData,
    array_response_band,
    read_field_csv,
    read_intensity_csv,
    write_field_csv,
    write_illumination_csv,
    write_intensity_csv,
)
from ikmig.scene import FrequencyGrid, ImageWindowSpec, emit_scene, preset_scene

from conftest import peak_growth

TINY = 5e-324
MAX = 1.7976931348623157e308
POINT = preset_scene("point")
# Three frequencies on four receivers.
SCENE = replace(POINT, band=FrequencyGrid(100.0, 200.0, 3), receivers=POINT.receivers[:4])
SHAPE = (3, 4)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def ulp_neighbours(values):
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, -math.inf),
                           np.nextafter(values, math.inf)])


def read_back(d, values):
    """``values`` (F, N) written as intensity, illumination (its first
    column) and field (imaginary part ``values[::-1]``) files, and read
    back: (what was read, what was written)."""
    omegas = SCENE.band.omegas
    field = np.empty(values.shape, dtype=complex)
    field.real, field.imag = values, values[::-1]
    write_intensity_csv(omegas, IntensityData(values, values[:, 0]), d / "i.csv")
    write_illumination_csv(omegas, IntensityData(values, values[:, 0]), d / "l.csv")
    write_field_csv(omegas, field, d / "f.csv")
    back = read_intensity_csv(d / "i.csv", SCENE, d / "l.csv")
    return (back.values, back.illumination, read_field_csv(d / "f.csv", SCENE)), (
        values, values[:, 0], field)


def fill(values):
    """``values`` cycled into an (F, N) grid."""
    return np.resize(np.asarray(values, dtype=float), SHAPE)


# The table of 10**q ends at q = -234 and 266: seventeen digits reach from
# about 1e-218 to 1e282, and the writer's own fast path ends at 1e+-250.
EDGES = ulp_neighbours([1e-219, 1e-218, 1e-217, 1e-250, 1e250, 1e266, 1e282, 1e283])
EXTREMES = [0.0, -0.0, TINY, -TINY, MAX, -MAX, 2.2250738585072014e-308, 1.0, -1.0]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, SHAPE, elements=st.floats(width=64, allow_nan=False,
                                                    allow_infinity=False)))
@example(fill(EXTREMES))
def test_every_double_reads_back_bit_for_bit(tmp_path_factory, values):
    # st.floats() draws subnormals, signed zeros and the largest doubles.
    got, want = read_back(tmp_path_factory.mktemp("doubles"), values)
    for g, w in zip(got, want):
        assert same_bits(g, w)


@pytest.mark.parametrize("values", [
    # Exact ties at the 17th digit, which %.17g rounds half to even.
    pytest.param([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125], id="ties"),
    # Where %g switches notation, and where the writer's fast path ends.
    pytest.param(ulp_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250]), id="edges"),
    pytest.param([TINY, -TINY, MAX, -MAX, 2.2250738585072014e-308], id="extremes"),
    pytest.param(EDGES, id="table-edges"),
])
def test_the_writers_hard_values_read_back(tmp_path, values):
    values = np.concatenate([values, np.negative(values)])
    for start in range(0, values.size, 12):
        got, want = read_back(tmp_path, fill(np.roll(values, -start)))
        for g, w in zip(got, want):
            assert same_bits(g, w)


def test_a_million_random_bit_patterns_read_back(tmp_path):
    scene = replace(POINT, band=FrequencyGrid(100.0, 200.0, 1000), receivers=POINT.receivers[:500])
    rng = np.random.default_rng(20261021)
    values = rng.integers(0, 2**64, size=(1000, 1000), dtype=np.uint64).view(float)
    values[~np.isfinite(values)] = 0.5
    field = values[:, :500] + 1j * values[:, 500:]
    write_field_csv(scene.band.omegas, field, tmp_path / "f.csv")
    assert same_bits(read_field_csv(tmp_path / "f.csv", scene), field)


# ---------------------------------------------------------------------------
# the writers' text takes the fast path
# ---------------------------------------------------------------------------


def chain(out, scene_arg, *flags):
    """simulate then recover into ``out``/sim and ``out``/rec."""
    assert main(["simulate", "--scene", scene_arg, *flags, "--out", str(out / "sim")]) == 0
    assert main(["recover", "--scene", scene_arg, "--data", str(out / "sim" / "intensity.csv"),
                 "--out", str(out / "rec")]) == 0


def band_files(tmp_path):
    """(scene, directory) of the band files of the benchmark's chains, the
    point experiment and a seeded stochastic simulate."""
    win = POINT.window
    scenes = {
        "small2d": replace(POINT, dimension=2, window=ImageWindowSpec(win.center, win.spacing, 1)),
        "wide3d": replace(POINT, band=FrequencyGrid(POINT.band.f_min_hz, POINT.band.f_max_hz, 6),
                          window=ImageWindowSpec(win.center, win.spacing, 60)),
    }
    for name, scene in scenes.items():
        d = tmp_path / name
        d.mkdir()
        (d / "scene.json").write_text(emit_scene(scene), encoding="utf-8")
        chain(d, str(d / "scene.json"))
        write_field_csv(scene.band.omegas, array_response_band(scene), d / "truth.csv")
        yield scene, d
    d = tmp_path / "stochastic"
    chain(d, "preset:stochastic", "--stochastic", "--seed", "5", "--noise-fraction", "0.1")
    yield preset_scene("stochastic"), d
    d = tmp_path / "point"
    assert main(["experiment", "--case", "point", "--out", str(d), "--threads", "2"]) == 0
    yield _load_scene(str(d / "scene.json")), d


def test_the_writers_band_files_take_the_fast_path(tmp_path):
    read = 0
    with mock.patch.object(forward, "_scan_block", side_effect=AssertionError("scan")):
        for scene, d in band_files(tmp_path):
            for path in sorted(d.rglob("*.csv")):
                if path.name == "intensity.csv":
                    illumination = path.with_name("illumination.csv")
                    read_intensity_csv(path, scene, illumination)
                    read += 2
                elif path.name in ("recovered.csv", "truth.csv"):
                    read_field_csv(path, scene)
                    read += 1
    assert read == 14


# Spellings the writer never emits.  Those in the grammar read as float()
# and NumPy's reader read them; the rest are malformed rows.
SPELLINGS = ["+1.5", "1E5", "1e5", ".5", "-.5", "5.", "1.50", " 2.0\t", "007", "-0001.25e+02",
             "1e+005", "0.0e-00", "1.5E-7", "\t-3", "12345678901234567890",
             "0.000000000000000000000001", "4.9406564584124654e-324", "1e-400", "1.5e+300",
             "9007199254740993", "2.2250738585072011e-308"]
REFUSED = {"+1.5", "1E5", "1e5", " 2.0\t", "1.5E-7", "\t-3"}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_other_spellings_read_as_numpy_reads_them(tmp_path, spelling, newline):
    rng = np.random.default_rng(3)
    write_field_csv(SCENE.band.omegas, rng.normal(size=SHAPE) + 1j * rng.normal(size=SHAPE),
                    tmp_path / "f.csv")
    header, *rows = (tmp_path / "f.csv").read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + spelling
    rows[7] = ",".join(rows[7].split(",")[:3] + [spelling, spelling])
    (tmp_path / "f.csv").write_bytes(newline.join([header, *rows, ""]).encode())
    if newline != "\n":
        with pytest.raises(DataFormatError, match=r"^unexpected field header '[^']+\\r"):
            read_field_csv(tmp_path / "f.csv", SCENE)
        return
    if spelling in REFUSED:
        with pytest.raises(DataFormatError, match="^malformed field row 6$"):
            read_field_csv(tmp_path / "f.csv", SCENE)
        return
    got = read_field_csv(tmp_path / "f.csv", SCENE)
    want = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1, usecols=(3, 4))
    assert same_bits(got.real.ravel(), want[:, 0])
    assert same_bits(got.imag.ravel(), want[:, 1])
    assert same_bits(got[1, 3], np.complex128(complex(float(spelling), float(spelling))))


# ---------------------------------------------------------------------------
# blocks of lines
# ---------------------------------------------------------------------------

BIG = replace(POINT, band=FrequencyGrid(100.0, 200.0, 40), receivers=POINT.receivers[:25])


def big_field(path):
    rng = np.random.default_rng(9)
    field = rng.normal(size=(40, 25)) * 10.0 ** rng.integers(-20, 20, (40, 25)) + 1j
    write_field_csv(BIG.band.omegas, field, path)
    return field


@pytest.mark.parametrize("size", [1, 100, 4096])
def test_the_block_size_changes_nothing(tmp_path, size):
    field = big_field(tmp_path / "f.csv")
    with mock.patch.object(forward, "_READ_BYTES", size):
        assert same_bits(read_field_csv(tmp_path / "f.csv", BIG), field)


def edit_rows(path, edits):
    """Data row ``row`` (from 1) of the file becomes ``text``, or goes if
    ``text`` is None; one past the last is appended."""
    header, *rows = path.read_text().splitlines()
    for row, text in edits.items():
        rows[row - 1:row] = [] if text is None else [text]
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("size", [100, 1 << 18])
def test_a_malformed_row_is_named_from_the_files_start(tmp_path, size):
    big_field(tmp_path / "f.csv")
    # A row in the grammar but not the writer's text, then one outside the
    # grammar, far into the file.
    edit_rows(tmp_path / "f.csv", {700: "27,1e+05,24,1.50,2", 900: "35,1,24,x,2"})
    with mock.patch.object(forward, "_READ_BYTES", size):
        with pytest.raises(DataFormatError, match="^malformed field row 900$"):
            read_field_csv(tmp_path / "f.csv", BIG)


@pytest.mark.parametrize("size", [100, 1 << 18])
@pytest.mark.parametrize("later, message", [
    ("x", "malformed field row"),
    ("inf", "field data must be finite"),
])
def test_errors_keep_their_order_across_blocks(tmp_path, size, later, message):
    # A key that differs early, and a worse error late.
    big_field(tmp_path / "f.csv")
    edit_rows(tmp_path / "f.csv", {3: "0,1,2,3,4", 950: f"37,1,0,1,{later}"})
    with mock.patch.object(forward, "_READ_BYTES", size):
        with pytest.raises(DataFormatError, match=message):
            read_field_csv(tmp_path / "f.csv", BIG)
    edit_rows(tmp_path / "f.csv", {950: "37,1,0,1,2", 1001: "39,1,0,1,2"})
    with mock.patch.object(forward, "_READ_BYTES", size):
        with pytest.raises(DataFormatError, match="holds 1001 data rows; the scene expects 1000"):
            read_field_csv(tmp_path / "f.csv", BIG)
    edit_rows(tmp_path / "f.csv", {1001: None})
    with mock.patch.object(forward, "_READ_BYTES", size):
        with pytest.raises(DataFormatError, match="field data row 3 does not match"):
            read_field_csv(tmp_path / "f.csv", BIG)


@pytest.mark.parametrize("suffix", [".gz", ".xz", ".bz2", ".zip"])
def test_a_plain_file_with_a_compressed_suffix_reads_back(tmp_path, suffix):
    # The reader opens the path itself; NumPy, given a path, would
    # decompress by its suffix.
    rng = np.random.default_rng(4)
    field = rng.normal(size=SHAPE) + 1j * rng.normal(size=SHAPE)
    path = tmp_path / ("f.csv" + suffix)
    write_field_csv(SCENE.band.omegas, field, path)
    assert same_bits(read_field_csv(path, SCENE), field)


def in_grammar(sign, whole, point, fraction, exponent):
    """A float field of the grammar from its parts, or None if it has no
    digit."""
    digits = whole + (b"." + fraction if point else b"")
    return sign + digits + exponent if whole or fraction else None


DIGITS = st.from_regex(rb"[0-9]{0,30}", fullmatch=True)
# A field's text: the writer's, others in the grammar, and any bytes.
FIELDS = st.one_of(
    st.floats(width=64).map(lambda x: b"%.17g" % x),
    st.builds(in_grammar, st.sampled_from([b"", b"-"]), DIGITS, st.booleans(), DIGITS,
              st.just(b"") | st.from_regex(rb"e[+-][0-9]{2,3}", fullmatch=True)).filter(bool),
    st.sampled_from([b"1.50", b"-0001.25e+02", b"5.", b"4.9406564584124654e-324", b"1e-400",
                     b"-inf", b"nan"]),
    st.text(st.sampled_from("0123456789.-+eE,x \t\r\n\0\u00e9"), max_size=12).map(str.encode),
    st.binary(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(row=st.integers(0, 999), column=st.integers(0, 4), text=FIELDS)
@example(row=0, column=3, text=b"1e-400")
@example(row=0, column=3, text=b"5.")
@example(row=999, column=1, text=b"+62.831853071795862")
def test_the_fast_path_and_the_scan_accept_one_grammar(tmp_path_factory, row, column, text):
    # At 100 bytes a block holds a line or two, so the edited row's block is
    # all that may leave the NumPy passes; at 2**18 the whole file is one
    # block; and with the NumPy passes off, every block is scanned.
    path = tmp_path_factory.mktemp("grammar") / "f.csv"
    big_field(path)
    header, *rows = path.read_bytes().split(b"\n")
    fields = rows[row].split(b",")
    fields[column] = text
    rows[row] = b",".join(fields)
    path.write_bytes(b"\n".join([header, *rows]))
    outcomes = []
    for size, fast in ((100, True), (1 << 18, True), (1 << 18, False)):
        with (mock.patch.object(forward, "_READ_BYTES", size),
              mock.patch.object(forward, "_parse_block",
                                forward._parse_block if fast else lambda *args: None)):
            try:
                outcomes.append(read_field_csv(path, BIG))
            except DataFormatError as exc:
                outcomes.append(str(exc))
    if any(isinstance(outcome, str) for outcome in outcomes):
        assert all(isinstance(outcome, str) for outcome in outcomes), outcomes
        assert len(set(outcomes)) == 1, outcomes
        return
    got = outcomes[0]
    assert all(same_bits(outcome, got) for outcome in outcomes)
    if column >= 3:
        value = (got.real, got.imag)[column - 3][divmod(row, 25)]
        assert same_bits(value, np.float64(float(text)))


@pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                    reason="needs the resource module")
def test_reading_a_large_band_file_keeps_memory_bounded(tmp_path):
    # 500,000 rows, a 24 MB intensity file, read in a fresh process.  Read
    # whole by NumPy's reader, which holds the parsed table, it raised the
    # peak RSS by 21 MB; in blocks of lines by 10 MB, 8 MB of it the values
    # and IntensityData's copy of them.  Scaled by 1e-300, past the table of
    # the NumPy passes, every block is scanned a line at a time, in 10 MB.
    scene = replace(POINT, band=FrequencyGrid(100.0, 200.0, 1000), receivers=POINT.receivers[:500])
    rng = np.random.default_rng(12)
    values = rng.uniform(1.0, 2.0, (1000, 500))
    (tmp_path / "scene.json").write_text(emit_scene(scene), encoding="utf-8")
    setup = ("from ikmig.cli import _load_scene\n"
             "from ikmig.forward import read_intensity_csv\n"
             "scene = _load_scene(sys.argv[2])\n")
    work = "data = read_intensity_csv(sys.argv[1], scene)\nprint(data.values.size)"
    path = tmp_path / "intensity.csv"
    for scale in (1.0, 1e-300):
        write_intensity_csv(scene.band.omegas, IntensityData(values * scale, np.ones(1000)), path)
        (rows,), grown = peak_growth(setup, work, str(path), str(tmp_path / "scene.json"))
        assert int(rows) == 500_000
        assert path.stat().st_size > 20e6
        assert grown < 14 * 2**20
