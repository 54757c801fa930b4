"""The CSV writer contract: exact text of every writer, and write -> read
round trips that must return the written floats bit for bit.

The pinned strings are literal, so they hold on any platform whose floats
are IEEE doubles: ``%d`` for index columns, ``%.17g`` for float columns,
one row per index in the order the readers expect.
"""

import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ikmig import cli, forward
from ikmig.cli import main
from ikmig.errors import DataFormatError
from ikmig.forward import (
    IntensityData,
    read_field_csv,
    read_intensity_csv,
    write_field_csv,
    write_illumination_csv,
    write_intensity_csv,
)
from ikmig.migrate import write_image_csv
from ikmig.scene import FrequencyGrid, ImageWindowSpec, Scene, emit_scene, preset_scene

from conftest import peak_growth

TINY = 5e-324  # smallest subnormal double


class TestPinnedText:
    def test_intensity_and_illumination(self, tmp_path):
        omegas = np.array([0.1, 1 / 3])
        data = IntensityData(np.array([[TINY, -0.0], [1 / 3, 7.0]]), np.array([1 / 3, 2.5]))
        write_intensity_csv(omegas, data, tmp_path / "i.csv")
        write_illumination_csv(omegas, data, tmp_path / "l.csv")
        assert (tmp_path / "i.csv").read_text() == (
            "freq_index,omega_rad_s,receiver_index,value\n"
            "0,0.10000000000000001,0,4.9406564584124654e-324\n"
            "0,0.10000000000000001,1,-0\n"
            "1,0.33333333333333331,0,0.33333333333333331\n"
            "1,0.33333333333333331,1,7\n"
        )
        assert (tmp_path / "l.csv").read_text() == (
            "freq_index,omega_rad_s,twopi_Fhat\n"
            "0,0.10000000000000001,0.33333333333333331\n"
            "1,0.33333333333333331,2.5\n"
        )

    def test_field(self, tmp_path):
        values = np.array([[complex(0.1, -0.0), complex(TINY, 1 / 3)],
                           [complex(-0.0, 2.5), complex(1 / 3, -TINY)]])
        write_field_csv(np.array([0.1, 1 / 3]), values, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text() == (
            "freq_index,omega_rad_s,receiver_index,re,im\n"
            "0,0.10000000000000001,0,0.10000000000000001,-0\n"
            "0,0.10000000000000001,1,4.9406564584124654e-324,0.33333333333333331\n"
            "1,0.33333333333333331,0,-0,2.5\n"
            "1,0.33333333333333331,1,0.33333333333333331,-4.9406564584124654e-324\n"
        )

    def test_image(self, tmp_path):
        values = np.array([
            [0.1 + 0j, complex(-0.0, 1 / 3), complex(TINY, -TINY)],
            [1 / 3, complex(math.nan, math.nan), 3 + 4j],
            [0, -1j, 2e300 + 2e300j],
        ])
        write_image_csv(values, ImageWindowSpec((0.1, 1 / 3), 0.1, 1), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == (
            "ix,iy,x_m,y_m,re,im,abs\n"
            "-1,-1,0,0.23333333333333331,0.10000000000000001,0,0.10000000000000001\n"
            "-1,0,0,0.33333333333333331,-0,0.33333333333333331,0.33333333333333331\n"
            "-1,1,0,0.43333333333333335,4.9406564584124654e-324,"
            "-4.9406564584124654e-324,4.9406564584124654e-324\n"
            "0,-1,0.10000000000000001,0.23333333333333331,0.33333333333333331,0,"
            "0.33333333333333331\n"
            "0,0,0.10000000000000001,0.33333333333333331,nan,nan,nan\n"
            "0,1,0.10000000000000001,0.43333333333333335,3,4,5\n"
            "1,-1,0.20000000000000001,0.23333333333333331,0,0,0\n"
            "1,0,0.20000000000000001,0.33333333333333331,-0,-1,1\n"
            "1,1,0.20000000000000001,0.43333333333333335,2.0000000000000001e+300,"
            "2.0000000000000001e+300,2.8284271247461903e+300\n"
        )

    def test_condition_command(self, tmp_path):
        # Receivers 5 m and 1 m from the source: the 3-D condition number is 5.
        scene = Scene(dimension=3, c0=343.0, receivers=np.array([[3.0, 4.0], [0.0, 1.0]]),
                      source=np.array([0.0, 0.0]), band=FrequencyGrid(100.0, 200.0, 2),
                      scatterers=(), window=ImageWindowSpec((5.0, 0.0), 0.2, 1))
        spath = tmp_path / "scene.json"
        spath.write_text(emit_scene(scene))
        assert main(["condition", "--scene", str(spath), "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "condition.csv").read_text() == (
            "freq_index,omega_rad_s,cond\n"
            "0,628.31853071795865,5\n"
            "1,1256.6370614359173,5\n"
        )


# ---------------------------------------------------------------------------
# write -> read round trips
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


# The round trips take their receivers from the `point` preset's array.
BASE = preset_scene("point")


@st.composite
def band_scenes(draw):
    """The `point` scene on a random band of 1-4 frequencies with 1-5 receivers."""
    lo, hi = sorted(draw(st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=2)))
    count = draw(st.integers(1, 4))
    band = FrequencyGrid(lo, lo if count == 1 else hi, count)
    return replace(BASE, band=band, receivers=BASE.receivers[:draw(st.integers(1, 5))])


ROUND_TRIP = settings(max_examples=60, deadline=None)


@ROUND_TRIP
@given(band_scenes(), st.data())
def test_intensity_round_trip(tmp_path_factory, scene, data):
    shape = (scene.band.count, scene.n_receivers)
    values = data.draw(hnp.arrays(float, shape, elements=FINITE))
    illum = data.draw(hnp.arrays(float, shape[:1], elements=FINITE))
    written = IntensityData(values, illum)
    d = tmp_path_factory.mktemp("intensity")
    write_intensity_csv(scene.band.omegas, written, d / "i.csv")
    write_illumination_csv(scene.band.omegas, written, d / "l.csv")
    back = read_intensity_csv(d / "i.csv", scene, d / "l.csv")
    assert same_bits(back.values, written.values)
    assert same_bits(back.illumination, written.illumination)


@ROUND_TRIP
@given(band_scenes(), st.data())
def test_field_round_trip(tmp_path_factory, scene, data):
    shape = (scene.band.count, scene.n_receivers)
    values = data.draw(hnp.arrays(float, shape, elements=FINITE)).astype(complex)
    values.imag = data.draw(hnp.arrays(float, shape, elements=FINITE))
    path = tmp_path_factory.mktemp("field") / "f.csv"
    write_field_csv(scene.band.omegas, values, path)
    assert same_bits(read_field_csv(path, scene), values)


def test_read_values_own_their_memory(tmp_path):
    # The parsed table holds every column of the file, so a view of its
    # value column would keep all of it alive: 1.6 MB for 0.4 MB of values
    # on a 501 x 100 intensity file.
    scene = replace(BASE, band=FrequencyGrid(100.0, 200.0, 3), receivers=BASE.receivers[:4])
    rng = np.random.default_rng(7)
    values = rng.normal(size=(3, 4))
    written = IntensityData(values, rng.uniform(1.0, 2.0, 3))
    write_intensity_csv(scene.band.omegas, written, tmp_path / "i.csv")
    write_illumination_csv(scene.band.omegas, written, tmp_path / "l.csv")
    write_field_csv(scene.band.omegas, values + 1j * rng.normal(size=(3, 4)), tmp_path / "f.csv")
    back = read_intensity_csv(tmp_path / "i.csv", scene, tmp_path / "l.csv")
    field = read_field_csv(tmp_path / "f.csv", scene)
    for arr in (back.values, back.illumination, field):
        assert arr.flags.c_contiguous and arr.flags.owndata


# ---------------------------------------------------------------------------
# the band reader: omega is the writer's own text
# ---------------------------------------------------------------------------

# Three frequencies on four receivers; every omega's text has a decimal point.
READER_SCENE = replace(BASE, band=FrequencyGrid(100.0, 200.0, 3), receivers=BASE.receivers[:4])
OMEGA_TEXT = ["%.17g" % w for w in READER_SCENE.band.omegas]
FILES = {"intensity": "i.csv", "illumination": "l.csv", "field": "f.csv"}
READERS = {
    "intensity": lambda d: read_intensity_csv(d / "i.csv", READER_SCENE),
    "illumination": lambda d: read_intensity_csv(d / "i.csv", READER_SCENE, d / "l.csv"),
    "field": lambda d: read_field_csv(d / "f.csv", READER_SCENE),
}


def write_band_files(d):
    """The three band files of READER_SCENE in ``d``: (data, field) they hold."""
    omegas = READER_SCENE.band.omegas
    rng = np.random.default_rng(5)
    data = IntensityData(rng.normal(size=(3, 4)), rng.uniform(1.0, 2.0, 3))
    field = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    write_intensity_csv(omegas, data, d / "i.csv")
    write_illumination_csv(omegas, data, d / "l.csv")
    write_field_csv(omegas, field, d / "f.csv")
    return data, field


def set_omega(path, row, text):
    """Replace the omega field of data row ``row`` (from 1) with ``text``."""
    lines = path.read_text().splitlines(keepends=True)
    index, _, rest = lines[row].split(",", 2)
    lines[row] = ",".join([index, text, rest])
    path.write_text("".join(lines), encoding="utf-8")


SPELLINGS = {
    # The same double in exponent form: 6.2831853071795865e+02.
    "exponent": lambda text: format(float(text), ".16e"),
    # One character longer than the writer's text of the same double.
    "trailing-zero": lambda text: text + "0",
}


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("kind", FILES)
def test_an_omega_spelled_otherwise_is_refused(tmp_path, kind, spelling):
    write_band_files(tmp_path)
    freq = max(range(3), key=lambda j: len(OMEGA_TEXT[j]))
    text = SPELLINGS[spelling](OMEGA_TEXT[freq])
    assert text != OMEGA_TEXT[freq] and float(text) == READER_SCENE.band.omegas[freq]
    row = freq * (1 if kind == "illumination" else 4) + 1
    set_omega(tmp_path / FILES[kind], row, text)
    with pytest.raises(DataFormatError, match=f"{kind} data row {row} does not match the scene"):
        READERS[kind](tmp_path)


@pytest.mark.parametrize("kind", FILES)
def test_a_padded_omega_is_refused(tmp_path, kind):
    write_band_files(tmp_path)
    set_omega(tmp_path / FILES[kind], 1, f" {OMEGA_TEXT[0]} ")
    with pytest.raises(DataFormatError, match=f"^malformed {kind} row 1$"):
        READERS[kind](tmp_path)


def test_spaces_around_indices_and_values_are_refused(tmp_path):
    for kind, name in FILES.items():
        for pad in (lambda index, rest: [f" {index}", *rest],
                    lambda index, rest: [index, *rest[:-1], rest[-1] + "\t"]):
            write_band_files(tmp_path)
            path = tmp_path / name
            header, *rows = path.read_text().splitlines()
            index, *rest = rows[1].split(",")
            rows[1] = ",".join(pad(index, rest))
            path.write_text("\n".join([header, *rows]) + "\n")
            with pytest.raises(DataFormatError, match=f"^malformed {kind} row 2$"):
                READERS[kind](tmp_path)


def test_crlf_files_are_refused(tmp_path):
    for kind, name in FILES.items():
        write_band_files(tmp_path)
        path = tmp_path / name
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        with pytest.raises(DataFormatError, match=rf"^unexpected {kind} header '[^']+\\r\\n'$"):
            READERS[kind](tmp_path)
        # A header that is the writer's, then CRLF rows.
        path.write_bytes(text.replace(b"\n", b"\r\n").replace(b"\r\n", b"\n", 1))
        with pytest.raises(DataFormatError, match=f"^malformed {kind} row 1$"):
            READERS[kind](tmp_path)


def test_empty_lines_are_refused(tmp_path):
    write_band_files(tmp_path)
    for kind, name in FILES.items():
        path = tmp_path / name
        header, *rows = path.read_text().splitlines()
        for at, row in ((1, 2), (len(rows), len(rows) + 1)):
            path.write_text("\n".join([header, *rows[:at], "", *rows[at:]]) + "\n")
            with pytest.raises(DataFormatError, match=f"^malformed {kind} row {row}$"):
                READERS[kind](tmp_path)
        path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
@pytest.mark.parametrize("kind", FILES)
def test_a_whitespace_only_line_is_malformed(tmp_path, kind, blank):
    write_band_files(tmp_path)
    path = tmp_path / FILES[kind]
    header, first, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, first, blank, *rows]) + "\n")
    with pytest.raises(DataFormatError, match=f"malformed {kind} row"):
        READERS[kind](tmp_path)


@pytest.mark.parametrize("index, message", [
    ("2147483647", "intensity data row 1 does not match the scene"),
    ("2147483648", "intensity data row 1 does not match the scene"),  # past 2**31 - 1
])
def test_a_huge_index_is_a_format_error(tmp_path, index, message):
    write_band_files(tmp_path)
    path = tmp_path / "i.csv"
    path.write_text(path.read_text().replace("\n0,", f"\n{index},", 1))
    with pytest.raises(DataFormatError, match=message):
        READERS["intensity"](tmp_path)

@pytest.mark.parametrize("letter, message", [
    ("é", "malformed intensity row"),
    ("€", "malformed intensity row"),
])
def test_a_non_ascii_omega_is_a_format_error(tmp_path, letter, message):
    write_band_files(tmp_path)
    set_omega(tmp_path / "i.csv", 2, letter + OMEGA_TEXT[0][1:])
    with pytest.raises(DataFormatError, match=message):
        READERS["intensity"](tmp_path)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda path: path.write_text(path.read_text().replace("\n", "\n \n", 2)),
                 id="whitespace-line"),
    pytest.param(lambda path: set_omega(path, 1, "é" + OMEGA_TEXT[0][1:]), id="latin-1"),
    pytest.param(lambda path: set_omega(path, 1, "€" + OMEGA_TEXT[0][1:]), id="euro"),
])
def test_the_cli_reports_a_bad_band_file_without_a_traceback(tmp_path, capsys, edit):
    write_band_files(tmp_path)
    spath = tmp_path / "scene.json"
    spath.write_text(emit_scene(READER_SCENE))
    edit(tmp_path / "i.csv")
    rc = main(["recover", "--scene", str(spath), "--data", str(tmp_path / "i.csv"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "intensity" in err and "Traceback" not in err


def put_nul(path, where):
    """A NUL byte in data row 2 of a band file: after its omega, inside its
    last value, or at the end of its line."""
    lines = path.read_bytes().split(b"\n")
    index, omega, rest = lines[2].split(b",", 2)
    lines[2] = {"after-omega": b",".join([index, omega + b"\0", rest]),
                "in-a-value": lines[2][:-2] + b"\0" + lines[2][-2:],
                "at-line-end": lines[2] + b"\0"}[where]
    path.write_bytes(b"\n".join(lines))


NUL_PLACES = ["after-omega", "in-a-value", "at-line-end"]


@pytest.mark.parametrize("where", NUL_PLACES)
@pytest.mark.parametrize("kind", FILES)
def test_a_nul_byte_is_a_format_error(tmp_path, kind, where):
    # A NUL anywhere in the file is refused by its own message, not as a
    # malformed row.
    write_band_files(tmp_path)
    put_nul(tmp_path / FILES[kind], where)
    with pytest.raises(DataFormatError, match=f"{kind} file holds a NUL byte"):
        READERS[kind](tmp_path)


@pytest.mark.parametrize("where", NUL_PLACES)
@pytest.mark.parametrize("command", ["recover", "migrate"])
def test_the_cli_refuses_a_nul_byte_without_a_traceback(tmp_path, capsys, command, where):
    write_band_files(tmp_path)
    spath = tmp_path / "scene.json"
    spath.write_text(emit_scene(READER_SCENE))
    name, flag, what = {"recover": ("i.csv", "--data", "intensity"),
                        "migrate": ("f.csv", "--field", "field")}[command]
    put_nul(tmp_path / name, where)
    rc = main([command, "--scene", str(spath), flag, str(tmp_path / name),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{what} file holds a NUL byte" in err and "Traceback" not in err


def test_band_data_from_a_pipe_are_scanned_and_read(tmp_path):
    # A pipe cannot be rewound after the scan; its bytes are kept instead.
    data, field = write_band_files(tmp_path)
    for name, nul in (("f.csv", False), ("f.csv", True)):
        if nul:
            put_nul(tmp_path / name, "after-omega")
        r, w = os.pipe()
        os.write(w, (tmp_path / name).read_bytes())
        os.close(w)
        try:
            if nul:
                with pytest.raises(DataFormatError, match="NUL"):
                    read_field_csv(f"/dev/fd/{r}", READER_SCENE)
            else:
                assert same_bits(read_field_csv(f"/dev/fd/{r}", READER_SCENE), field)
        finally:
            os.close(r)


@ROUND_TRIP
@given(band_scenes(), st.data())
def test_an_omega_one_ulp_off_is_refused_at_its_row(tmp_path_factory, scene, data):
    # The text check keeps "bit-equal to the band": the nearest other
    # double is other text.
    f, n = scene.band.count, scene.n_receivers
    written = IntensityData(data.draw(hnp.arrays(float, (f, n), elements=FINITE)),
                            data.draw(hnp.arrays(float, f, elements=FINITE)))
    d = tmp_path_factory.mktemp("ulp")
    write_intensity_csv(scene.band.omegas, written, d / "i.csv")
    write_illumination_csv(scene.band.omegas, written, d / "l.csv")
    back = read_intensity_csv(d / "i.csv", scene, d / "l.csv")
    assert same_bits(back.values, written.values)
    assert same_bits(back.illumination, written.illumination)
    freq = data.draw(st.integers(0, f - 1))
    moved = scene.band.omegas.copy()
    moved[freq] = np.nextafter(moved[freq], data.draw(st.sampled_from([0.0, math.inf])))
    write_intensity_csv(moved, written, d / "i.csv")
    with pytest.raises(DataFormatError, match=f"intensity data row {freq * n + 1} does not"):
        read_intensity_csv(d / "i.csv", scene)
    write_intensity_csv(scene.band.omegas, written, d / "i.csv")
    write_illumination_csv(moved, written, d / "l.csv")
    with pytest.raises(DataFormatError, match=f"illumination data row {freq + 1} does not"):
        read_intensity_csv(d / "i.csv", scene, d / "l.csv")


@st.composite
def images(draw):
    half = draw(st.integers(0, 2))
    n = 2 * half + 1
    center = (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    window = ImageWindowSpec(center, draw(st.floats(1e-3, 10.0)), half)
    values = draw(hnp.arrays(complex, (n, n), elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False)))
    masked = draw(hnp.arrays(bool, (n, n)))
    values[masked] = complex(math.nan, math.nan)
    return window, values


@ROUND_TRIP
@given(images())
# A finite value whose magnitude passes the float range.
@example(image=(ImageWindowSpec((0.0, 0.0), 1.0, 0),
                np.array([[3.28081168e300 + 1.7976931348623157e308j]])))
def test_image_round_trip(tmp_path_factory, image):
    window, values = image
    path = tmp_path_factory.mktemp("image") / "m.csv"
    write_image_csv(values, window, path)
    n = window.cells_per_side
    ix, iy, x, y, re, im, magnitude = np.loadtxt(
        path, delimiter=",", skiprows=1, ndmin=2).T.reshape(7, n, n)
    cells = window.cell_offsets()
    assert np.array_equal(ix, np.repeat(cells[:, None], n, axis=1))
    assert np.array_equal(iy, np.repeat(cells[None, :], n, axis=0))
    masked = np.isnan(values)
    assert np.array_equal(np.isnan(re), masked)
    assert np.array_equal(np.isnan(im), masked)
    assert same_bits(re[~masked], values.real[~masked])
    assert same_bits(im[~masked], values.imag[~masked])
    pos = window.cell_positions()
    assert same_bits(x, pos[:, :, 0])
    assert same_bits(y, pos[:, :, 1])
    # abs is the correctly rounded hypot of the written parts, inf past
    # the float range
    v = values[~masked]
    with np.errstate(over="ignore"):
        want = np.hypot(v.real, v.imag)
    assert same_bits(magnitude[~masked], want)


# ---------------------------------------------------------------------------
# byte identity with the per-row formatter
# ---------------------------------------------------------------------------

MAX = 1.7976931348623157e308
EXTREME = st.one_of(st.sampled_from([0.0, -0.0, TINY, -TINY, MAX, -MAX]), FINITE)


def per_row_text(header, columns) -> str:
    """The reference writer: one ``%`` per row, ``%d`` for an integer column
    and ``%.17g`` for a float column."""
    fmt = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in columns) + "\n"
    rows = zip(*(c.tolist() for c in columns), strict=True)
    return header + "\n" + "".join(fmt % row for row in rows)


def band_rows(omegas, n):
    f = omegas.shape[0]
    return np.arange(f).repeat(n), omegas.repeat(n), np.tile(np.arange(n), f)


@st.composite
def extreme_band(draw):
    f = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    return (draw(hnp.arrays(float, f, elements=EXTREME)),
            draw(hnp.arrays(float, (f, n), elements=EXTREME)),
            draw(hnp.arrays(float, (f, n), elements=EXTREME)),
            draw(hnp.arrays(float, f, elements=EXTREME)))


BYTES = settings(max_examples=80, deadline=None)


@BYTES
@given(extreme_band())
def test_band_writers_match_the_per_row_text(tmp_path_factory, band):
    omegas, re, im, illum = band
    d = tmp_path_factory.mktemp("bytes")
    data = IntensityData(re, illum)
    write_intensity_csv(omegas, data, d / "i.csv")
    write_illumination_csv(omegas, data, d / "l.csv")
    rows = band_rows(omegas, re.shape[1])
    assert (d / "i.csv").read_bytes() == per_row_text(
        "freq_index,omega_rad_s,receiver_index,value", (*rows, re.ravel())).encode()
    assert (d / "l.csv").read_bytes() == per_row_text(
        "freq_index,omega_rad_s,twopi_Fhat", (np.arange(omegas.shape[0]), omegas, illum)).encode()
    field = np.empty(re.shape, dtype=complex)
    field.real, field.imag = re, im
    write_field_csv(omegas, field, d / "f.csv")
    assert (d / "f.csv").read_bytes() == per_row_text(
        "freq_index,omega_rad_s,receiver_index,re,im", (*rows, re.ravel(), im.ravel())).encode()


@BYTES
@given(extreme_band(), st.integers(1, 3))
def test_condition_file_matches_the_per_row_text(tmp_path_factory, band, n_scenes):
    omegas, values, _, _ = band
    f = omegas.shape[0]
    scene = replace(preset_scene("point"),
                    band=FrequencyGrid(100.0, 100.0 if f == 1 else 200.0, f))
    scenes = {f"cond_{j}": replace(scene, c0=343.0 + j) for j in range(n_scenes)}
    columns = dict(zip(scenes.values(), np.resize(values, (n_scenes, f))))
    d = tmp_path_factory.mktemp("cond")
    with mock.patch.object(cli, "condition_number", lambda sc: columns[sc]):
        cli._write_condition(str(d), scenes)
    omegas = scene.band.omegas
    assert (d / "condition.csv").read_bytes() == per_row_text(
        ",".join(["freq_index", "omega_rad_s", *scenes]),
        (np.arange(omegas.shape[0]), omegas, *columns.values())).encode()


@BYTES
@given(st.integers(0, 3), st.data())
def test_image_file_matches_the_per_row_text(tmp_path_factory, half, data):
    n = 2 * half + 1
    center = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=3))
    window = ImageWindowSpec(center, data.draw(st.floats(1e-300, 1e300)), half)
    values = data.draw(hnp.arrays(float, (n, n), elements=EXTREME)).astype(complex)
    values.imag = data.draw(hnp.arrays(float, (n, n), elements=EXTREME))
    values[data.draw(hnp.arrays(bool, (n, n)))] = complex(math.nan, math.nan)
    path = tmp_path_factory.mktemp("image") / "m.csv"
    cells = window.cell_offsets()
    v = values.ravel()
    with np.errstate(over="ignore"):  # |MAX + MAX i| overflows to inf
        write_image_csv(values, window, path)
        pos = window.cell_positions()
        want = per_row_text("ix,iy,x_m,y_m,re,im,abs", (
            cells.repeat(n), np.tile(cells, n), pos[:, :, 0].ravel(), pos[:, :, 1].ravel(),
            v.real, v.imag, np.hypot(v.real, v.imag)))
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("block", [1, 2, 7, 60, 1 << 16])
def test_blocks_of_lines_do_not_change_the_bytes(tmp_path, block):
    # The writers format a block of lines at a time; a block of one value
    # still takes a whole line, and the last block may be short.
    rng = np.random.default_rng(11)
    omegas = rng.uniform(1.0, 1e4, 7)
    field = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    window = ImageWindowSpec((0.5, -2.0), 0.1, 4)
    image = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    with mock.patch.object(forward, "_BLOCK_VALUES", block):
        write_field_csv(omegas, field, tmp_path / "f.csv")
        write_image_csv(image, window, tmp_path / "m.csv")
    rows = band_rows(omegas, 5)
    assert (tmp_path / "f.csv").read_bytes() == per_row_text(
        "freq_index,omega_rad_s,receiver_index,re,im",
        (*rows, field.real.ravel(), field.imag.ravel())).encode()
    cells, pos, v = window.cell_offsets(), window.cell_positions(), image.ravel()
    assert (tmp_path / "m.csv").read_bytes() == per_row_text("ix,iy,x_m,y_m,re,im,abs", (
        cells.repeat(9), np.tile(cells, 9), pos[:, :, 0].ravel(), pos[:, :, 1].ravel(),
        v.real, v.imag, np.hypot(v.real, v.imag))).encode()


def grid_text(tmp_path, values):
    """The writer's text of a (lines, positions) grid of ``values`` with one
    per-line key, and the per-row reference text of the same grid."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    lines = np.arange(values.shape[0])
    forward._write_grid(tmp_path / "g.csv", "k,v", [lines[:, None]], [values])
    want = per_row_text("k,v", (lines.repeat(values.shape[1]), values.ravel()))
    return (tmp_path / "g.csv").read_bytes(), want.encode()


@BYTES
@given(hnp.arrays(float, st.integers(1, 40), elements=st.floats(width=64)))
def test_every_float_is_written_as_its_percent_17g(tmp_path_factory, values):
    # st.floats() draws subnormals, signed zeros, infinities and NaN too.
    got, want = grid_text(tmp_path_factory.mktemp("g17"), values[None, :])
    assert got == want


def ulp_neighbours(values):
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, -math.inf),
                           np.nextafter(values, math.inf)])


@pytest.mark.parametrize("values", [
    # Exact ties at the 17th digit, which %.17g rounds half to even.
    pytest.param([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125], id="ties"),
    # Where %g switches notation, and where the fast path ends.
    pytest.param(ulp_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250]), id="edges"),
    pytest.param([TINY, -TINY, MAX, -MAX, 2.2250738585072014e-308], id="extremes"),
])
def test_hard_values_are_written_as_their_percent_17g(tmp_path, values):
    values = np.concatenate([values, np.negative(values)])
    got, want = grid_text(tmp_path, values[None, :])
    assert got == want


def test_a_tie_rounds_half_to_even(tmp_path):
    got, _ = grid_text(tmp_path, [[1e15 + 0.25, 1e15 + 0.75]])
    assert got == b"k,v\n0,1000000000000000.2\n0,1000000000000000.8\n"


def test_a_block_of_values_off_the_fast_path(tmp_path):
    # Zeros, non-finite values and magnitudes past [1e-250, 1e250] all take
    # Python's %, a whole block of them and mixed with fast values.
    slow = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, 1e-300, 3e300, MAX]
    got, want = grid_text(tmp_path, np.resize(slow, (3, 1000)))
    assert got == want
    got, want = grid_text(tmp_path, np.resize(slow + [0.1, 2.5, 1 / 3], (3, 1000)))
    assert got == want


def test_a_million_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20261020)
    values = rng.integers(0, 2**64, size=(1000, 1000), dtype=np.uint64).view(float)
    got, want = grid_text(tmp_path, values)
    assert got == want


def test_only_a_write_builds_the_tables(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "from ikmig.cli import main\n"
        "from ikmig.forward import _g17_tables\n"
        "built = [_g17_tables.cache_info().currsize]\n"
        "assert main(['check-geometry', '--scene', 'preset:point']) == 0\n"
        "built.append(_g17_tables.cache_info().currsize)\n"
        "assert main(['simulate', '--scene', 'preset:point', '--out', sys.argv[1]]) == 0\n"
        "built.append(_g17_tables.cache_info().currsize)\n"
        "print(built)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 1]"


@pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                    reason="needs the resource module")
def test_writing_a_large_image_keeps_memory_bounded(tmp_path):
    # 251,001 cells (half extent 250), a 23 MB file, in a fresh process.
    # Formatting the whole grid at once raised the peak RSS by 40 MB; in
    # blocks of lines it rises by about 3 MB, most of it the magnitudes.
    setup = (
        "import numpy as np\n"
        "from ikmig.migrate import write_image_csv\n"
        "from ikmig.scene import ImageWindowSpec\n"
        "window = ImageWindowSpec((0.0, 0.0), 0.01, 250)\n"
        "n = window.cells_per_side\n"
        "image = np.empty((n, n), dtype=complex)\n"
        "image.real = np.linspace(-1.0, 1.0, n)[:, None]\n"
        "image.imag = np.linspace(0.5, 3.0, n)[None, :]\n"
    )
    path = tmp_path / "image.csv"
    (cells,), grown = peak_growth(setup, "write_image_csv(image, window, sys.argv[1])\n"
                                  "print(n * n)", str(path))
    assert int(cells) == 251_001
    assert path.stat().st_size > 20e6
    assert grown < 16 * 2**20
