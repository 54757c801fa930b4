"""The CSV writer contract: exact text of every writer, and write -> read
round trips that must return the written floats bit for bit.

The pinned strings are literal, so they hold on any platform whose floats
are IEEE doubles: ``%d`` for index columns, ``%.17g`` for float columns,
one row per index in the order the readers expect.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ikmig import cli
from ikmig.cli import main
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

TINY = 5e-324  # smallest subnormal double


class TestPinnedText:
    def test_intensity_and_illumination(self, tmp_path):
        data = IntensityData(np.array([0.1, 1 / 3]),
                             np.array([[TINY, -0.0], [1 / 3, 7.0]]),
                             np.array([1 / 3, 2.5]))
        write_intensity_csv(data, tmp_path / "i.csv")
        write_illumination_csv(data, tmp_path / "l.csv")
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
    written = IntensityData(scene.band.omegas, values, illum)
    d = tmp_path_factory.mktemp("intensity")
    write_intensity_csv(written, d / "i.csv")
    write_illumination_csv(written, d / "l.csv")
    back = read_intensity_csv(d / "i.csv", scene, d / "l.csv")
    assert same_bits(back.omegas, written.omegas)
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
    # abs is the correctly rounded hypot of the written parts
    v = values[~masked]
    assert same_bits(magnitude[~masked], np.hypot(v.real, v.imag))


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
    data = IntensityData(omegas, re, illum)
    write_intensity_csv(data, d / "i.csv")
    write_illumination_csv(data, d / "l.csv")
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
