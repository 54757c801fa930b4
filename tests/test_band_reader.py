"""The band reader: every double the writers emit reads back bit for bit,
the writers' own text is decided in NumPy passes, and any other text reads
as NumPy's reader reads it, with the same errors, in blocks of lines whose
size changes nothing.
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
    with mock.patch.object(forward, "_load_block", side_effect=AssertionError("fallback")):
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


# Spellings the writer never emits, each as NumPy's reader reads it.
SPELLINGS = ["+1.5", "1E5", "1e5", ".5", "-.5", "5.", "1.50", " 2.0\t", "007", "-0001.25e+02",
             "1e+005", "0.0e-00", "1.5E-7", "\t-3", "12345678901234567890",
             "0.000000000000000000000001", "4.9406564584124654e-324", "1e-400", "1.5e+300",
             "9007199254740993", "2.2250738585072011e-308"]


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
    want = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1, usecols=(3, 4))
    got = read_field_csv(tmp_path / "f.csv", SCENE)
    assert same_bits(got.real.ravel(), want[:, 0])
    assert same_bits(got.imag.ravel(), want[:, 1])


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
    """Data row ``row`` (from 1) of the file becomes ``text``, one past the
    last is appended."""
    header, *rows = path.read_text().splitlines()
    for row, text in edits.items():
        rows[row - 1:row] = [text]
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("size", [100, 1 << 18])
def test_a_malformed_row_is_named_from_the_files_start(tmp_path, size):
    big_field(tmp_path / "f.csv")
    # A row that parses, then one that does not, far into the file.
    edit_rows(tmp_path / "f.csv", {700: "27, 1e5 ,24,1,2", 900: "35,1,24,x,2"})
    with pytest.raises(ValueError) as numpy_error:
        np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1,
                   dtype=[("f", np.int32), ("w", "S20"), ("r", np.int32), ("re", float),
                          ("im", float)])
    with mock.patch.object(forward, "_READ_BYTES", size):
        with pytest.raises(DataFormatError) as error:
            read_field_csv(tmp_path / "f.csv", BIG)
    assert str(error.value).startswith("malformed field row: ")
    assert "at row 899" in str(numpy_error.value) and "at row 899" in str(error.value)


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
    edit_rows(tmp_path / "f.csv", {1001: ""})
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


@pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                    reason="needs the resource module")
def test_reading_a_large_band_file_keeps_memory_bounded(tmp_path):
    # 500,000 rows, a 24 MB intensity file, read in a fresh process.  Read
    # whole by NumPy's reader, which holds the parsed table, it raised the
    # peak RSS by 21 MB; in blocks of lines by 10 MB, 8 MB of it the values
    # and IntensityData's copy of them.
    scene = replace(POINT, band=FrequencyGrid(100.0, 200.0, 1000), receivers=POINT.receivers[:500])
    rng = np.random.default_rng(12)
    data = IntensityData(rng.uniform(1.0, 2.0, (1000, 500)), np.ones(1000))
    path = tmp_path / "intensity.csv"
    write_intensity_csv(scene.band.omegas, data, path)
    (tmp_path / "scene.json").write_text(emit_scene(scene), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import resource, sys\n"
        "from ikmig.cli import _load_scene\n"
        "from ikmig.forward import read_intensity_csv\n"
        "scene = _load_scene(sys.argv[2])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "data = read_intensity_csv(sys.argv[1], scene)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        # ru_maxrss counts KiB, and bytes on macOS.
        "print(data.values.size, (after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    # A process's ru_maxrss starts at its parent's, the image it was forked
    # from, so the reading process is started by a small one, not by pytest.
    spawn = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-c", code, str(path),
                           str(tmp_path / "scene.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows, grown = map(int, proc.stdout.split())
    assert rows == 500_000
    assert path.stat().st_size > 20e6
    assert grown < 14 * 2**20
