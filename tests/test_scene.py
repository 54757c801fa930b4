"""Scene construction, validation, JSON round-trips, and presets."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikmig.errors import SceneParseError, SceneValidationError
from ikmig.scene import (
    PRESET_CASES,
    FrequencyGrid,
    ImageWindowSpec,
    PointScatterer,
    Scene,
    disk_scatterer,
    emit_scene,
    linear_array,
    parse_scene,
    preset_scene,
    scene_digest,
)


_REAL = st.floats(-1e6, 1e6, allow_nan=False)
_POSITIVE = st.floats(1e-9, 1e9)


@st.composite
def scenes(draw):
    """Valid scenes of random shape: dimension 2 or 3, 2 or 3 coordinates,
    single- and multi-sample bands, 0-3 scatterers, random windows."""
    coords = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[_REAL] * coords)
    receivers = draw(st.lists(point, min_size=1, max_size=5, unique=True))
    source = draw(point.filter(lambda s: s not in receivers))
    count = draw(st.integers(1, 6))
    f_min = draw(_POSITIVE)
    f_max = f_min if count == 1 else draw(st.floats(f_min, 2e9))
    scatterers = draw(st.lists(
        st.builds(PointScatterer, point, _REAL.filter(bool)), max_size=3))
    window = ImageWindowSpec(draw(point), draw(_POSITIVE), draw(st.integers(0, 40)))
    return Scene(
        dimension=draw(st.sampled_from([2, 3])),
        c0=draw(_POSITIVE),
        receivers=np.asarray(receivers),
        source=np.asarray(source),
        band=FrequencyGrid(f_min, f_max, count),
        scatterers=tuple(scatterers),
        window=window,
    )


def small_scene(**overrides):
    base = dict(
        dimension=3,
        c0=343.0,
        receivers=np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]),
        source=np.array([0.5, -2.0]),
        band=FrequencyGrid(400.0, 800.0, 5),
        scatterers=(PointScatterer((3.0, 0.0), 1e-3),),
        window=ImageWindowSpec((3.0, 0.0), 0.1, 4),
    )
    base.update(overrides)
    return Scene(**base)


class TestFrequencyGrid:
    def test_omegas_uniform_and_ascending(self):
        grid = FrequencyGrid(430e12, 750e12, 100)
        om = grid.omegas
        assert om.shape == (100,)
        assert om[0] == pytest.approx(2 * math.pi * 430e12, rel=1e-15)
        assert om[-1] == pytest.approx(2 * math.pi * 750e12, rel=1e-15)
        steps = np.diff(om)
        assert np.all(steps > 0)
        assert np.max(steps) - np.min(steps) <= 4 * np.spacing(np.max(om))

    def test_delta_omega(self):
        grid = FrequencyGrid(100.0, 200.0, 11)
        assert grid.delta_omega == pytest.approx(2 * math.pi * 10.0, rel=1e-15)
        assert grid.delta_omega == pytest.approx(grid.omegas[1] - grid.omegas[0], rel=1e-13)

    def test_single_sample_unit_weight(self):
        grid = FrequencyGrid(500.0, 500.0, 1)
        assert grid.delta_omega == 1.0
        assert grid.omegas.shape == (1,)

    def test_center_frequency(self):
        assert FrequencyGrid(430e12, 750e12, 100).f_center_hz == pytest.approx(590e12)

    def test_omegas_read_only(self):
        grid = FrequencyGrid(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            grid.omegas[0] = 0.0

    def test_validation(self):
        with pytest.raises(SceneValidationError):
            FrequencyGrid(0.0, 1.0, 2)
        with pytest.raises(SceneValidationError):
            FrequencyGrid(-1.0, 1.0, 2)
        with pytest.raises(SceneValidationError):
            FrequencyGrid(2.0, 1.0, 2)
        with pytest.raises(SceneValidationError):
            FrequencyGrid(1.0, 2.0, 0)
        with pytest.raises(SceneValidationError):
            FrequencyGrid(1.0, 2.0, 1)
        with pytest.raises(SceneValidationError):
            FrequencyGrid(math.nan, 2.0, 2)

    @pytest.mark.parametrize("count", [np.int64(3), np.uint8(3), 3])
    def test_any_integer_is_a_count(self, count):
        grid = FrequencyGrid(1.0, 2.0, count)
        assert type(grid.count) is int and grid.count == 3
        assert grid == FrequencyGrid(1.0, 2.0, 3)

    @pytest.mark.parametrize("count", [True, np.True_, 3.0, np.float64(3.0), "3", None])
    def test_a_bool_or_a_non_integer_is_not_a_count(self, count):
        with pytest.raises(SceneValidationError, match="band.count"):
            FrequencyGrid(1.0, 1.0, count)

    def test_angular_frequency_must_be_finite(self):
        # 2 pi f overflows above about 2.86e307 Hz.
        assert math.isfinite(FrequencyGrid(1.0, 2.8e307, 2).omegas[-1])
        with pytest.raises(SceneValidationError, match="f_max_hz"):
            FrequencyGrid(1.0, 2.9e307, 2)


class TestLinearArray:
    def test_spacing_and_span(self):
        arr = linear_array((0.0, 0.0), 10.0, 11, (0.0, 1.0))
        assert arr.shape == (11, 2)
        assert arr[0] == pytest.approx([0.0, -5.0])
        assert arr[-1] == pytest.approx([0.0, 5.0])
        assert np.allclose(np.diff(arr[:, 1]), 1.0)
        assert np.all(arr[:, 0] == 0.0)

    def test_axis_normalized(self):
        a = linear_array((1.0, 2.0), 4.0, 5, (0.0, 10.0))
        b = linear_array((1.0, 2.0), 4.0, 5, (0.0, 0.25))
        assert np.array_equal(a, b)

    def test_single_receiver_sits_on_center(self):
        arr = linear_array((3.0, -1.0, 2.0), 7.0, 1, (1.0, 0.0, 0.0))
        assert arr.shape == (1, 3)
        assert np.array_equal(arr[0], [3.0, -1.0, 2.0])

    def test_errors(self):
        with pytest.raises(SceneValidationError):
            linear_array((0.0, 0.0), 1.0, 0, (0.0, 1.0))
        with pytest.raises(SceneValidationError):
            linear_array((0.0, 0.0), 1.0, 3, (0.0, 0.0))

    def test_the_count_follows_the_integer_rule(self):
        want = linear_array((0.0, 0.0), 1.0, 3, (0.0, 1.0))
        assert np.array_equal(linear_array((0.0, 0.0), 1.0, np.int64(3), (0.0, 1.0)), want)
        for count in (True, 2.5, None):
            with pytest.raises(SceneValidationError, match="receivers.linear.count"):
                linear_array((0.0, 0.0), 1.0, count, (0.0, 1.0))


class TestDiskScatterer:
    def brute_count(self, radius, spacing):
        # Independent lattice count: every integer pair within radius.
        n = int(math.ceil(radius / spacing)) + 2
        count = 0
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                if (i * spacing) ** 2 + (j * spacing) ** 2 <= radius * radius:
                    count += 1
        return count

    def test_count_matches_brute_force(self):
        for radius, spacing in ((1.0, 0.3), (2.5, 0.25), (0.9, 1.0), (5.0, 0.7)):
            pts = disk_scatterer((0.0, 0.0), radius, spacing, 1e-3)
            assert len(pts) == self.brute_count(radius, spacing)

    def test_tiny_radius_keeps_only_center(self):
        pts = disk_scatterer((2.0, 3.0), 0.1, 1.0, 5e-2)
        assert len(pts) == 1
        assert pts[0].position == (2.0, 3.0)
        assert pts[0].rho == 5e-2

    def test_radius_equal_spacing_keeps_cross(self):
        pts = disk_scatterer((0.0, 0.0), 1.0, 1.0, 1e-3)
        assert len(pts) == 5
        got = {p.position for p in pts}
        assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_row_major_order(self):
        pts = disk_scatterer((0.0, 0.0), 1.0, 0.5, 1e-3)
        seq = [p.position for p in pts]
        assert seq == sorted(seq)

    def test_offsets_within_radius(self):
        pts = disk_scatterer((1.0, -2.0), 1.7, 0.4, 1e-3)
        for p in pts:
            dx = p.position[0] - 1.0
            dy = p.position[1] + 2.0
            assert math.hypot(dx, dy) <= 1.7 + 1e-12

    def test_three_coordinate_center(self):
        pts = disk_scatterer((0.0, 0.0, 4.0), 0.5, 0.5, 1e-3)
        assert all(p.position[2] == 4.0 for p in pts)

    def test_errors(self):
        with pytest.raises(SceneValidationError):
            disk_scatterer((0.0, 0.0), 0.0, 1.0, 1e-3)
        with pytest.raises(SceneValidationError):
            disk_scatterer((0.0, 0.0), 1.0, -1.0, 1e-3)


class TestWindow:
    def test_cell_positions_shape_and_corners(self):
        win = ImageWindowSpec((10.0, 20.0), 0.5, 2)
        pos = win.cell_positions()
        assert pos.shape == (5, 5, 2)
        assert np.array_equal(pos[0, 0], [9.0, 19.0])
        assert np.array_equal(pos[4, 4], [11.0, 21.0])
        assert np.array_equal(pos[2, 2], [10.0, 20.0])

    def test_cell_positions_keep_extra_coordinate(self):
        win = ImageWindowSpec((1.0, 2.0, 7.0), 0.5, 1)
        pos = win.cell_positions()
        assert pos.shape == (3, 3, 3)
        assert np.all(pos[:, :, 2] == 7.0)

    def test_offsets(self):
        win = ImageWindowSpec((0.0, 0.0), 1.0, 3)
        assert np.array_equal(win.cell_offsets(), [-3, -2, -1, 0, 1, 2, 3])
        assert win.cells_per_side == 7

    def test_validation(self):
        with pytest.raises(SceneValidationError):
            ImageWindowSpec((0.0, 0.0), 0.0, 2)
        with pytest.raises(SceneValidationError):
            ImageWindowSpec((0.0, 0.0), 1.0, -1)
        with pytest.raises(SceneValidationError):
            ImageWindowSpec((math.inf, 0.0), 1.0, 2)


    @pytest.mark.parametrize("half_extent", [np.int64(2), np.uint8(2), 2])
    def test_any_integer_is_a_half_extent(self, half_extent):
        win = ImageWindowSpec((0.0, 0.0), 1.0, half_extent)
        assert type(win.half_extent) is int and win.half_extent == 2
        assert win == ImageWindowSpec((0.0, 0.0), 1.0, 2)

    @pytest.mark.parametrize("half_extent", [True, False, np.True_, 2.0, "2", None])
    def test_a_bool_or_a_non_integer_is_not_a_half_extent(self, half_extent):
        with pytest.raises(SceneValidationError, match="window.half_extent"):
            ImageWindowSpec((0.0, 0.0), 1.0, half_extent)


class TestSceneValidation:
    def test_valid_scene_properties(self):
        sc = small_scene()
        assert sc.n_receivers == 3
        assert sc.coords == 2
        assert sc.aperture == pytest.approx(2.0)
        assert np.array_equal(sc.array_center, [0.0, 0.0])
        assert sc.standoff == pytest.approx(3.0)
        assert sc.lambda0 == pytest.approx(343.0 / 600.0)

    def test_arrays_read_only(self):
        sc = small_scene()
        with pytest.raises(ValueError):
            sc.receivers[0, 0] = 9.0
        with pytest.raises(ValueError):
            sc.source[0] = 9.0

    def test_the_callers_arrays_stay_writeable(self):
        receivers = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
        source = np.array([0.5, -2.0])
        sc = small_scene(receivers=receivers, source=source)
        assert receivers.flags.writeable and source.flags.writeable
        assert not (sc.receivers.flags.writeable or sc.source.flags.writeable)
        # Writing to them leaves the validated scene as it was.
        receivers[0] = source
        assert np.array_equal(sc.receivers[0], [0.0, -1.0])

    def test_dimension(self):
        with pytest.raises(SceneValidationError):
            small_scene(dimension=4)

    def test_wavenumber_must_be_finite(self):
        # 2 pi 800 Hz / c0 overflows below about 2.8e-305 m/s.
        assert small_scene(c0=1e-300).c0 == 1e-300
        with pytest.raises(SceneValidationError, match="c0"):
            small_scene(c0=1e-306)

    def test_duplicate_receivers(self):
        with pytest.raises(SceneValidationError, match="distinct"):
            small_scene(receivers=np.array([[0.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("receivers", [
        [[0.0, 1.0], [-0.0, 1.0]],
        [[2.0, -0.0, 1.0], [1.0, 0.0, 3.0], [2.0, 0.0, 1.0]],
        [[3.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]],
    ])
    def test_duplicate_receivers_in_any_order_or_sign_of_zero(self, receivers):
        receivers = np.array(receivers)
        extra = {"source": np.full(receivers.shape[1], -5.0), "scatterers": (),
                 "window": ImageWindowSpec((0.0,) * receivers.shape[1], 0.1, 1)}
        with pytest.raises(SceneValidationError, match="distinct"):
            small_scene(receivers=receivers, **extra)

    def test_receivers_sharing_coordinates_are_distinct(self):
        receivers = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert small_scene(receivers=receivers).n_receivers == 4

    def test_source_on_receiver_names_index(self):
        with pytest.raises(SceneValidationError, match="source coincides with receiver 1"):
            small_scene(source=np.array([0.0, 0.0]))

    def test_coordinate_length_mismatch(self):
        with pytest.raises(SceneValidationError):
            small_scene(source=np.array([0.5, -2.0, 0.0]))
        with pytest.raises(SceneValidationError):
            small_scene(scatterers=(PointScatterer((3.0, 0.0, 0.0), 1e-3),))
        with pytest.raises(SceneValidationError):
            small_scene(window=ImageWindowSpec((3.0, 0.0, 0.0), 0.1, 4))

    def test_scatterer_outside_window_warns(self, caplog):
        with caplog.at_level("WARNING", logger="ikmig.scene"):
            small_scene(scatterers=(PointScatterer((30.0, 0.0), 1e-3),))
        assert any("outside the image window" in r.message for r in caplog.records)

    def test_scatterer_inside_window_silent(self, caplog):
        with caplog.at_level("WARNING", logger="ikmig.scene"):
            small_scene()
        assert not caplog.records

    def test_replacing_the_band_swaps_the_grid_only(self):
        sc = small_scene()
        other = replace(sc, band=FrequencyGrid(500.0, 500.0, 1))
        assert other.band.count == 1
        assert np.array_equal(other.receivers, sc.receivers)
        assert other.scatterers == sc.scatterers

    def test_scatterer_validation(self):
        with pytest.raises(SceneValidationError):
            PointScatterer((0.0, math.nan), 1e-3)
        with pytest.raises(SceneValidationError):
            PointScatterer((0.0, 0.0), 0.0)
        with pytest.raises(SceneValidationError):
            PointScatterer((0.0, 0.0), math.inf)


class TestJsonInterface:
    DOC = {
        "unit": "mm",
        "dimension": 3,
        "c0": 3.0e8,
        "receivers": {"linear": {"center": [0.0, 0.0], "length": 10.0,
                                 "count": 11, "axis": [0.0, 1.0]}},
        "source": [5.0, -7.5],
        "band": {"f_min_hz": 430e12, "f_max_hz": 750e12, "count": 4},
        "scatterers": [{"pos": [50.0, 0.0], "rho": 1e-15}],
        "window": {"center": [50.0, 0.0], "spacing_lambda0": 0.4, "half_extent": 5},
    }

    def test_parse_applies_units(self):
        sc = parse_scene(json.dumps(self.DOC))
        assert sc.n_receivers == 11
        assert sc.aperture == pytest.approx(10e-3)
        assert np.array_equal(sc.source, [5e-3, -7.5e-3])
        assert sc.scatterers[0].position == (50e-3, 0.0)
        assert sc.scatterers[0].rho == 1e-15
        lambda0 = 3.0e8 / 590e12
        assert sc.window.spacing == pytest.approx(0.4 * lambda0)

    def test_default_unit_is_mm(self):
        doc = dict(self.DOC)
        doc.pop("unit")
        sc = parse_scene(json.dumps(doc))
        assert sc.aperture == pytest.approx(10e-3)

    def test_meter_unit(self):
        doc = dict(self.DOC)
        doc["unit"] = "m"
        sc = parse_scene(json.dumps(doc))
        assert sc.aperture == pytest.approx(10.0)

    def test_explicit_receivers(self):
        doc = dict(self.DOC)
        doc["receivers"] = {"explicit": [[0.0, -1.0], [0.0, 1.0]]}
        sc = parse_scene(json.dumps(doc))
        assert sc.n_receivers == 2
        assert np.array_equal(sc.receivers, [[0.0, -1e-3], [0.0, 1e-3]])

    def test_absolute_spacing(self):
        doc = dict(self.DOC)
        doc["window"] = {"center": [50.0, 0.0], "spacing": 0.25, "half_extent": 5}
        sc = parse_scene(json.dumps(doc))
        assert sc.window.spacing == pytest.approx(0.25e-3)

    def test_round_trip_identity(self):
        sc = parse_scene(json.dumps(self.DOC))
        again = parse_scene(emit_scene(sc))
        assert emit_scene(again) == emit_scene(sc)
        assert np.array_equal(again.receivers, sc.receivers)
        assert again.band == sc.band
        assert again.window == sc.window
        assert again.scatterers == sc.scatterers

    def test_numpy_integer_counts_round_trip(self):
        sc = small_scene(band=FrequencyGrid(400.0, 800.0, np.int64(5)),
                         window=ImageWindowSpec((3.0, 0.0), 0.1, np.int64(4)))
        again = parse_scene(emit_scene(sc))
        assert again.band == FrequencyGrid(400.0, 800.0, 5)
        assert again.window == ImageWindowSpec((3.0, 0.0), 0.1, 4)
        assert emit_scene(again) == emit_scene(sc)

    def test_digest_stable_and_sensitive(self):
        sc = parse_scene(json.dumps(self.DOC))
        d1 = scene_digest(sc)
        assert d1 == scene_digest(parse_scene(emit_scene(sc)))
        assert len(d1) == 64
        other = replace(sc, band=FrequencyGrid(430e12, 750e12, 5))
        assert scene_digest(other) != d1

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.pop("dimension"), "dimension"),
        (lambda d: d.pop("c0"), "c0"),
        (lambda d: d.pop("band"), "band"),
        (lambda d: d.pop("source"), "source"),
        (lambda d: d.pop("scatterers"), "scatterers"),
        (lambda d: d.pop("window"), "window"),
        (lambda d: d.update(unit="cm"), "unit"),
        pytest.param(lambda d: d.update(unit=["m"]), "unit", id="list-unit"),
        pytest.param(lambda d: d.update(unit={"m": 1}), "unit", id="dict-unit"),
        (lambda d: d.update(dimension="3"), "dimension"),
        (lambda d: d.update(receivers={}), "receivers"),
        (lambda d: d.update(receivers={"linear": {}, "explicit": []}), "receivers"),
        (lambda d: d.update(source=[1.0]), "source"),
        (lambda d: d.update(source=["a", "b"]), "source"),
        (lambda d: d.update(scatterers=[{"pos": [0.0, 0.0]}]), "rho"),
        (lambda d: d.update(band={"f_min_hz": 1.0, "f_max_hz": 2.0, "count": 2.5}), "count"),
        (lambda d: d.update(window={"center": [0.0, 0.0], "spacing": 1.0,
                                    "spacing_lambda0": 1.0}), "spacing"),
        (lambda d: d["band"].update(f_min_hz="abc"), "band.f_min_hz"),
        (lambda d: d["band"].update(f_max_hz=None), "band.f_max_hz"),
        (lambda d: d["receivers"]["linear"].update(length="long"), "receivers.linear.length"),
        (lambda d: d["receivers"]["linear"].update(count=[11]), "receivers.linear.count"),
        (lambda d: d["window"].update(spacing_lambda0="x"), "window.spacing_lambda0"),
        (lambda d: d.update(window={"center": [50.0, 0.0], "spacing": {}}), "window.spacing"),
        (lambda d: d.update(receivers={"explicit": [[0.0, 1.0], [0.0, 1.0, 2.0]]}),
         "receivers.explicit"),
        # One numeric rule: a JSON number, never a boolean or a string, and
        # an integer wherever the field counts something.
        pytest.param(lambda d: d.update(band={"f_min_hz": 1.0, "f_max_hz": 1.0, "count": True}),
                     "band.count", id="bool-band.count"),
        pytest.param(lambda d: d["window"].update(half_extent=True), "window.half_extent",
                     id="bool-window.half_extent"),
        pytest.param(lambda d: d.update(c0=True), "c0", id="bool-c0"),
        pytest.param(lambda d: d.update(dimension=True), "dimension", id="bool-dimension"),
        pytest.param(lambda d: d["scatterers"][0].update(rho=True), "rho", id="bool-rho"),
        pytest.param(lambda d: d.update(source=[True, False]), "source", id="bool-source"),
        pytest.param(lambda d: d["receivers"]["linear"].update(count=2.9),
                     "receivers.linear.count", id="float-receivers.linear.count"),
        pytest.param(lambda d: d["band"].update(f_min_hz="4.3e14"), "band.f_min_hz",
                     id="str-band.f_min_hz"),
        pytest.param(lambda d: d.update(window={"center": [50.0, 0.0], "spacing": "0.25"}),
                     "window.spacing", id="str-window.spacing"),
        pytest.param(lambda d: d["window"].update(center=["50", "0"]), "window.center",
                     id="str-window.center"),
        pytest.param(lambda d: d.update(c0="3e8"), "c0", id="str-c0"),
        pytest.param(lambda d: d["receivers"]["linear"].update(axis=["a", "b"]),
                     "receivers.linear.axis", id="str-receivers.linear.axis"),
        pytest.param(lambda d: d["receivers"]["linear"].update(axis=[0.0, 1.0, 0.0]),
                     "receivers.linear.axis", id="length-receivers.linear.axis"),
    ])
    def test_parse_errors_name_the_field(self, mutate, fragment):
        doc = json.loads(json.dumps(self.DOC))
        mutate(doc)
        with pytest.raises(SceneParseError, match=fragment):
            parse_scene(json.dumps(doc))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_emit_parse_emit_is_a_fixed_point(self, data):
        sc = data.draw(scenes())
        text = emit_scene(sc)
        again = parse_scene(text)
        assert emit_scene(again) == text
        assert np.array_equal(again.receivers, sc.receivers)
        assert again.band == sc.band
        assert again.window == sc.window
        assert again.scatterers == sc.scatterers

    def test_invalid_json(self):
        for text in ("{not json", "[" * 100000 + "]" * 100000,
                     '{"dimension": ' + "9" * 5000 + "}"):
            with pytest.raises(SceneParseError, match="invalid JSON"):
                parse_scene(text)
        with pytest.raises(SceneParseError):
            parse_scene("[1, 2]")


# ---------------------------------------------------------------------------
# one rule per value kind
# ---------------------------------------------------------------------------

_REAL_KINDS = (int, float, np.int64, np.float32, np.float64)


@st.composite
def typed_real(draw, lo, hi):
    """(a number in about [lo, hi] as a random kind, its Python float)."""
    kind = draw(st.sampled_from(_REAL_KINDS))
    if kind in (int, np.int64):
        value = kind(draw(st.integers(math.ceil(lo), math.floor(hi))))
    else:
        value = kind(draw(st.floats(lo, hi)))
    return value, float(value)


@st.composite
def typed_int(draw, lo, hi):
    value = draw(st.integers(lo, hi))
    return draw(st.sampled_from([int, np.int64]))(value), value


@st.composite
def typed_scene_pairs(draw):
    """(a scene whose every numeric field is a random kind, the same scene
    built from Python ints and floats)."""
    coords = draw(st.sampled_from([2, 3]))

    def point(lo=-1e3, hi=1e3):
        return tuple(zip(*(draw(typed_real(lo, hi)) for _ in range(coords))))

    def rho():
        value, plain = draw(typed_real(1e-3, 1e3))
        return (-value, -plain) if draw(st.booleans()) else (value, plain)

    count = draw(typed_int(1, 5))
    f_min, f_max = sorted((draw(typed_real(1e-3, 1e6)) for _ in range(2)), key=lambda p: p[1])
    if count[1] == 1:
        f_max = f_min
    fields = dict(
        dimension=draw(typed_int(2, 3)), c0=draw(typed_real(1e-3, 1e6)),
        source=point(1.0, 1e3), band=(f_min, f_max, count),
        scatterers=[(point(), rho()) for _ in range(draw(st.integers(0, 2)))],
        window=(point(), draw(typed_real(1e-3, 1e3)), draw(typed_int(0, 5))))
    receivers = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])[:, :coords]
    if coords == 3:
        receivers = np.hstack([receivers, np.zeros((3, 1))])

    def build(i):
        band, window = fields["band"], fields["window"]
        return Scene(
            dimension=fields["dimension"][i], c0=fields["c0"][i], receivers=receivers,
            source=np.asarray(fields["source"][i], dtype=float),
            band=FrequencyGrid(*(p[i] for p in band)),
            scatterers=tuple(PointScatterer(pos[i], r[i]) for pos, r in fields["scatterers"]),
            window=ImageWindowSpec(*(p[i] for p in window)))

    return build(0), build(1)


class TestValueKinds:
    @settings(max_examples=80, deadline=None)
    @given(pair=typed_scene_pairs())
    def test_any_real_kind_round_trips_as_python_numbers(self, pair):
        typed, plain = pair
        assert scene_digest(typed) == scene_digest(plain)
        assert scene_digest(parse_scene(emit_scene(typed))) == scene_digest(typed)
        assert type(typed.dimension) is int and type(typed.c0) is float
        band, window = typed.band, typed.window
        assert [type(v) for v in (band.f_min_hz, band.f_max_hz, band.count)] == [
            float, float, int]
        assert {type(v) for v in (*window.center, window.spacing)} == {float}
        assert {type(v) for s in typed.scatterers for v in (*s.position, s.rho)} <= {float}

    def test_numpy_scalars_emit_as_the_preset(self):
        point = preset_scene("point")
        sc = replace(point, dimension=np.int64(3), c0=np.float32(3e8))
        assert emit_scene(sc) == emit_scene(point)
        assert scene_digest(sc) == scene_digest(point)

    @pytest.mark.parametrize("flag", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda b: FrequencyGrid(b, 2.0, 2), id="band.f_min_hz"),
        pytest.param(lambda b: FrequencyGrid(0.5, b, 2), id="band.f_max_hz"),
        pytest.param(lambda b: FrequencyGrid(1.0, 1.0, b), id="band.count"),
        pytest.param(lambda b: PointScatterer((b, 0.0), 1.0), id="scatterer.position"),
        pytest.param(lambda b: PointScatterer((0.0, 0.0), b), id="scatterer.rho"),
        pytest.param(lambda b: ImageWindowSpec((0.0, b), 1.0, 2), id="window.center"),
        pytest.param(lambda b: ImageWindowSpec((0.0, 0.0), b, 2), id="window.spacing"),
        pytest.param(lambda b: ImageWindowSpec((0.0, 0.0), 1.0, b), id="window.half_extent"),
        pytest.param(lambda b: small_scene(dimension=b), id="dimension"),
        pytest.param(lambda b: small_scene(c0=b), id="c0"),
    ])
    def test_a_bool_is_no_number(self, build, flag):
        with pytest.raises(SceneValidationError):
            build(flag)

    def test_c0_true_is_refused_before_emit(self):
        with pytest.raises(SceneValidationError, match="c0"):
            replace(preset_scene("point"), c0=True)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: small_scene(dimension=3.0), id="float-dimension"),
        pytest.param(lambda: small_scene(c0="343"), id="str-c0"),
        pytest.param(lambda: PointScatterer(("3", 0.0), 1e-3), id="str-position"),
        pytest.param(lambda: FrequencyGrid(10 ** 400, 10 ** 400, 1), id="huge-int-f_min_hz"),
    ])
    def test_other_non_reals_are_refused(self, build):
        with pytest.raises(SceneValidationError):
            build()


class TestPresets:
    def test_all_cases_construct(self):
        for case in PRESET_CASES:
            sc = preset_scene(case)
            assert sc.dimension == 3
            assert sc.band.count == 100

    def test_point_layout(self):
        sc = preset_scene("point")
        assert sc.n_receivers == 501
        assert sc.aperture == pytest.approx(10e-3)
        assert sc.standoff == pytest.approx(50e-3)
        assert len(sc.scatterers) == 1
        assert sc.scatterers[0].position == (50e-3, 0.0)
        assert sc.window.center == (50e-3, 0.0)
        # Window spacing resolves the band: a fraction of the center wavelength.
        assert sc.window.spacing == pytest.approx(sc.lambda0 / 2.5)

    def test_stochastic_shares_point_layout(self):
        assert emit_scene(preset_scene("stochastic")) == emit_scene(preset_scene("point"))

    def test_two_points_separation(self):
        sc = preset_scene("two_points")
        a, b = (np.asarray(s.position) for s in sc.scatterers)
        gap = np.linalg.norm(b - a)
        assert gap > 2.0 * sc.lambda0 * sc.standoff / sc.aperture

    def test_disk_lattice(self):
        sc = preset_scene("disk")
        assert len(sc.scatterers) == 61
        center = np.asarray(sc.window.center)
        radii = [np.linalg.norm(np.asarray(s.position) - center) for s in sc.scatterers]
        assert max(radii) <= 1.1 * sc.lambda0 + 1e-15

    def test_breakdown_c_strong_reflector_far_source(self):
        sc = preset_scene("breakdown_c")
        assert sc.scatterers[0].rho == 1e-10
        assert np.linalg.norm(sc.source) > np.linalg.norm(preset_scene("point").source)

    def test_breakdown_d_source_on_axis(self):
        sc = preset_scene("breakdown_d")
        assert sc.source[1] == 0.0

    def test_unknown_case(self):
        with pytest.raises(SceneValidationError, match="unknown preset"):
            preset_scene("nope")
