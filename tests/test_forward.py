"""Forward model: direct arrivals, scattered response, phaseless data, CSV."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikmig.errors import DataFormatError, SingularityError
from ikmig.forward import (
    IntensityData,
    _distances,
    array_response_band,
    direct_arrivals_band,
    intensity_data,
    linearization_residual,
    read_field_csv,
    read_intensity_csv,
    total_field_band,
    write_field_csv,
    write_intensity_csv,
    write_illumination_csv,
)
from ikmig.scene import FrequencyGrid, ImageWindowSpec, PointScatterer, Scene, preset_scene

from ref_green import green0

# Largest |p|/|g0| over the preset bands, frozen from this module.
RESIDUAL_POINT = 0.11531241853097331
RESIDUAL_BREAKDOWN = {
    "breakdown_a": 3861.152159261932,
    "breakdown_b": 3510.0991357855773,
    "breakdown_c": 35810.059881250956,
    "breakdown_d": 0.061400468822458351,
}


def random_scene(rng, dimension, n_receivers=4, n_scatterers=3):
    recv = rng.uniform(-1.0, 1.0, size=(n_receivers, 2))
    recv[:, 0] -= 4.0
    source = np.array([-5.0, rng.uniform(-1.0, 1.0)])
    scats = tuple(
        PointScatterer((rng.uniform(3.0, 5.0), rng.uniform(-1.0, 1.0)),
                       rng.uniform(0.1, 2.0))
        for _ in range(n_scatterers)
    )
    return Scene(
        dimension=dimension,
        c0=343.0,
        receivers=recv,
        source=source,
        band=FrequencyGrid(200.0, 400.0, 3),
        scatterers=scats,
        window=ImageWindowSpec((4.0, 0.0), 0.2, 10),
    )


@st.composite
def band_scenes(draw, dimension):
    """``random_scene`` geometries of the given dimension on random bands:
    1-6 samples between 50 Hz and 2 kHz, 1-5 receivers, 0-3 scatterers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = random_scene(rng, dimension, n_receivers=draw(st.integers(1, 5)),
                         n_scatterers=draw(st.integers(0, 3)))
    count = draw(st.integers(1, 6))
    f_min = draw(st.floats(50.0, 1000.0))
    f_max = f_min if count == 1 else draw(st.floats(f_min, 2000.0))
    return replace(scene, band=FrequencyGrid(f_min, f_max, count))


def assert_band_equals_single_frequencies(diagnostic, scene):
    """diagnostic(scene)[j] is, bit for bit, its value on the one-sample band
    at the band's j-th frequency."""
    band = scene.band
    got = diagnostic(scene)
    assert got.shape == (band.count,)
    freqs = np.linspace(band.f_min_hz, band.f_max_hz, band.count)
    for j, f in enumerate(freqs.tolist()):
        single = diagnostic(replace(scene, band=FrequencyGrid(f, f, 1)))
        assert single.shape == (1,)
        assert np.array_equal(got[j:j + 1], single), (j, f)


def brute_response(scene, omega):
    # Scalar single-scattering sum; green0 is tested independently.
    k = omega / scene.c0
    out = []
    for r in scene.receivers:
        acc = 0j
        for s in scene.scatterers:
            acc += (
                k * k * s.rho
                * green0(tuple(r), s.position, k, scene.dimension)
                * green0(s.position, tuple(scene.source), k, scene.dimension)
            )
        out.append(acc)
    return np.asarray(out)


@pytest.mark.parametrize("coords", [2, 3])
def test_distances_equal_norm_bit_for_bit(coords):
    rng = np.random.default_rng(coords)
    for p_shape, r_shape in [((9, coords), (coords,)),
                             ((7, 1, coords), (1, 5, coords)),
                             ((4, coords), (3, 1, coords))]:
        points = rng.uniform(-3.0, 3.0, size=p_shape)
        ref = rng.uniform(-3.0, 3.0, size=r_shape)
        assert np.array_equal(_distances(points, ref),
                              np.linalg.norm(points - ref, axis=-1))


class TestDirectArrivals:
    def test_d3_closed_form(self):
        sc = random_scene(np.random.default_rng(0), 3)
        k = float(sc.band.omegas[1]) / sc.c0
        got = direct_arrivals_band(sc)
        assert got.shape == (3, 4)
        for r, value in zip(sc.receivers, got[1]):
            dist = np.linalg.norm(r - sc.source)
            assert value == pytest.approx(cmath.exp(1j * k * dist) / (4 * math.pi * dist),
                                          rel=1e-14)

    def test_d2_matches_green0(self):
        sc = random_scene(np.random.default_rng(1), 2)
        k = float(sc.band.omegas[0]) / sc.c0
        got = direct_arrivals_band(sc)[0]
        want = [green0(tuple(r), tuple(sc.source), k, 2) for r in sc.receivers]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


class TestArrayResponse:
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_brute_force(self, dimension, seed):
        sc = random_scene(np.random.default_rng(seed), dimension)
        for omega, got in zip(sc.band.omegas, array_response_band(sc)):
            want = brute_response(sc, float(omega))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_scatterers_is_zero(self):
        sc = random_scene(np.random.default_rng(4), 3, n_scatterers=0)
        assert np.array_equal(array_response_band(sc), np.zeros((3, 4)))

    def test_superposition_in_scatterers(self):
        rng = np.random.default_rng(5)
        sc = random_scene(rng, 3, n_scatterers=2)
        both = array_response_band(sc)
        first = array_response_band(replace(sc, scatterers=sc.scatterers[:1]))
        second = array_response_band(replace(sc, scatterers=sc.scatterers[1:]))
        assert np.allclose(both, first + second, rtol=1e-14)

    def test_scatterer_on_receiver(self):
        sc = random_scene(np.random.default_rng(6), 3)
        bad = replace(sc, scatterers=(PointScatterer(tuple(sc.receivers[2]), 1.0),))
        with pytest.raises(SingularityError, match="scatterer 0 coincides with receiver 2"):
            array_response_band(bad)

    def test_scatterer_on_source(self):
        sc = random_scene(np.random.default_rng(7), 3)
        bad = replace(sc, scatterers=(PointScatterer(tuple(sc.source), 1.0),))
        with pytest.raises(SingularityError, match="coincides with the source"):
            array_response_band(bad)

    def test_total_field_band(self):
        sc = random_scene(np.random.default_rng(8), 3)
        total = total_field_band(sc)
        assert np.array_equal(total, direct_arrivals_band(sc) + array_response_band(sc))


class TestIntensity:
    def test_exact_power_rows(self):
        sc = random_scene(np.random.default_rng(20), 3)
        data = intensity_data(sc)
        total = total_field_band(sc)
        assert np.allclose(data.values, np.abs(total) ** 2, rtol=1e-14)
        assert np.all(data.values >= 0.0)
        assert np.array_equal(data.illumination, np.ones(3))
        assert np.array_equal(data.omegas, sc.band.omegas)
        assert data.n_receivers == 4

    def test_container_validation(self):
        om = np.array([1.0, 2.0])
        vals = np.ones((2, 3))
        with pytest.raises(DataFormatError):
            IntensityData(om, np.ones((3, 2)), np.ones(2))
        with pytest.raises(DataFormatError):
            IntensityData(om, vals, np.ones(3))
        with pytest.raises(DataFormatError):
            IntensityData(om, vals * math.nan, np.ones(2))


class TestLinearization:
    def test_point_baseline_pinned(self):
        sc = preset_scene("point")
        worst = np.max(linearization_residual(sc))
        assert worst == pytest.approx(RESIDUAL_POINT, rel=1e-9)

    @pytest.mark.parametrize("case, expected", sorted(RESIDUAL_BREAKDOWN.items()))
    def test_breakdown_pins(self, case, expected):
        sc = preset_scene(case)
        worst = np.max(linearization_residual(sc))
        assert worst == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("dimension", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_band_call_equals_per_frequency_calls(self, dimension, data):
        assert_band_equals_single_frequencies(linearization_residual,
                                              data.draw(band_scenes(dimension)))

    def test_residual_linear_in_rho(self):
        sc = preset_scene("point")
        weak = replace(sc, scatterers=(PointScatterer(sc.scatterers[0].position, 1e-19),))
        ratio = linearization_residual(weak) / linearization_residual(sc)
        assert ratio == pytest.approx(np.full(sc.band.count, 1e-4), rel=1e-12)


def rewrite(path, edit):
    """Rewrite the text file at ``path`` as ``edit`` of its list of lines."""
    lines = edit(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")


def with_omega(line, omega):
    """A CSV row with its omega column replaced by the text ``omega``."""
    index, _, rest = line.split(",", 2)
    return ",".join([index, omega, rest])


class TestIntensityCsv:
    def make_data(self, seed=30):
        sc = random_scene(np.random.default_rng(seed), 3)
        fhat_sq = np.array([1.5, 2.5, 0.75])
        data = intensity_data(sc)
        return sc, IntensityData(data.omegas, fhat_sq[:, None] * data.values, fhat_sq)

    def written(self, tmp_path):
        """(scene, intensity path, illumination path) of ``make_data``."""
        sc, data = self.make_data()
        ipath = tmp_path / "intensity.csv"
        lpath = tmp_path / "illumination.csv"
        write_intensity_csv(data, ipath)
        write_illumination_csv(data, lpath)
        return sc, ipath, lpath

    def test_round_trip_bit_exact(self, tmp_path):
        sc, data = self.make_data()
        ipath = tmp_path / "intensity.csv"
        lpath = tmp_path / "illumination.csv"
        write_intensity_csv(data, ipath)
        write_illumination_csv(data, lpath)
        back = read_intensity_csv(ipath, sc, lpath)
        assert np.array_equal(back.omegas, data.omegas)
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.illumination, data.illumination)

    def test_read_without_illumination_defaults_to_one(self, tmp_path):
        sc, ipath, _ = self.written(tmp_path)
        back = read_intensity_csv(ipath, sc)
        assert np.array_equal(back.illumination, np.ones(3))

    def test_header_layout(self, tmp_path):
        _, ipath, _ = self.written(tmp_path)
        lines = ipath.read_text().splitlines()
        assert lines[0] == "freq_index,omega_rad_s,receiver_index,value"
        assert len(lines) == 1 + 3 * 4
        assert lines[1].startswith("0,")

    def test_bad_header(self, tmp_path):
        sc, _ = self.make_data()
        path = tmp_path / "x.csv"
        path.write_text("a,b,c,d\n0,1.0,0,2.0\n")
        with pytest.raises(DataFormatError, match="unexpected intensity header"):
            read_intensity_csv(path, sc)

    def test_malformed_row(self, tmp_path):
        sc, _ = self.make_data()
        path = tmp_path / "x.csv"
        path.write_text("freq_index,omega_rad_s,receiver_index,value\n0,1.0,0\n")
        with pytest.raises(DataFormatError, match="malformed intensity row"):
            read_intensity_csv(path, sc)
        path.write_text("freq_index,omega_rad_s,receiver_index,value\nx,1.0,0,2.0\n")
        with pytest.raises(DataFormatError, match="malformed"):
            read_intensity_csv(path, sc)

    def test_out_of_order_rows(self, tmp_path):
        sc, ipath, _ = self.written(tmp_path)
        rewrite(ipath, lambda lines: [lines[0], lines[2], lines[1], *lines[3:]])
        with pytest.raises(DataFormatError, match="intensity data row 1 does not match the "
                                                  "scene: its keys should be 0,1256.6"):
            read_intensity_csv(ipath, sc)

    def test_incomplete_grid(self, tmp_path):
        sc, ipath, _ = self.written(tmp_path)
        rewrite(ipath, lambda lines: lines[:-1])
        with pytest.raises(DataFormatError,
                           match="intensity file holds 11 data rows; the scene expects 12"):
            read_intensity_csv(ipath, sc)
        # A band or an array other than the scene's is the same error.
        for other in (replace(sc, band=FrequencyGrid(200.0, 400.0, 4)),
                      replace(sc, receivers=sc.receivers[:3])):
            with pytest.raises(DataFormatError, match="the scene expects"):
                read_intensity_csv(ipath, other)

    def test_omega_mismatch_within_a_frequency(self, tmp_path):
        sc, ipath, _ = self.written(tmp_path)
        # A file of the right shape on another band fails at its first row.
        with pytest.raises(DataFormatError, match="intensity data row 1 does not match"):
            read_intensity_csv(ipath, replace(sc, band=FrequencyGrid(250.0, 400.0, 3)))
        rewrite(ipath, lambda lines: [*lines[:2], with_omega(lines[2], "99.0"), *lines[3:]])
        with pytest.raises(DataFormatError, match="intensity data row 2 does not match"):
            read_intensity_csv(ipath, sc)

    def test_empty_file(self, tmp_path):
        sc, _ = self.make_data()
        path = tmp_path / "x.csv"
        path.write_text("freq_index,omega_rad_s,receiver_index,value\n")
        with pytest.raises(DataFormatError, match="intensity file holds no rows"):
            read_intensity_csv(path, sc)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value(self, tmp_path, value):
        sc, ipath, lpath = self.written(tmp_path)
        rewrite(lpath, lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0] + "," + value])
        with pytest.raises(DataFormatError, match="illumination data must be finite"):
            read_intensity_csv(ipath, sc, lpath)
        rewrite(ipath, lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0] + "," + value])
        with pytest.raises(DataFormatError, match="intensity data must be finite"):
            read_intensity_csv(ipath, sc)

    def test_illumination_omega_mismatch(self, tmp_path):
        sc, ipath, lpath = self.written(tmp_path)
        lines = ["freq_index,omega_rad_s,twopi_Fhat"]
        for i, w in enumerate(sc.band.omegas):
            lines.append(f"{i},{format(w + 1.0, '.17g')},1.0")
        lpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="illumination data row 1 does not match"):
            read_intensity_csv(ipath, sc, lpath)

    def test_illumination_missing_rows(self, tmp_path):
        sc, ipath, lpath = self.written(tmp_path)
        rewrite(lpath, lambda lines: lines[:2])
        with pytest.raises(DataFormatError,
                           match="illumination file holds 1 data rows; the scene expects 3"):
            read_intensity_csv(ipath, sc, lpath)

    def test_illumination_row_outside_grid(self, tmp_path):
        sc, ipath, lpath = self.written(tmp_path)
        rewrite(lpath, lambda lines: [*lines[:-1], "7" + lines[-1][1:]])
        with pytest.raises(DataFormatError, match="illumination data row 3 does not match"):
            read_intensity_csv(ipath, sc, lpath)
        # A repeated frequency row is a key error too, not a last-one-wins.
        rewrite(lpath, lambda lines: [lines[0], lines[1], lines[1], lines[2]])
        with pytest.raises(DataFormatError, match="illumination data row 2 does not match"):
            read_intensity_csv(ipath, sc, lpath)

    def test_illumination_rows_come_in_frequency_order(self, tmp_path):
        sc, ipath, lpath = self.written(tmp_path)
        rewrite(lpath, lambda lines: [lines[0], lines[2], lines[1], lines[3]])
        with pytest.raises(DataFormatError, match="illumination data row 1 does not match "
                                                  "the scene: its keys should be 0,1256.6"):
            read_intensity_csv(ipath, sc, lpath)


class TestFieldCsv:
    SCENE = random_scene(np.random.default_rng(40), 3, n_receivers=5)

    def written(self, tmp_path):
        """A field file of the scene, and its values."""
        rng = np.random.default_rng(40)
        values = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        path = tmp_path / "field.csv"
        write_field_csv(self.SCENE.band.omegas, values, path)
        return path, values

    def test_round_trip_bit_exact(self, tmp_path):
        path, values = self.written(tmp_path)
        assert np.array_equal(read_field_csv(path, self.SCENE), values)

    def test_header(self, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(np.array([1.0]), np.array([[1 + 2j]]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_index,omega_rad_s,receiver_index,re,im"
        assert lines[1] == "0,1,0,1,2"

    def test_errors(self, tmp_path):
        sc = self.SCENE
        path = tmp_path / "field.csv"
        path.write_text("bad\n")
        with pytest.raises(DataFormatError, match="unexpected field header"):
            read_field_csv(path, sc)
        path.write_text("freq_index,omega_rad_s,receiver_index,re,im\n")
        with pytest.raises(DataFormatError, match="field file holds no rows"):
            read_field_csv(path, sc)
        path.write_text("freq_index,omega_rad_s,receiver_index,re,im\n0,1.0,0,1.0\n")
        with pytest.raises(DataFormatError, match="malformed field row"):
            read_field_csv(path, sc)
        path.write_text(
            "freq_index,omega_rad_s,receiver_index,re,im\n0,1.0,0.5,1.0,0.0\n")
        with pytest.raises(DataFormatError, match="malformed"):
            read_field_csv(path, sc)
        path.write_text(
            "freq_index,omega_rad_s,receiver_index,re,im\n0,1.0,0,inf,0.0\n")
        with pytest.raises(DataFormatError, match="field data must be finite"):
            read_field_csv(path, sc)
        path.write_text(
            "freq_index,omega_rad_s,receiver_index,re,im\n0,1.0,0,1.0,0.0\n")
        with pytest.raises(DataFormatError, match="field file holds 1 data rows; "
                                                  "the scene expects 15"):
            read_field_csv(path, sc)
        path, _ = self.written(tmp_path)
        rewrite(path, lambda lines: [lines[0], lines[2], lines[1], *lines[3:]])
        with pytest.raises(DataFormatError, match="field data row 1 does not match"):
            read_field_csv(path, sc)
        path, _ = self.written(tmp_path)
        rewrite(path, lambda lines: [*lines[:7], with_omega(lines[7], "99.0"), *lines[8:]])
        with pytest.raises(DataFormatError, match="field data row 7 does not match"):
            read_field_csv(path, sc)
