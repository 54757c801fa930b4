"""Migration kernels, broadband accumulation, metrics, image exports."""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ikmig import migrate as migrate_module
from ikmig.errors import DataFormatError
from ikmig.forward import array_response_band, direct_arrivals_band, intensity_data
from ikmig.migrate import (
    image_metrics,
    _apply_kernel,
    _geometry,
    _horner_kernel,
    magnitude_correlation,
    migrate_broadband_stack,
    spurious_term_image,
    write_image_csv,
    write_image_pgm,
)
from ikmig.recover import recover_band
from ikmig.scene import (
    FrequencyGrid,
    ImageWindowSpec,
    PointScatterer,
    Scene,
    linear_array,
)

from ref_green import green0


def imaging_scene(dimension=3, n_receivers=17, count=9, half_extent=8):
    return Scene(
        dimension=dimension,
        c0=343.0,
        receivers=linear_array((0.0, 0.0), 4.0, n_receivers, (0.0, 1.0)),
        source=np.array([0.5, -3.0]),
        band=FrequencyGrid(400.0, 800.0, count),
        scatterers=(PointScatterer((5.0, 0.0), 1e-3),),
        window=ImageWindowSpec((5.0, 0.0), 0.2, half_extent),
    )


def brute_image(scene, field, omega, window):
    # Scalar backpropagation sum; green0 is tested independently.
    k = omega / scene.c0
    pos = window.cell_positions()
    n = window.cells_per_side
    out = np.zeros((n, n), dtype=complex)
    for ix in range(n):
        for iy in range(n):
            cell = tuple(pos[ix, iy])
            acc = 0j
            for r in range(scene.n_receivers):
                g = green0(cell, tuple(scene.receivers[r]), k, scene.dimension)
                acc += np.conj(g) * field[r]
            g_src = green0(cell, tuple(scene.source), k, scene.dimension)
            out[ix, iy] = np.conj(g_src) * acc
    return out


def single(scene, field, f_hz):
    """Single-frequency image: a one-sample band at f_hz has unit weight."""
    sc = replace(scene, band=FrequencyGrid(f_hz, f_hz, 1))
    (img,) = migrate_broadband_stack(sc, np.asarray(field, dtype=complex)[None, :, None])
    return img


class TestSingleFrequency:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_brute_force(self, dimension):
        sc = imaging_scene(dimension, n_receivers=5, count=3, half_extent=2)
        rng = np.random.default_rng(0)
        field = rng.normal(size=5) + 1j * rng.normal(size=5)
        got = single(sc, field, 600.0)
        want = brute_image(sc, field, float(sc.band.omegas[1]), sc.window)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_linearity(self):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        rng = np.random.default_rng(1)
        f1 = rng.normal(size=5) + 1j * rng.normal(size=5)
        f2 = rng.normal(size=5) + 1j * rng.normal(size=5)
        f_hz = 3000.0 / (2.0 * math.pi)
        combo = single(sc, 2.0 * f1 - 1j * f2, f_hz)
        parts = 2.0 * single(sc, f1, f_hz) - 1j * single(sc, f2, f_hz)
        assert np.allclose(combo, parts, rtol=1e-13)

    def test_metadata(self):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        img = single(sc, np.ones(5, dtype=complex), 400.0)
        assert img.shape == (5, 5)

    def test_field_length_checked(self):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        with pytest.raises(DataFormatError):
            single(sc, np.ones(4, dtype=complex), 400.0)


class TestBroadband:
    def test_equals_weighted_sum_of_singles(self):
        sc = imaging_scene(n_receivers=5, count=4, half_extent=3)
        rng = np.random.default_rng(2)
        fields = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        (img,) = migrate_broadband_stack(sc, fields[:, :, None])
        freqs = np.linspace(sc.band.f_min_hz, sc.band.f_max_hz, sc.band.count)
        acc = sum(single(sc, fields[i], float(f)) for i, f in enumerate(freqs))
        assert np.allclose(img, sc.band.delta_omega * acc, rtol=1e-13)

    def test_single_sample_band_has_unit_weight(self):
        # The Horner sum in 3-D and the per-frequency kernel in 2-D.
        for dimension in (2, 3):
            sc = imaging_scene(dimension, n_receivers=5, count=3, half_extent=2)
            sc = replace(sc, band=FrequencyGrid(600.0, 600.0, 1))
            field = np.ones(5, dtype=complex)
            (broad,) = migrate_broadband_stack(sc, field[None, :, None])
            cells = sc.window.cell_positions().reshape(25, 2)
            geometry = _geometry(sc, cells, sc.window.spacing)
            k = sc.band.omegas / sc.c0
            if dimension == 3:
                raw = _horner_kernel(*geometry, k, field[None, None, :])
            else:
                raw = _apply_kernel(*geometry, float(k[0]), field[None, :])
            assert np.array_equal(broad, raw.reshape(5, 5))

    @pytest.mark.parametrize("band", [
        FrequencyGrid(600.0, 600.0, 1),
        FrequencyGrid(400.0, 800.0, 2),
        FrequencyGrid(400.0, 800.0, 7),
        FrequencyGrid(600.0, 600.0, 3),
    ], ids=["F1", "F2", "F7", "zero-width"])
    def test_horner_sum_matches_the_scalar_oracle(self, band):
        sc = replace(imaging_scene(n_receivers=5, half_extent=2), band=band)
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(band.count, 5, 2)) + 1j * rng.normal(size=(band.count, 5, 2))
        cells = sc.window.cell_positions().reshape(25, 2)
        raw = _horner_kernel(*_geometry(sc, cells, sc.window.spacing),
                             sc.band.omegas / sc.c0, np.ascontiguousarray(stack.transpose(2, 0, 1)))
        images = migrate_broadband_stack(sc, stack)
        for s, image in enumerate(images):
            want = sum(brute_image(sc, stack[j, :, s], float(om), sc.window)
                       for j, om in enumerate(sc.band.omegas))
            assert np.max(np.abs(raw[:, s].reshape(5, 5) - want)) <= 1e-11 * np.max(np.abs(want))
            assert np.array_equal(image, sc.band.delta_omega * raw[:, s].reshape(5, 5))

    def test_stack_shares_the_kernel_pass(self):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        one, two = migrate_broadband_stack(sc, np.stack([f, 2.0 * f], axis=2))
        assert np.allclose(two, 2.0 * one, rtol=1e-14)
        (alone,) = migrate_broadband_stack(sc, f[:, :, None])
        assert np.array_equal(one, alone)

    def test_thread_count_does_not_change_bits(self):
        # 81 cells are 3 blocks at one thread and 4 at four threads.
        for dimension in (2, 3):
            for half_extent in (4, 12):
                sc = imaging_scene(dimension, n_receivers=9, count=6, half_extent=half_extent)
                p = array_response_band(sc)
                (serial,) = migrate_broadband_stack(sc, p[:, :, None], threads=1)
                (pooled,) = migrate_broadband_stack(sc, p[:, :, None], threads=4)
                assert np.array_equal(serial, pooled)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_block_size_does_not_change_bits(self, dimension, monkeypatch):
        sc = imaging_scene(dimension, n_receivers=9, count=6, half_extent=4)
        p = array_response_band(sc)
        (want,) = migrate_broadband_stack(sc, p[:, :, None])
        for cap in (1, 7, sc.window.cells_per_side ** 2):
            monkeypatch.setattr(migrate_module, "_BLOCK_CELLS", cap)
            (got,) = migrate_broadband_stack(sc, p[:, :, None])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("half_extent", [2, 4])
    def test_threads_split_a_window_under_the_cap(self, half_extent, monkeypatch):
        # 25 cells fit in one block, 81 in three; either way each of four
        # workers gets an equal share.
        sc = imaging_scene(n_receivers=9, count=6, half_extent=half_extent)
        n_cells = sc.window.cells_per_side ** 2
        blocks = []
        geometry = migrate_module._geometry

        def counting(scene, cells, spacing):
            blocks.append(cells.shape[0])
            return geometry(scene, cells, spacing)

        monkeypatch.setattr(migrate_module, "_geometry", counting)
        migrate_broadband_stack(sc, array_response_band(sc)[:, :, None], threads=4)
        assert len(blocks) >= 4
        assert len(blocks) % 4 == 0
        assert sum(blocks) == n_cells
        assert max(blocks) - min(blocks) <= 1
        assert max(blocks) <= migrate_module._BLOCK_CELLS

    def test_pool_never_outnumbers_the_cpus(self, monkeypatch):
        # 10,000 threads split 81 cells into 81 one-cell blocks, but the
        # pool asks for no more workers than there are CPUs or blocks.
        sc = imaging_scene(n_receivers=9, count=6, half_extent=4)
        p = array_response_band(sc)
        (want,) = migrate_broadband_stack(sc, p[:, :, None])
        asked, blocks = [], []

        class Serial:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                blocks.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(migrate_module, "ThreadPoolExecutor", Serial)
        (got,) = migrate_broadband_stack(sc, p[:, :, None], threads=10_000)
        assert asked == [min(os.cpu_count() or 1, 81)]
        assert blocks == [81]
        assert np.array_equal(got, want)
        one_cell = ImageWindowSpec((5.0, 0.0), 0.2, 0)
        migrate_broadband_stack(sc, p[:, :, None], one_cell, threads=10_000)
        assert asked[-1] == 1

    def test_peak_memory_does_not_grow_with_the_window(self):
        # 6,561 cells: one (cells x N) complex array is 10.6 MB; the
        # migration must peak below it.
        sc = imaging_scene(n_receivers=101, count=3, half_extent=40)
        p = array_response_band(sc)
        tracemalloc.start()
        try:
            migrate_broadband_stack(sc, p[:, :, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = sc.window.cells_per_side ** 2
        assert peak < cells * sc.n_receivers * np.dtype(complex).itemsize

    def test_shape_validation(self):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        with pytest.raises(DataFormatError):
            migrate_broadband_stack(sc, np.ones((3, 4, 1), dtype=complex))
        with pytest.raises(DataFormatError):
            migrate_broadband_stack(sc, np.ones((2, 5, 1), dtype=complex))
        with pytest.raises(DataFormatError):
            migrate_broadband_stack(sc, np.ones((3, 5), dtype=complex))

    def test_matched_filter_peaks_on_the_scatterer(self):
        for dimension, n, count, he in ((3, 17, 9, 8), (2, 9, 5, 4)):
            sc = imaging_scene(dimension, n, count, he)
            p = array_response_band(sc)
            (img,) = migrate_broadband_stack(sc, p[:, :, None])
            metrics = image_metrics(img, sc)
            assert metrics.peak_cell == (0, 0)
            assert metrics.flags == ()

    def test_migrated_recovery_decomposes(self):
        # The recovered field is response + mirror + quadratic; migration
        # is linear, so the images add up the same way.
        sc = imaging_scene()
        g0 = direct_arrivals_band(sc)
        p = array_response_band(sc)
        ptilde = recover_band(sc, intensity_data(sc))
        mirror = g0 / np.conj(g0) * np.conj(p)
        quad = p * np.conj(p) / np.conj(g0)
        stack = np.stack([ptilde, p, mirror, quad], axis=2)
        full, part_p, part_m, part_q = migrate_broadband_stack(sc, stack)
        total = part_p + part_m + part_q
        assert np.allclose(full, total, rtol=1e-10)


class TestCollisions:
    def collision_scene(self):
        # A receiver sits exactly on the window center cell.
        return Scene(
            dimension=3,
            c0=343.0,
            receivers=np.array([[0.0, -1.0], [5.0, 0.0], [0.0, 1.0]]),
            source=np.array([0.5, -3.0]),
            band=FrequencyGrid(400.0, 800.0, 3),
            scatterers=(),
            window=ImageWindowSpec((5.0, 0.0), 0.2, 1),
        )

    def test_receiver_collision_masks_one_cell(self):
        sc = self.collision_scene()
        img = single(sc, np.ones(3, dtype=complex), 300.0)
        nan_mask = np.isnan(img.real)
        assert nan_mask[1, 1]
        assert nan_mask.sum() == 1

    def test_source_collision_masks_one_cell(self):
        sc = self.collision_scene()
        sc = replace(sc, receivers=np.array([[0.0, -1.0], [0.0, 1.0]]),
                     source=np.array([5.0, 0.2]))
        img = single(sc, np.ones(2, dtype=complex), 300.0)
        nan_mask = np.isnan(img.real)
        assert nan_mask[1, 2]
        assert nan_mask.sum() == 1

    def test_metrics_skip_masked_cells(self):
        sc = self.collision_scene()
        (img,) = migrate_broadband_stack(sc, np.ones((3, 3, 1), dtype=complex))
        metrics = image_metrics(img, sc)
        assert not math.isnan(metrics.peak_value)
        assert metrics.peak_value > 0.0


GAUSSIAN_WINDOW = ImageWindowSpec((20.0, 0.0), 0.5, 10)


def gaussian_image(sigma_x, sigma_y, window=GAUSSIAN_WINDOW):
    off = window.cell_offsets() * window.spacing
    mag = np.exp(-off[:, None] ** 2 / (2 * sigma_x**2)
                 - off[None, :] ** 2 / (2 * sigma_y**2))
    return mag.astype(complex)


def metrics_scene(window):
    return Scene(
        dimension=3,
        c0=343.0,
        receivers=np.array([[0.0, -1.0], [0.0, 1.0]]),
        source=np.array([0.0, -3.0]),
        band=FrequencyGrid(400.0, 800.0, 2),
        scatterers=(),
        window=window,
    )


class TestMetrics:
    def test_gaussian_widths(self):
        sigma_x, sigma_y = 1.2, 0.7
        img = gaussian_image(sigma_x, sigma_y)
        sc = metrics_scene(GAUSSIAN_WINDOW)
        m = image_metrics(img, sc)
        factor = 2.0 * math.sqrt(2.0 * math.log(2.0))
        # Array sits left of the window, so axis 0 is range.
        assert m.range_axis == 0
        assert m.range_fwhm_m == pytest.approx(factor * sigma_x, rel=0.01)
        assert m.crossrange_fwhm_m == pytest.approx(factor * sigma_y, rel=0.01)
        assert m.peak_cell == (0, 0)
        assert m.peak_position_m == GAUSSIAN_WINDOW.center
        assert m.peak_value == pytest.approx(1.0)
        assert m.flags == ()

    def test_wide_profile_sets_clipped_flags(self):
        img = gaussian_image(50.0, 0.7)
        m = image_metrics(img, metrics_scene(GAUSSIAN_WINDOW))
        assert "range_fwhm_clipped" in m.flags
        assert math.isnan(m.range_fwhm_m)
        assert not math.isnan(m.crossrange_fwhm_m)

    def test_zero_image_is_degenerate(self):
        win = ImageWindowSpec((20.0, 0.0), 0.5, 3)
        m = image_metrics(np.zeros((7, 7), dtype=complex), metrics_scene(win))
        assert "degenerate_zero_image" in m.flags
        assert m.peak_value == 0.0
        assert math.isnan(m.range_fwhm_m)

    def test_resolution_estimates(self):
        win = ImageWindowSpec((20.0, 0.0), 0.5, 3)
        img = gaussian_image(1.0, 1.0, win)
        sc = metrics_scene(win)
        m = image_metrics(img, sc)
        assert m.range_estimate_m == pytest.approx(343.0 / 400.0, rel=1e-12)
        # Standoff runs from the array center (0, 0) to the window center.
        lambda0 = 343.0 / 600.0
        assert m.rayleigh_estimate_m == pytest.approx(lambda0 * 20.0 / 2.0, rel=1e-12)

    def test_range_axis_follows_the_array_direction(self):
        win = ImageWindowSpec((0.0, 20.0), 0.5, 3)
        sc = Scene(
            dimension=3,
            c0=343.0,
            receivers=np.array([[-1.0, 0.0], [1.0, 0.0]]),
            source=np.array([0.0, -3.0]),
            band=FrequencyGrid(400.0, 800.0, 2),
            scatterers=(),
            window=win,
        )
        img = gaussian_image(1.0, 1.0, win)
        assert image_metrics(img, sc).range_axis == 1

    def test_off_center_peak_position(self):
        win = ImageWindowSpec((20.0, 0.0), 0.5, 3)
        vals = np.zeros((7, 7), dtype=complex)
        vals[5, 2] = 2.0
        m = image_metrics(vals, metrics_scene(win))
        assert m.peak_cell == (2, -1)
        assert m.peak_position_m == (21.0, -0.5)

    def test_shape_must_match_the_scene_window(self):
        sc = metrics_scene(ImageWindowSpec((20.0, 0.0), 0.5, 1))
        for shape in ((2, 2), (3, 4), (9,)):
            with pytest.raises(DataFormatError):
                image_metrics(np.zeros(shape, dtype=complex), sc)


class TestCorrelation:
    def test_identical_images(self):
        img = gaussian_image(1.0, 1.0)
        assert magnitude_correlation(img, img) == pytest.approx(1.0, rel=1e-14)

    def test_scale_invariant_in_magnitude(self):
        a = gaussian_image(1.0, 1.0)
        b = 3j * a
        assert magnitude_correlation(a, b) == pytest.approx(1.0, rel=1e-14)

    def test_disjoint_supports(self):
        a = np.zeros((3, 3), dtype=complex)
        b = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        b[2, 2] = 1.0
        assert magnitude_correlation(a, b) == 0.0

    def test_zero_image_correlates_to_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        g = gaussian_image(1.0, 1.0, ImageWindowSpec((0.0, 0.0), 0.5, 1))
        assert magnitude_correlation(z, g) == 0.0

    def test_grid_mismatch(self):
        a = gaussian_image(1.0, 1.0, ImageWindowSpec((20.0, 0.0), 0.5, 2))
        b = gaussian_image(1.0, 1.0, ImageWindowSpec((20.0, 0.0), 0.5, 3))
        with pytest.raises(DataFormatError):
            magnitude_correlation(a, b)

    def test_metrics_carry_the_correlation(self):
        a = gaussian_image(1.0, 1.0)
        b = gaussian_image(1.1, 0.9)
        sc = metrics_scene(GAUSSIAN_WINDOW)
        m = image_metrics(a, sc, reference=b)
        assert m.correlation == pytest.approx(magnitude_correlation(a, b), rel=1e-14)
        assert image_metrics(a, sc).correlation is None


class TestSpurious:
    def test_no_scatterers_is_degenerate(self):
        sc = replace(imaging_scene(n_receivers=5, count=3, half_extent=2),
                     scatterers=())
        true, img, report = spurious_term_image(sc)
        assert report.degenerate
        assert report.ratio == 0.0
        assert report.geometry_ok
        assert np.all(img[~np.isnan(img.real)] == 0.0)
        assert np.all(true[~np.isnan(true.real)] == 0.0)

    def test_mirror_image_and_ratio(self):
        sc = imaging_scene(n_receivers=9, count=5, half_extent=4)
        true, img, report = spurious_term_image(sc)
        assert not report.degenerate
        assert report.geometry_ok
        g0 = direct_arrivals_band(sc)
        p = array_response_band(sc)
        mirror = g0 / np.conj(g0) * np.conj(p)
        (want_mirror,) = migrate_broadband_stack(sc, mirror[:, :, None])
        assert np.allclose(img, want_mirror, rtol=1e-12)
        (want_true,) = migrate_broadband_stack(sc, p[:, :, None])
        assert np.allclose(true, want_true, rtol=1e-12)
        want_ratio = np.nanmax(np.abs(want_mirror)) / np.nanmax(np.abs(want_true))
        assert report.ratio == pytest.approx(want_ratio, rel=1e-12)
        assert 0.0 < report.ratio < 1.0


class TestExports:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        p = array_response_band(sc)
        (img,) = migrate_broadband_stack(sc, p[:, :, None])
        path = tmp_path / "image.csv"
        write_image_csv(img, sc.window, path)
        ix, iy, x, y, re, im, _ = np.loadtxt(path, delimiter=",", skiprows=1).T.reshape(7, 5, 5)
        assert np.array_equal(ix[:, 0], [-2, -1, 0, 1, 2])
        assert np.array_equal(iy[0], [-2, -1, 0, 1, 2])
        assert np.array_equal(re, img.real)
        assert np.array_equal(im, img.imag)
        pos = sc.window.cell_positions()
        assert np.array_equal(x, pos[:, :, 0])
        assert np.array_equal(y, pos[:, :, 1])

    def test_csv_header_and_order(self, tmp_path):
        win = ImageWindowSpec((0.0, 0.0), 1.0, 1)
        vals = np.arange(9, dtype=complex).reshape(3, 3)
        path = tmp_path / "image.csv"
        write_image_csv(vals, win, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ix,iy,x_m,y_m,re,im,abs"
        assert lines[1].startswith("-1,-1,")
        assert lines[2].startswith("-1,0,")
        assert len(lines) == 10

    def test_pgm_golden(self, tmp_path):
        vals = np.arange(9, dtype=float).reshape(3, 3)
        path = tmp_path / "image.pgm"
        write_image_pgm(vals.astype(complex), path)
        assert path.read_text() == (
            "P2\n3 3\n255\n"
            "64 159 255\n"
            "32 128 223\n"
            "0 96 191\n"
        )

    def test_pgm_orientation_top_row_is_max_crossrange(self, tmp_path):
        vals = np.zeros((3, 3), dtype=complex)
        vals[0, 2] = 1.0
        path = tmp_path / "image.pgm"
        write_image_pgm(vals, path)
        rows = path.read_text().splitlines()[3:]
        assert rows[0] == "255 0 0"
        assert rows[1] == "0 0 0"
        assert rows[2] == "0 0 0"

    def test_pgm_flat_nonzero_is_white(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_image_pgm(np.full((3, 3), 2.0, dtype=complex), path)
        assert path.read_text().splitlines()[3:] == ["255 255 255"] * 3

    def test_pgm_zero_image_is_black(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_image_pgm(np.zeros((3, 3), dtype=complex), path)
        assert path.read_text().splitlines()[3:] == ["0 0 0"] * 3

    def test_pgm_masked_cells_render_black(self, tmp_path):
        vals = np.full((3, 3), 5.0, dtype=complex)
        vals[1, 1] = complex(math.nan, math.nan)
        path = tmp_path / "masked.pgm"
        write_image_pgm(vals, path)
        rows = path.read_text().splitlines()[3:]
        assert rows[1] == "255 0 255"
