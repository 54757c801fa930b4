"""Migration kernels, broadband accumulation, metrics, image exports."""

import importlib.util
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ikmig import cli
from ikmig import migrate as migrate_module
from ikmig.errors import DataFormatError, NumericError
from ikmig.forward import _phase, _view, array_response_band, direct_arrivals_band
from ikmig.migrate import (
    _Workspace,
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
    preset_scene,
)
from ikmig.stochastic import intensity_data

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
            ws = _Workspace(25, 5, 1)
            d_recv, d_src, _ = _geometry(sc, cells, sc.window.spacing, ws)
            k = sc.band.omegas / sc.c0
            if dimension == 3:
                raw = _horner_kernel(d_recv, d_src, k, field[None, None, :], ws)
            else:
                raw = _apply_kernel(d_recv, d_src, float(k[0]), field[None, :])
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
        ws = _Workspace(25, 5, 2)
        raw = _horner_kernel(*_geometry(sc, cells, sc.window.spacing, ws)[:2],
                             sc.band.omegas / sc.c0, np.ascontiguousarray(stack.transpose(2, 0, 1)),
                             ws)
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

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        # With four usable CPUs whatever the host has, 81 cells are one run
        # of three blocks at one thread and four runs of one block at four;
        # 625 cells are one run of 20 blocks and four runs of five.
        monkeypatch.setattr(migrate_module, "_usable_cpus", lambda: 4)
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

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_one_receiver_one_field_bits_do_not_depend_on_the_blocks(self, dimension,
                                                                     monkeypatch):
        # With one receiver and one field, a block of one cell makes every
        # complex product of the kernel one element long, which NumPy can
        # round unlike a longer one.  289 cells are nine blocks of 32 and
        # one of one at one thread, and blocks of 16 and 17 at two.
        monkeypatch.setattr(migrate_module, "_usable_cpus", lambda: 4)
        sc = preset_scene("point")
        sc = replace(sc, dimension=dimension, receivers=sc.receivers[250:251],
                     window=ImageWindowSpec(sc.window.center, sc.window.spacing, 8))
        if dimension == 2:
            sc = replace(sc, band=FrequencyGrid(sc.band.f_min_hz, sc.band.f_max_hz, 6))
        p = array_response_band(sc)[:, :, None]
        (want,) = migrate_broadband_stack(sc, p, threads=2)
        (serial,) = migrate_broadband_stack(sc, p, threads=1)
        assert serial.tobytes() == want.tobytes()
        for cap in (1, 32):
            monkeypatch.setattr(migrate_module, "_BLOCK_CELLS", cap)
            (got,) = migrate_broadband_stack(sc, p, threads=1)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("half_extent", [2, 4, 12])
    def test_threads_split_a_window_under_the_cap(self, half_extent, monkeypatch):
        # 25, 81 and 625 cells at four threads and four usable CPUs: four
        # workers, each with one workspace (kept alive as a key of ``runs``)
        # and one contiguous run of the cells, the runs equal within one
        # cell and walked in blocks under the cap (one block per run for
        # the first two windows, five for the last).
        monkeypatch.setattr(migrate_module, "_usable_cpus", lambda: 4)
        sc = imaging_scene(n_receivers=9, count=6, half_extent=half_extent)
        n_cells = sc.window.cells_per_side ** 2
        flat = sc.window.cell_positions().reshape(n_cells, -1)
        runs = {}
        geometry = migrate_module._geometry

        def counting(scene, cells, spacing, ws):
            start = int(np.flatnonzero((flat == cells[0]).all(axis=1))[0])
            runs.setdefault(ws, []).append((start, start + cells.shape[0]))
            return geometry(scene, cells, spacing, ws)

        monkeypatch.setattr(migrate_module, "_geometry", counting)
        migrate_broadband_stack(sc, array_response_band(sc)[:, :, None], threads=4)
        assert len(runs) == 4
        spans = []
        for blocks in runs.values():
            blocks.sort()
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert max(hi - lo for lo, hi in blocks) <= migrate_module._BLOCK_CELLS
            spans.append((blocks[0][0], blocks[-1][1]))
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == n_cells
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        lengths = [hi - lo for lo, hi in spans]
        assert sum(lengths) == n_cells
        assert max(lengths) - min(lengths) <= 1

    def test_pool_never_outnumbers_the_cpus(self, monkeypatch):
        # At 10,000 threads the pool asks for no more workers than the CPUs
        # the process may use, or the cells, and maps one run per worker.
        sc = imaging_scene(n_receivers=9, count=6, half_extent=4)
        p = array_response_band(sc)
        (want,) = migrate_broadband_stack(sc, p[:, :, None])
        asked, mapped = [], []

        class Serial:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                mapped.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(migrate_module, "ThreadPoolExecutor", Serial)
        (got,) = migrate_broadband_stack(sc, p[:, :, None], threads=10_000)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert asked == [min(cpus, 81)]
        assert mapped == asked
        assert np.array_equal(got, want)
        one_cell = ImageWindowSpec((5.0, 0.0), 0.2, 0)
        migrate_broadband_stack(sc, p[:, :, None], one_cell, threads=10_000)
        assert asked[-1] == mapped[-1] == 1
        # Pinned to one CPU, four threads make one run.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        (got,) = migrate_broadband_stack(sc, p[:, :, None], threads=4)
        assert asked[-1] == mapped[-1] == 1
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("threads", [0, -1, None, 2.5, True])
    def test_a_bad_thread_count_is_refused_before_any_work(self, threads, monkeypatch):
        # 0 divided by zero, -1 reached the pool after the workspaces were
        # built, None was a TypeError and 2.5 ran.
        def forbidden(*args, **kwargs):
            raise AssertionError("built before the thread count was checked")

        for name in ("_Workspace", "_wavenumbers", "direct_arrivals_band",
                     "check_geometric_condition"):
            monkeypatch.setattr(migrate_module, name, forbidden)
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        with pytest.raises(DataFormatError, match="threads"):
            migrate_broadband_stack(sc, np.ones((3, 5, 1), dtype=complex), threads=threads)
        with pytest.raises(DataFormatError, match="threads"):
            spurious_term_image(sc, threads=threads)

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


class TestWorkspace:
    def test_each_pool_worker_builds_one_workspace(self, monkeypatch):
        # 625 cells in blocks of at most 7 at four threads, with four usable
        # CPUs whatever the host has: four runs of 156 or 157 cells, 92
        # blocks in all, share as many workspaces as the pool has workers,
        # and no two running blocks share one.
        sc = imaging_scene(n_receivers=9, count=6, half_extent=12)
        p = array_response_band(sc)
        stack = np.stack([p, np.conj(p)], axis=2)
        want = migrate_broadband_stack(sc, stack, threads=1)
        monkeypatch.setattr(migrate_module, "_BLOCK_CELLS", 7)
        monkeypatch.setattr(migrate_module, "_usable_cpus", lambda: 4)
        runs, lock = [], threading.Lock()
        kernel = migrate_module._horner_kernel

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                runs[-1]["workers"] = max_workers
                super().__init__(max_workers=max_workers)

        class Counting(migrate_module._Workspace):
            def __init__(self, *args):
                runs[-1]["built"].append(args)
                super().__init__(*args)

        def exclusive(*args):
            ws, run = args[-1], runs[-1]
            with lock:
                run["shared"] |= id(ws) in run["busy"]
                run["busy"].add(id(ws))
            try:
                return kernel(*args)
            finally:
                with lock:
                    run["busy"].discard(id(ws))

        def migrate_four_times():
            for _ in range(4):
                runs.append({"built": [], "busy": set(), "shared": False})
                runs[-1]["images"] = migrate_broadband_stack(sc, stack, threads=4)

        monkeypatch.setattr(migrate_module, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(migrate_module, "_Workspace", Counting)
        monkeypatch.setattr(migrate_module, "_horner_kernel", exclusive)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(target=migrate_four_times)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(runs) == 4
        for run in runs:
            assert all(np.array_equal(got, ref) for got, ref in zip(run["images"], want))
            assert run["workers"] == 4
            assert run["built"] == [(7, sc.n_receivers, 2)] * 4
            assert not run["shared"]

    @staticmethod
    def filled_workspace(cells, receivers, fields):
        """A workspace whose every buffer holds a sentinel, and a copy of it."""
        ws = _Workspace(cells, receivers, fields)
        for buffer in vars(ws).values():
            buffer.fill(-7.25 - 7.25j if np.iscomplexobj(buffer) else -7.25)
        return ws, {name: buffer.copy() for name, buffer in vars(ws).items()}

    @staticmethod
    def written(ws, before, used):
        """Buffers whose values changed; none may change past ``used`` entries."""
        for name, buffer in vars(ws).items():
            tail = used * (buffer.size // ws.d_recv.size)
            assert np.array_equal(buffer[tail:], before[name][tail:]), name
        return {name for name, buffer in vars(ws).items()
                if not np.array_equal(buffer, before[name])}

    def test_phase_writes_only_its_named_buffers(self):
        # A (3, 5) block in a workspace of 4 cells: the result is a view of
        # ws.z and the temporaries are ws.n, ws.prod, ws.r and ws.zb; theta
        # sits in ws.r and the amplitude in ws.amp, which stays as it was.
        ws, before = self.filled_workspace(4, 5, 2)
        rng = np.random.default_rng(9)
        theta = _view(ws.r, (3, 5))
        theta[:] = rng.uniform(0.0, 2e6, (3, 5))
        amp = _view(ws.amp, (3, 5))
        amp[:] = rng.uniform(1e-6, 1.0, (3, 5))
        before.update(r=ws.r.copy(), amp=ws.amp.copy())
        want = amp * np.exp(-1j * theta)
        got = _phase(theta, ws, amp)
        assert np.shares_memory(got, ws.z)
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        assert self.written(ws, before, 15) <= {"z", "n", "prod", "r", "zb"}

    def test_horner_kernel_keeps_the_receiver_distances(self):
        # The kernel writes every buffer of its block but ws.d_recv, which
        # still holds d_recv afterwards.
        sc = imaging_scene(n_receivers=5, count=4, half_extent=2)
        ws, _ = self.filled_workspace(8, 5, 2)
        cells = sc.window.cell_positions().reshape(-1, 2)[:6]
        d_recv, d_src, _ = _geometry(sc, cells, sc.window.spacing, ws)
        want = d_recv.copy()
        before = {name: buffer.copy() for name, buffer in vars(ws).items()}
        stack = np.ones((2, 4, 5), dtype=complex)
        _horner_kernel(d_recv, d_src, sc.band.omegas / sc.c0, stack, ws)
        assert self.written(ws, before, 30) == set(vars(ws)) - {"d_recv"}
        assert np.array_equal(_view(ws.d_recv, (6, 5)), want)

    @pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                        reason="needs the resource module")
    def test_blocks_reuse_their_pages(self):
        # Two fields on `wide3d`'s 14,641-cell window of 6 frequencies, at
        # one thread, in a fresh process.  With the workspace the call
        # faults in about 900 4-KiB pages; fresh temporaries per 32-cell
        # block faulted about 145,000.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import resource\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from ikmig.forward import array_response_band\n"
            "from ikmig.migrate import _BLOCK_CELLS, migrate_broadband_stack\n"
            "from ikmig.scene import FrequencyGrid, ImageWindowSpec, preset_scene\n"
            "sc = preset_scene('point')\n"
            "sc = replace(sc, band=FrequencyGrid(sc.band.f_min_hz, sc.band.f_max_hz, 6),\n"
            "             window=ImageWindowSpec(sc.window.center, sc.window.spacing, 60))\n"
            "p = array_response_band(sc)\n"
            "stack = np.stack([p, np.conj(p)], axis=2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "migrate_broadband_stack(sc, stack, threads=1)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, _BLOCK_CELLS, sc.n_receivers, sc.window.cells_per_side ** 2)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults, block, n, cells = map(int, proc.stdout.split())
        assert cells >= 14_641
        # Five real and two complex (block, N) buffers, the two-field
        # accumulator; then the (cells, 2) output, the two images copied
        # out of it and the cell positions.
        workspace = block * n * (5 * 8 + 2 * 16 + 2 * 16)
        outputs = cells * (2 * 2 * 16 + 3 * 8)
        assert faults < 4 * (workspace + outputs) // 4096


class TestRowBuffer:
    """From ``_ROW_BUFFER_RECEIVERS`` receivers up, a worker's NumPy ufunc
    buffer is one row long, so its broadcast passes run on the operands in
    place rather than through the buffer."""

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_the_row_buffer_changes_no_bit(self, dimension, monkeypatch):
        # 1 and 33 receivers lie below the crossover, 501 above it; each
        # image must equal the images with the rule forced off and forced
        # on, at one thread and at two, and the caller keeps its own buffer.
        monkeypatch.setattr(migrate_module, "_usable_cpus", lambda: 4)
        crossover = migrate_module._ROW_BUFFER_RECEIVERS
        base = preset_scene("point")
        for n in (1, 33, 501):
            assert (n >= crossover) == (n == 501)
            sc = replace(base, dimension=dimension,
                         receivers=linear_array((0.0, 0.0), 10e-3, n, (0.0, 1.0)),
                         window=ImageWindowSpec(base.window.center, base.window.spacing, 4))
            if dimension == 2:
                sc = replace(sc, band=FrequencyGrid(sc.band.f_min_hz, sc.band.f_max_hz, 3))
            p = array_response_band(sc)
            stack = np.stack([p, 2.0 * np.conj(p)], axis=2)
            for threads in (1, 2):
                images = {}
                for rule in (crossover, math.inf, 1):
                    monkeypatch.setattr(migrate_module, "_ROW_BUFFER_RECEIVERS", rule)
                    with np.errstate():
                        np.setbufsize(4096)
                        images[rule] = migrate_broadband_stack(sc, stack, threads=threads)
                        assert np.getbufsize() == 4096
                for got in images.values():
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in images[crossover]]

    def test_a_block_allocates_no_ufunc_buffer(self):
        # One block of two fields, 32 cells and 501 receivers (the `point`
        # preset) under a worker's NumPy state.  Its broadcast passes
        # through NumPy's default buffer allocated 8192 complex elements,
        # a peak of 134 KB; one row long, the passes allocate none, and the
        # block's own small arrays peak near 18 KB.
        sc = preset_scene("point")
        k = sc.band.omegas / sc.c0
        cells = sc.window.cell_positions().reshape(-1, sc.coords)[:32]
        p = array_response_band(sc)
        stack = np.ascontiguousarray(np.stack([p, np.conj(p)]))
        ws = _Workspace(32, sc.n_receivers, 2)

        def block():
            d_recv, d_src, _ = _geometry(sc, cells, sc.window.spacing, ws)
            return _horner_kernel(d_recv, d_src, k, stack, ws)

        with migrate_module._worker_numerics(sc.n_receivers):
            block()
            tracemalloc.start()
            try:
                block()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 32 * 1024


class TestOneStack:
    """The kernel pass of a two-field migration holds one copy of the
    fields, the (S, F, N) stack the kernels read, plus workers x one
    workspace and the output: ``cli._migrate`` (behind `experiment` and
    `migrate`) and ``spurious_term_image`` drop every other copy first."""

    # One (S, F, N) stack is 1 MiB, more than a workspace (9 cells, 60
    # KB), the output and the slack together, so a second copy, or fields
    # kept alive beside the stack, breaks the bound.  The slack holds
    # NumPy's buffers for the kernel's broadcast operands (two of 18 KB
    # here) and the pass's Python objects.
    SLACK = 128 * 1024

    def scene(self):
        return imaging_scene(n_receivers=64, count=512, half_extent=1)

    def fields(self, sc):
        rng = np.random.default_rng(23)
        shape = (sc.band.count, sc.n_receivers)
        return [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]

    def bound(self, sc, threads):
        s, f, n = 2, sc.band.count, sc.n_receivers
        cells = sc.window.cells_per_side ** 2
        workers = min(threads, migrate_module._usable_cpus(), cells)
        ws = _Workspace(min(migrate_module._BLOCK_CELLS, cells), n, s)
        workspace = sum(a.nbytes for a in vars(ws).values())
        item = np.dtype(complex).itemsize
        # The output: the (cells, S) sums and the S images.
        return s * f * n * item + workers * workspace + 2 * s * cells * item + self.SLACK

    def kernel_peak(self, monkeypatch, module, call):
        """(call(), the peak of traced memory during its one kernel pass),
        everything call() allocates traced, migrate_broadband_stack as
        ``module`` looks it up."""
        original = migrate_module.migrate_broadband_stack
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            images = original(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return images

        monkeypatch.setattr(module, "migrate_broadband_stack", traced)
        tracemalloc.start()
        try:
            result = call()
        finally:
            tracemalloc.stop()
        (peak,) = peaks
        return result, peak

    # The references run first, so what a first call imports is not traced.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_migrate_holds_one_stack(self, monkeypatch, tmp_path, threads):
        sc = self.scene()
        want = migrate_broadband_stack(sc, np.ascontiguousarray(np.stack(self.fields(sc), axis=2)))
        images, peak = self.kernel_peak(monkeypatch, cli, lambda: cli._migrate(
            sc, dict(zip(["image_a", "image_b"], self.fields(sc))), threads, str(tmp_path)))
        assert peak < self.bound(sc, threads)
        assert np.array_equal(images["image_a"], want[0])
        assert np.array_equal(images["image_b"], want[1])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spurious_term_image_holds_one_stack(self, monkeypatch, threads):
        sc = self.scene()
        g0 = direct_arrivals_band(sc)
        p = array_response_band(sc)
        stack = np.ascontiguousarray(np.stack([p, g0 / np.conj(g0) * np.conj(p)], axis=2))
        want_true, want_mirror = migrate_broadband_stack(sc, stack)
        del g0, p, stack
        (true, mirror, _), peak = self.kernel_peak(
            monkeypatch, migrate_module, lambda: spurious_term_image(sc, threads))
        assert peak < self.bound(sc, threads)
        assert np.array_equal(true, want_true)
        assert np.array_equal(mirror, want_mirror)


class TestPhase:
    """The band sum's phase factors at optical phases."""

    def test_horner_kernel_matches_a_per_frequency_sum_at_optical_phases(self):
        # `point` phases k tau reach 1.5e6 rad, 2.4e5 turns.  The sum takes
        # the wavenumbers the recurrence stands for, k_0 + j dk; the band's
        # own omega_j / c0 round differently, which moves these cells by
        # 1.5e-11 of the peak.  A reduction by one double of 2 pi moves
        # them by 4.8e-11.
        sc = preset_scene("point")
        n = sc.window.cells_per_side
        ix, iy = [n // 2, 0, n // 2, n - 1, n // 2 + 1], [n // 2, 0, 0, n // 3, n // 2]
        cells = sc.window.cell_positions()[ix, iy]
        ws = _Workspace(len(ix), sc.n_receivers, 1)
        d_recv, d_src, _ = _geometry(sc, cells, sc.window.spacing, ws)
        k = sc.band.omegas / sc.c0
        p = array_response_band(sc)
        got = _horner_kernel(d_recv, d_src, k, p[None], ws)[:, 0]
        tau = d_recv + d_src[:, None]
        dk = (k[-1] - k[0]) / (k.shape[0] - 1)
        amp = 1.0 / (16.0 * math.pi**2 * d_recv * d_src[:, None])
        want = sum(amp * np.exp(-1j * (k[0] * tau + j * (dk * tau))) @ p[j]
                   for j in range(k.shape[0]))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestOverflow:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_an_overflowing_sum_is_a_numeric_error(self, dimension):
        sc = imaging_scene(dimension, n_receivers=5, count=3, half_extent=2)
        stack = np.full((3, 5, 1), 1e308, dtype=complex)
        with pytest.raises(NumericError, match="band sum overflows at cell"):
            migrate_broadband_stack(sc, stack, threads=2)

    def test_the_error_names_the_first_cell_outside_the_collisions(self):
        # An infinite field makes every sum non-finite; with a receiver on
        # the first cell, that cell stays a NaN collision and the next one
        # is named.
        sc = imaging_scene(n_receivers=5, count=3, half_extent=2)
        infinite = np.full((3, 5, 1), np.inf, dtype=complex)
        with pytest.raises(NumericError, match=r"at cell \(-2, -2\)$"):
            migrate_broadband_stack(sc, infinite)
        first = sc.window.cell_positions()[0, 0]
        sc = replace(sc, receivers=np.vstack([first, sc.receivers[1:]]))
        with pytest.raises(NumericError, match=r"at cell \(-2, -1\)$"):
            migrate_broadband_stack(sc, infinite, threads=2)
        (img,) = migrate_broadband_stack(sc, np.ones((3, 5, 1), dtype=complex))
        assert np.isnan(img[0, 0])
        assert np.isfinite(img).sum() == img.size - 1


@pytest.mark.parametrize("dimension", [2, 3])
class TestCollisions:
    def collision_scene(self, dimension):
        # A receiver sits exactly on the window center cell.
        return Scene(
            dimension=dimension,
            c0=343.0,
            receivers=np.array([[0.0, -1.0], [5.0, 0.0], [0.0, 1.0]]),
            source=np.array([0.5, -3.0]),
            band=FrequencyGrid(400.0, 800.0, 3),
            scatterers=(),
            window=ImageWindowSpec((5.0, 0.0), 0.2, 1),
        )

    def test_receiver_collision_masks_one_cell(self, dimension):
        sc = self.collision_scene(dimension)
        img = single(sc, np.ones(3, dtype=complex), 300.0)
        nan_mask = np.isnan(img.real)
        assert nan_mask[1, 1]
        assert nan_mask.sum() == 1

    def test_source_collision_masks_one_cell(self, dimension):
        sc = self.collision_scene(dimension)
        sc = replace(sc, receivers=np.array([[0.0, -1.0], [0.0, 1.0]]),
                     source=np.array([5.0, 0.2]))
        img = single(sc, np.ones(2, dtype=complex), 300.0)
        nan_mask = np.isnan(img.real)
        assert nan_mask[1, 2]
        assert nan_mask.sum() == 1

    def test_metrics_skip_masked_cells(self, dimension):
        sc = self.collision_scene(dimension)
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

    def test_one_receiver_has_no_rayleigh_estimate(self):
        # One receiver spans no aperture, as one frequency spans no bandwidth.
        win = ImageWindowSpec((20.0, 0.0), 0.5, 3)
        sc = replace(metrics_scene(win), receivers=np.array([[0.0, 0.0]]))
        m = image_metrics(gaussian_image(1.0, 1.0, win), sc)
        assert m.rayleigh_estimate_m == math.inf

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
