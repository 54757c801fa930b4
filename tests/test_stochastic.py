"""Random illumination, measurement noise, and the time-domain oracle."""

import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikmig.errors import NumericError
from ikmig.forward import total_field_band
from ikmig.scene import FrequencyGrid, ImageWindowSpec, PointScatterer, Scene, preset_scene
from ikmig.stochastic import (
    _KEY_BLOCK,
    PowerSpectrum,
    _complex_normals,
    _philox_words,
    _ziggurat_tables,
    clean_power_data,
    intensity_data,
    noisy_power_data,
    sample_illumination,
    sample_noise,
)

from conftest import peak_growth
from ref_autocorr import autocorrelation, time_domain_autocorr_oracle
from ref_substreams import reference_complex_normals

BAND = FrequencyGrid(430.0, 750.0, 3)


def acoustic_scene(scatterers=None, receivers=None, band=BAND):
    if scatterers is None:
        scatterers = (PointScatterer((2.0, 0.0), 1e-3),)
    if receivers is None:
        receivers = np.array([[0.0, -0.3], [0.0, -0.1], [0.0, 0.1], [0.0, 0.3]])
    return Scene(
        dimension=3,
        c0=343.0,
        receivers=receivers,
        source=np.array([0.4, -0.8]),
        band=band,
        scatterers=scatterers,
        window=ImageWindowSpec((2.0, 0.0), 0.05, 2),
    )


class TestPowerSpectrum:
    def test_peak_and_symmetry(self):
        ps = PowerSpectrum(1000.0, 0.01)
        assert ps.value(1000.0) == pytest.approx(0.01, rel=1e-15)
        assert ps.value(1300.0) == pytest.approx(ps.value(700.0), rel=1e-13)
        assert ps.value(1300.0) < ps.value(1000.0)

    def test_for_band_edge_attenuation(self):
        ps = PowerSpectrum.for_band(BAND)
        assert ps.omega0 == pytest.approx(2 * math.pi * 590.0, rel=1e-15)
        for edge in (BAND.omegas[0], BAND.omegas[-1]):
            assert ps.value(edge) == pytest.approx(1e-3 * ps.t_c, rel=1e-12)

    def test_autocorrelation_closed_form(self):
        ps = PowerSpectrum(2000.0, 0.02)
        tau = 0.013
        want = np.exp(-1j * 2000.0 * tau - math.pi * (tau / 0.02) ** 2)
        assert autocorrelation(ps, tau) == pytest.approx(want, rel=1e-13)
        assert autocorrelation(ps, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_autocorrelation_hermitian(self):
        ps = PowerSpectrum(2000.0, 0.02)
        for tau in (0.001, 0.005, 0.03):
            assert autocorrelation(ps, -tau) == pytest.approx(
                np.conj(autocorrelation(ps, tau)), rel=1e-13)

    def test_autocorrelation_inverts_the_spectrum(self):
        # F(tau) must equal the inverse transform of Fhat, checked by
        # quadrature over a grid wide enough to hold all the energy.
        ps = PowerSpectrum(3000.0, 0.004)
        sigma = math.sqrt(2 * math.pi) / ps.t_c
        omega = np.linspace(3000.0 - 8 * sigma, 3000.0 + 8 * sigma, 20001)
        fhat = ps.value(omega)
        for tau in (0.0, 0.001, 0.003, -0.002):
            integrand = fhat * np.exp(-1j * omega * tau)
            got = np.trapezoid(integrand, omega) / (2 * math.pi)
            assert got == pytest.approx(autocorrelation(ps, tau), rel=1e-7, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSpectrum(0.0, 0.01)
        with pytest.raises(ValueError):
            PowerSpectrum(1000.0, -0.01)
        with pytest.raises(ValueError):
            PowerSpectrum.for_band(FrequencyGrid(500.0, 500.0, 1))


class TestIllumination:
    def test_deterministic_per_seed(self):
        ps = PowerSpectrum.for_band(BAND)
        a = sample_illumination(ps, BAND, 42)
        b = sample_illumination(ps, BAND, 42)
        c = sample_illumination(ps, BAND, 43)
        assert a.shape == (BAND.count,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_second_moment_is_the_spectrum(self):
        # One draw per frequency over a very wide grid: the sample mean of
        # |fhat|^2 / (2 pi Fhat) concentrates at 1.
        grid = FrequencyGrid(100.0, 200.0, 100000)
        ps = PowerSpectrum.for_band(grid)
        fhat = sample_illumination(ps, grid, 7)
        ratio = np.abs(fhat) ** 2 / (2 * math.pi * ps.value(grid.omegas))
        assert 0.99 <= ratio.mean() <= 1.01

    def test_seeds_are_uncorrelated(self):
        # Normalize out the common spectral envelope before correlating.
        grid = FrequencyGrid(100.0, 200.0, 100000)
        ps = PowerSpectrum.for_band(grid)
        envelope = 2 * math.pi * ps.value(grid.omegas)
        a = np.abs(sample_illumination(ps, grid, 7)) ** 2 / envelope
        b = np.abs(sample_illumination(ps, grid, 8)) ** 2 / envelope
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def fresh_substream(seed, tag, a=0, b=0):
    """Generator and bit generator for one substream, built from scratch."""
    key = np.array([seed, (tag << 56) | (a << 28) | b], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key)
    return np.random.Generator(bit_gen), bit_gen


class TestSubstreams:
    """The samplers draw the documented Philox streams, bit for bit."""

    SEEDS = (0, 12345, 2**64 - 1)
    N = 2000

    def test_noise_matches_fresh_generators(self):
        # 2000 x 3 substreams of two normals each: enough that some
        # normals take the ziggurat's slow path and draw extra words, so
        # state leaking from one substream into the next would show.
        ps = PowerSpectrum.for_band(BAND)
        scale = np.sqrt(math.pi * ps.value(BAND.omegas))
        for seed in self.SEEDS:
            want = np.empty((self.N, BAND.count), dtype=complex)
            slow = 0
            for r in range(self.N):
                for i in range(BAND.count):
                    gen, bit_gen = fresh_substream(seed, 2, r, i)
                    z = gen.standard_normal(2)
                    want[r, i] = scale[i] * complex(z[0], z[1])
                    state = bit_gen.state
                    slow += (state["buffer_pos"], state["state"]["counter"][0]) != (2, 1)
            assert slow > 0
            assert np.array_equal(sample_noise(ps, BAND, self.N, seed), want)

    def test_illumination_matches_fresh_generators(self):
        grid = FrequencyGrid(100.0, 200.0, 3000)
        ps = PowerSpectrum.for_band(grid)
        scale = np.sqrt(math.pi * ps.value(grid.omegas))
        for seed in self.SEEDS:
            want = np.empty(grid.count, dtype=complex)
            for i in range(grid.count):
                z = fresh_substream(seed, 1, i)[0].standard_normal(2)
                want[i] = scale[i] * complex(z[0], z[1])
            assert np.array_equal(sample_illumination(ps, grid, seed), want)

    def test_noise_rows_are_a_prefix(self):
        ps = PowerSpectrum.for_band(BAND)
        for seed in self.SEEDS:
            short = sample_noise(ps, BAND, 7, seed)
            assert np.array_equal(sample_noise(ps, BAND, 7 + 5, seed)[:7], short)

    def test_range_is_checked_before_any_work(self):
        # Each of these would otherwise allocate gigabytes or draw 2**28
        # substreams before the out-of-range index is reached.
        ps = PowerSpectrum.for_band(BAND)
        with pytest.raises(ValueError, match="substream index"):
            sample_noise(ps, BAND, 2**28 + 1, 0)
        with pytest.raises(ValueError, match="substream index"):
            sample_noise(ps, FrequencyGrid(100.0, 200.0, 2**28 + 1), 1, 0)
        with pytest.raises(ValueError, match="substream index"):
            sample_illumination(ps, FrequencyGrid(100.0, 200.0, 2**28 + 1), 0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                sample_noise(ps, BAND, 2**28, seed)
            with pytest.raises(ValueError, match="seed"):
                sample_illumination(ps, BAND, seed)
            with pytest.raises(ValueError, match="seed"):
                time_domain_autocorr_oracle(acoustic_scene(), ps, 0.5, 1.0 / 1500.0, seed)


def noisy_pool():
    """The benchmark's pool of noisy_ingest seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NOISY_POOL


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def grids(draw):
    """Substream grids (A,) within 2 keys, and (A, B) within B keys, of
    the end of the first or second key block."""
    edge = draw(st.sampled_from((_KEY_BLOCK, 2 * _KEY_BLOCK)))
    if draw(st.booleans()):
        return (edge + draw(st.integers(-2, 2)),)
    b = draw(st.integers(1, 100))
    return (edge // b + draw(st.integers(-1, 1)), b)


class TestAgainstTheLoop:
    """The vectorized draws equal one generator per substream, bit for bit."""

    def test_every_noisy_ingest_seed_on_the_stochastic_grid(self):
        scene = preset_scene("stochastic")
        streams = (scene.n_receivers, scene.band.count)
        for seed in noisy_pool():
            want = reference_complex_normals(seed, 2, streams)
            assert same_bits(_complex_normals(seed, 2, streams), want), seed

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.sampled_from((1, 2)), grids())
    def test_any_seed_and_grid_across_the_block_edge(self, seed, tag, streams):
        want = reference_complex_normals(seed, tag, streams)
        assert same_bits(_complex_normals(seed, tag, streams), want)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_philox_words_are_numpys_first_block(self, seed, keys):
        got = np.stack(_philox_words(seed, np.array(keys, dtype=np.uint64)), axis=1)
        want = [np.random.Philox(key=np.array([seed, key], dtype=np.uint64)).random_raw(2)
                for key in keys]
        assert np.array_equal(got, want)


class TestSeedType:
    def test_a_non_integer_seed_is_rejected_before_any_work(self):
        # With 2**28 receivers a draw would allocate gigabytes first.
        ps = PowerSpectrum.for_band(BAND)
        for seed in (5.7, 5.0, np.float64(5.0), True, np.True_, "5", None):
            with pytest.raises(TypeError, match="integer"):
                sample_illumination(ps, BAND, seed)
            with pytest.raises(TypeError, match="integer"):
                sample_noise(ps, BAND, 2**28, seed)

    def test_numpy_integers_are_seeds(self):
        ps = PowerSpectrum.for_band(BAND)
        want = sample_noise(ps, BAND, 3, 5)
        for seed in (np.int64(5), np.uint64(5), np.uint8(5)):
            assert same_bits(sample_noise(ps, BAND, 3, seed), want)


class TestZigguratTables:
    """The derived ziggurat tables: wi is the installed NumPy's wi_double
    and ki a lower bound on its ki_double, checked entry by entry against
    ``standard_normal``."""

    # sha256 of the little-endian bytes of NumPy's wi_double and
    # ki_double, as this package's seeded outputs were recorded with.
    WI_SHA256 = "33c6472209e1d09ea3548f0291e5e1ad67fb4f1d0305e9f1086689584b7bb7fa"
    KI_SHA256 = "565295797825931547a1036f5b012a247be54abbe077c39fe06c8ed1e9d0a5a9"

    def setup_method(self):
        self.bit_gen = np.random.Philox(0)
        self.gen = np.random.Generator(self.bit_gen)

    def draw(self, word):
        """One normal drawn from the Philox word ``word``, and whether the
        ziggurat accepted it on that word alone."""
        self.bit_gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [word, 0, 0, 0],
            "buffer_pos": 0,
            "has_uint32": 0,
            "uinteger": 0,
        }
        x = self.gen.standard_normal()
        state = self.bit_gen.state
        # A rejected index-0 draw takes the rest of the buffer and then a
        # new block, which leaves buffer_pos at 1 but moves the counter.
        return x, state["buffer_pos"] == 1 and not state["state"]["counter"].any()

    def test_wi_is_numpys_wi_double(self):
        # Word bits: idx in 0-7, the sign in 8, rabs from 9; rabs = 1
        # draws wi[idx] itself, and the wedge test of an index whose
        # ki is 0 returns that same draw.
        got = [self.draw(1 << 9 | idx)[0] for idx in range(256)]
        wi, _ = _ziggurat_tables()
        assert same_bits(np.array(got), wi)
        assert hashlib.sha256(wi.astype("<f8").tobytes()).hexdigest() == self.WI_SHA256

    def test_ki_bounds_numpys_ki_double(self):
        # A draw is accepted on its word exactly when rabs < ki[idx], so
        # bisection over rabs finds ki[idx] as the smallest rejected rabs.
        got = []
        for idx in range(256):
            lo, hi = 0, 2**52
            while lo < hi:
                mid = (lo + hi) // 2
                if self.draw(mid << 9 | idx)[1]:
                    lo = mid + 1
                else:
                    hi = mid
            got.append(lo)
        assert hashlib.sha256(np.array(got, dtype="<u8").tobytes()).hexdigest() == self.KI_SHA256
        _, ki = _ziggurat_tables()
        gap = np.array(got) - ki.astype(np.int64)
        assert gap.min() >= 0 and gap.max() <= 3
        assert got[1] == ki[1] == 0

    def test_only_a_draw_derives_the_tables(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import sys\n"
            "from ikmig.cli import main\n"
            "from ikmig.stochastic import _ziggurat_tables\n"
            "out = sys.argv[1]\n"
            "assert main(['simulate', '--scene', 'preset:point', '--out', out + '/d']) == 0\n"
            "print(_ziggurat_tables.cache_info().currsize)\n"
            "assert main(['simulate', '--scene', 'preset:point', '--out', out + '/s',\n"
            "             '--stochastic', '--seed', '1']) == 0\n"
            "print(_ziggurat_tables.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class TestCleanData:
    def test_rows_are_the_illuminated_power(self):
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        fhat = sample_illumination(ps, BAND, 3)
        data = clean_power_data(sc, fhat)
        want = np.abs(total_field_band(sc) * fhat[:, None]) ** 2
        assert np.allclose(data.values, want, rtol=1e-14)
        assert np.allclose(data.illumination,
                           2 * math.pi * ps.value(BAND.omegas), rtol=1e-15)

    def test_factorizes_over_the_deterministic_rows(self):
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        fhat = sample_illumination(ps, BAND, 4)
        got = clean_power_data(sc, fhat).values
        base = intensity_data(sc).values
        assert np.allclose(got, np.abs(fhat[:, None]) ** 2 * base, rtol=1e-13)

    def test_zero_draw_gives_zero_rows(self):
        sc = acoustic_scene()
        data = clean_power_data(sc, np.zeros(3, dtype=complex))
        assert np.all(data.values == 0.0)
        assert np.all(data.illumination > 0.0)

    def test_grid_mismatch(self):
        # A 4-sample draw on the 3-frequency scene, and a length-1 draw,
        # which would otherwise broadcast over the band.
        sc = acoustic_scene()
        other = FrequencyGrid(430.0, 750.0, 4)
        longer = sample_illumination(PowerSpectrum.for_band(other), other, 0)
        for fhat in (longer, np.ones(1, dtype=complex)):
            with pytest.raises(ValueError, match="per band frequency"):
                clean_power_data(sc, fhat)
            with pytest.raises(ValueError, match="per band frequency"):
                noisy_power_data(sc, fhat, 0.1, 0)

    def test_ensemble_mean_reaches_the_record(self):
        # Averaged over draws, the rows converge to illumination * |g0+p|^2,
        # the product recovery divides by.  Margin measured at 2.3%.
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        target = (2 * math.pi * ps.value(BAND.omegas)[:, None]
                  * np.abs(total_field_band(sc)) ** 2)
        acc = np.zeros_like(target)
        n = 1000
        for seed in range(n):
            acc += clean_power_data(sc, sample_illumination(ps, BAND, seed)).values
        assert np.max(np.abs(acc / n / target - 1.0)) < 0.05


class TestNoise:
    def test_shape_and_determinism(self):
        ps = PowerSpectrum.for_band(BAND)
        a = sample_noise(ps, BAND, 5, 9)
        b = sample_noise(ps, BAND, 5, 9)
        c = sample_noise(ps, BAND, 5, 10)
        assert a.shape == (5, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_receiver_streams_differ(self):
        ps = PowerSpectrum.for_band(BAND)
        a = sample_noise(ps, BAND, 3, 9)
        assert not np.array_equal(a[0], a[1])

    def test_spectral_shape(self):
        ps = PowerSpectrum.for_band(BAND)
        raw = sample_noise(ps, BAND, 2000, 5)
        ratio = np.abs(raw) ** 2 / (2 * math.pi * ps.value(BAND.omegas))[None, :]
        means = ratio.mean(axis=0)
        assert np.all((0.95 <= means) & (means <= 1.05))

    def test_zero_fraction_is_the_clean_data(self):
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        fhat = sample_illumination(ps, BAND, 11)
        clean = clean_power_data(sc, fhat)
        noisy = noisy_power_data(sc, fhat, 0.0, 99)
        assert np.array_equal(noisy.values, clean.values)
        assert np.array_equal(noisy.illumination, clean.illumination)

    def test_realized_power_ratio_is_exact(self):
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        fhat = sample_illumination(ps, BAND, 11)
        fraction, noise_seed = 0.1, 77
        noisy = noisy_power_data(sc, fhat, fraction, noise_seed)
        signal = total_field_band(sc) * fhat[:, None]
        raw = sample_noise(ps, BAND, sc.n_receivers, noise_seed)
        scale = np.sqrt(fraction * (np.abs(signal) ** 2).sum(axis=0)
                        / (np.abs(raw) ** 2).sum(axis=1))
        added = (scale[:, None] * raw).T
        assert np.array_equal(noisy.values, np.abs(signal + added) ** 2)
        for r in range(sc.n_receivers):
            realized = (np.abs(added[:, r]) ** 2).sum() / (np.abs(signal[:, r]) ** 2).sum()
            assert realized == pytest.approx(fraction, rel=1e-12)

    def test_fraction_validation(self):
        sc = acoustic_scene()
        ps = PowerSpectrum.for_band(BAND)
        fhat = sample_illumination(ps, BAND, 11)
        with pytest.raises(ValueError):
            noisy_power_data(sc, fhat, -0.1, 0)
        with pytest.raises(ValueError):
            noisy_power_data(sc, fhat, math.nan, 0)

    def test_zero_signal_cannot_be_scaled(self):
        sc = acoustic_scene()
        with pytest.raises(NumericError, match="zero signal power at receiver 0"):
            noisy_power_data(sc, np.zeros(3, dtype=complex), 0.1, 0)

    @pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                        reason="needs the resource module")
    def test_noisy_synthesis_and_recovery_hold_little_more_than_their_rows(self):
        # The stochastic preset widened to 400 frequencies and 1001
        # receivers, where one complex (F, N) array is 6.1 MiB.  Noisy
        # synthesis, then recovery, raised the peak RSS of a fresh process
        # by 19.4-19.6 MiB working in place, and by 34.3-34.4 MiB with
        # fresh (F, N) temporaries for every step (five runs each).
        setup = ("from dataclasses import replace\n"
                 "from ikmig.recover import recover_band\n"
                 "from ikmig.scene import FrequencyGrid, linear_array, preset_scene\n"
                 "from ikmig.stochastic import PowerSpectrum, noisy_power_data, "
                 "sample_illumination\n"
                 "base = preset_scene('stochastic')\n"
                 "scene = replace(base, band=FrequencyGrid(base.band.f_min_hz, "
                 "base.band.f_max_hz, 400),\n"
                 "                receivers=linear_array((0.0, 0.0), 10e-3, 1001, (0.0, 1.0)))\n"
                 "fhat = sample_illumination(PowerSpectrum.for_band(scene.band), scene.band, 3)\n")
        work = ("data = noisy_power_data(scene, fhat, 0.1, 7)\n"
                "ptilde = recover_band(scene, data)\n"
                "print('x'.join(map(str, ptilde.shape)))")
        (shape,), grown = peak_growth(setup, work)
        assert shape == "400x1001"
        assert grown < 24 * 2**20


class TestAutocorrOracle:
    BAND33 = FrequencyGrid(430.0, 750.0, 33)
    DT = 1.0 / 1500.0

    def solo_scene(self):
        return acoustic_scene(scatterers=(), receivers=np.array([[0.0, 0.0]]),
                              band=self.BAND33)

    def test_preconditions(self):
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        with pytest.raises(ValueError, match="aliasing"):
            time_domain_autocorr_oracle(sc, ps, 0.5, 1.0 / 1400.0, 0)
        with pytest.raises(ValueError, match="too short"):
            time_domain_autocorr_oracle(sc, ps, 9.0 * ps.t_c, self.DT, 0)

    def test_spectrum_outside_the_grid(self):
        sc = self.solo_scene()
        ps = PowerSpectrum(2 * math.pi * 50000.0, 0.01)
        with pytest.raises(ValueError, match="no energy"):
            time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 0)

    def test_deterministic_per_seed(self):
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        a = time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 3)
        b = time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 3)
        c = time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (1, 33)

    def test_a_non_integer_seed_is_rejected_before_any_work(self):
        # The time step undersamples the band, which is reported next, so a
        # TypeError shows the seed is checked first.
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        for seed in (5.7, 5.0, np.float64(5.0), True, np.True_, "5", None):
            with pytest.raises(TypeError, match="integer"):
                time_domain_autocorr_oracle(sc, ps, 0.5, 1.0 / 1400.0, seed)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 2**64)

    def test_numpy_integers_are_seeds(self):
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        want = time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, 5)
        for seed in (np.int64(5), np.uint64(5)):
            assert np.array_equal(time_domain_autocorr_oracle(sc, ps, 0.5, self.DT, seed), want)

    def test_estimates_are_nearly_real(self):
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        est = time_domain_autocorr_oracle(sc, ps, 1.0, self.DT, 0)
        assert np.max(np.abs(est.imag)) < 0.2 * np.max(np.abs(est.real))

    def test_longer_records_converge_to_the_ensemble_limit(self):
        # Empirical-autocorrelation spectra drift toward Fhat |g0 + p|^2 as
        # the record grows; the seed-averaged misfit must fall monotonically.
        sc = self.solo_scene()
        ps = PowerSpectrum.for_band(self.BAND33)
        target = (ps.value(self.BAND33.omegas)[None, :]
                  * np.abs(total_field_band(sc).T) ** 2)
        tnorm = np.linalg.norm(target)
        rms = []
        for T in (0.5, 1.0, 2.0):
            devs = [
                np.linalg.norm(
                    time_domain_autocorr_oracle(sc, ps, T, self.DT, seed).real
                    - target) / tnorm
                for seed in range(5)
            ]
            rms.append(float(np.mean(devs)))
        assert rms[0] > rms[1] > rms[2]
        assert rms[2] < 0.15
