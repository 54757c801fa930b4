"""Random-source illumination and power-spectrum data synthesis.

The source is a stationary mean-zero Gaussian process with a Gaussian
power spectrum centered on the band.  Frequency samples of its transform
are independent complex Gaussians whose second moment is 2 pi times the
power spectrum, so power-spectrum data can be synthesized directly per
frequency without time-domain simulation.  A time-domain oracle is kept
for validating that empirical autocorrelation spectra converge to their
ensemble limit as the acquisition window grows; it is meant for
scaled-down (acoustic-like) parameters only.

Every random number comes from a counter-based Philox substream keyed
by (seed, tag, a, b), so a sample depends only on its seed and indices,
never on the order in which samples are evaluated.  Each call re-keys
one generator per substream rather than building a generator for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NumericError
from .forward import IntensityData, total_field, total_field_band
from .scene import FrequencyGrid, Scene

__all__ = [
    "PowerSpectrum",
    "StochasticDraw",
    "sample_illumination",
    "sample_noise",
    "clean_power_data",
    "noisy_power_data",
    "time_domain_autocorr_oracle",
]

_TAG_ILLUMINATION = 1
_TAG_NOISE = 2
_TAG_ORACLE = 3

# Spectrum at the band edges, relative to its peak t_c.
_EDGE_ATTENUATION = 1e-3


def _check_substreams(seed: int, streams: tuple[int, ...] = ()) -> None:
    """Reject a seed or a substream grid that the key cannot address."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if not all(0 <= n <= 2**28 for n in streams):
        raise ValueError("substream index out of range")


def _complex_normals(seed: int, tag: int, streams: tuple[int, ...] = (), pairs: int = 1) -> np.ndarray:
    """Complex samples z0 + i z1 from standard normal pairs, per substream.

    ``streams`` is the shape of the substream grid: () is the single
    substream (0, 0), (A,) the substreams (a, 0) and (A, B) the
    substreams (a, b).  Substream (tag, a, b) is the Philox stream with
    key [seed, tag<<56 | a<<28 | b] and counter 0, and it draws ``pairs``
    pairs of normals.  Returns shape ``streams + (pairs,)``.

    One generator is re-keyed per substream, with a zero counter and an
    empty buffer, so it draws exactly what a fresh
    ``Generator(Philox(key=...))`` would: results do not depend on the
    order in which substreams are evaluated.
    """
    _check_substreams(seed, streams)
    out = np.empty(streams + (pairs, 2))
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    key = [int(seed), 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    a_count, b_count = streams + (1,) * (2 - len(streams))
    rows = out.reshape(-1, pairs, 2)
    for (a, b), row in zip(product(range(a_count), range(b_count)), rows):
        key[1] = (tag << 56) | (a << 28) | b
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out.view(complex)[..., 0]


@dataclass(frozen=True)
class PowerSpectrum:
    """Gaussian power spectrum t_c * exp(-(omega-omega0)^2 t_c^2 / 4 pi)."""

    omega0: float
    t_c: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError("omega0 must be positive and finite")
        if not (math.isfinite(self.t_c) and self.t_c > 0.0):
            raise ValueError("t_c must be positive and finite")

    def value(self, omega):
        omega = np.asarray(omega, dtype=float)
        arg = (omega - self.omega0) * self.t_c
        return self.t_c * np.exp(-arg * arg / (4.0 * math.pi))

    def autocorrelation(self, tau):
        """Inverse transform: exp(-i omega0 tau) exp(-pi tau^2 / t_c^2)."""
        tau = np.asarray(tau, dtype=float)
        return np.exp(-1j * self.omega0 * tau - math.pi * (tau / self.t_c) ** 2)

    @classmethod
    def for_band(cls, band: FrequencyGrid) -> "PowerSpectrum":
        """Spectrum centered on the band, decayed to ``_EDGE_ATTENUATION * t_c``
        at both band edges."""
        omegas = band.omegas
        omega0 = 0.5 * (omegas[0] + omegas[-1])
        half = 0.5 * (omegas[-1] - omegas[0])
        if half <= 0.0:
            raise ValueError("band must span a positive width")
        t_c = math.sqrt(4.0 * math.pi * math.log(1.0 / _EDGE_ATTENUATION)) / half
        return cls(omega0, t_c)


@dataclass(frozen=True)
class StochasticDraw:
    """One seeded realization of the source transform on a frequency grid."""

    seed: int
    spectrum: PowerSpectrum
    omegas: np.ndarray
    fhat: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        fhat = np.asarray(self.fhat, dtype=complex)
        if fhat.shape != omegas.shape:
            raise ValueError("one sample per grid frequency required")
        omegas.setflags(write=False)
        fhat.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "fhat", fhat)


def sample_illumination(spectrum: PowerSpectrum, grid: FrequencyGrid, seed: int) -> StochasticDraw:
    """Independent complex Gaussian samples with E|fhat|^2 = 2 pi Fhat.

    Each frequency draws from its own counter-based substream, so a
    sample depends only on (seed, frequency index).
    """
    z = _complex_normals(seed, _TAG_ILLUMINATION, (grid.count,))[:, 0]
    omegas = grid.omegas
    fhat = np.sqrt(math.pi * spectrum.value(omegas)) * z
    return StochasticDraw(seed, spectrum, omegas, fhat)


def sample_noise(spectrum: PowerSpectrum, grid: FrequencyGrid, n_receivers: int, seed: int) -> np.ndarray:
    """Unscaled noise transforms, one substream per (receiver, frequency).

    Returns an (N, F) array of independent complex Gaussians with
    E|eta|^2 = 2 pi Fhat, i.e. the same spectral shape as the source.
    """
    z = _complex_normals(seed, _TAG_NOISE, (n_receivers, grid.count))[..., 0]
    return np.sqrt(math.pi * spectrum.value(grid.omegas)) * z


def _check_draw(scene: Scene, draw: StochasticDraw) -> None:
    if draw.omegas.shape != scene.band.omegas.shape or not np.array_equal(
        draw.omegas, scene.band.omegas
    ):
        raise ValueError("draw was sampled on a different frequency grid")


def _signal_rows(scene: Scene, draw: StochasticDraw) -> np.ndarray:
    """(F, N) illuminated total field (g0 + p) fhat at the receivers."""
    return total_field_band(scene) * draw.fhat[:, None]


def _power_data(draw: StochasticDraw, rows: np.ndarray) -> IntensityData:
    illumination = 2.0 * math.pi * draw.spectrum.value(draw.omegas)
    return IntensityData(draw.omegas, np.abs(rows) ** 2, illumination)


def clean_power_data(scene: Scene, draw: StochasticDraw) -> IntensityData:
    """Noise-free power-spectrum rows |(g0 + p) fhat|^2.

    The illumination record stores the ensemble value 2 pi Fhat, not the
    realized |fhat|^2: that is all a receiver could know.
    """
    _check_draw(scene, draw)
    return _power_data(draw, _signal_rows(scene, draw))


def noisy_power_data(
    scene: Scene, draw: StochasticDraw, noise_fraction: float, seed: int
) -> IntensityData:
    """Power-spectrum rows with additive measurement noise.

    The noise keeps the source spectral shape and is rescaled per
    receiver so that its realized total power is exactly
    ``noise_fraction`` times the realized signal power there.
    """
    if not (math.isfinite(noise_fraction) and noise_fraction >= 0.0):
        raise ValueError("noise_fraction must be a nonnegative number")
    _check_draw(scene, draw)
    signal = _signal_rows(scene, draw)
    raw = sample_noise(draw.spectrum, scene.band, scene.n_receivers, seed)
    sig_power = (np.abs(signal) ** 2).sum(axis=0)
    raw_power = (np.abs(raw) ** 2).sum(axis=1)
    bad = np.nonzero(sig_power == 0.0)[0]
    if bad.size:
        raise NumericError(f"zero signal power at receiver {bad[0]}: cannot scale noise")
    scale = np.sqrt(noise_fraction * sig_power / raw_power)
    rows = signal + (scale[:, None] * raw).T
    return _power_data(draw, rows)


# ---------------------------------------------------------------------------
# time-domain validation oracle
# ---------------------------------------------------------------------------


def time_domain_autocorr_oracle(
    scene: Scene,
    spectrum: PowerSpectrum,
    T: float,
    dt: float,
    seed: int,
    lag_factor: float = 4.0,
) -> np.ndarray:
    """Spectrum of the empirical trace autocorrelation, per receiver.

    Synthesizes receiver traces of duration 2T by circular inverse
    transform of (g0 + p) fhat on a fine grid, autocorrelates them, and
    transforms lags |tau| <= lag_factor * t_c back to the scene band
    frequencies under a triangular lag window.  Ensemble limit:
    Fhat |g0 + p|^2.  Intended for acoustic-scale scenes; cost grows
    linearly with T / dt.

    Returns an (N, F) complex array on the scene band.
    """
    _check_substreams(seed)
    omega_max = scene.band.omegas[-1]
    if not dt * omega_max <= math.pi:
        raise ValueError("time step undersamples the band: aliasing")
    if not T >= 10.0 * spectrum.t_c:
        raise ValueError("acquisition time too short against the correlation time")
    period = 2.0 * T
    m = int(round(period / dt))
    period = m * dt
    k = np.arange(1, m // 2)
    omega_k = 2.0 * math.pi * k / period
    fhat_sq = spectrum.value(omega_k)
    active = np.nonzero(fhat_sq > 1e-12 * spectrum.t_c)[0]
    if active.size == 0:
        raise ValueError("grid resolves no energy of the spectrum")
    k = k[active]
    omega_k = omega_k[active]

    z = _complex_normals(seed, _TAG_ORACLE, pairs=k.shape[0])
    coeff = np.sqrt(fhat_sq[active] / (2.0 * period)) * z

    transfer = total_field(scene, omega_k).T
    spec = np.zeros((scene.n_receivers, m), dtype=complex)
    spec[:, k] = transfer * coeff[None, :]
    traces = np.fft.fft(spec, axis=1)

    # circular autocorrelation: psi_m = (1/M) sum_j conj(u_j) u_{j+m}
    psi = np.fft.ifft(np.abs(np.fft.fft(traces, axis=1)) ** 2, axis=1) / m

    lag_max = lag_factor * spectrum.t_c
    lags = min(int(lag_max / dt), m // 2 - 1)
    idx = np.arange(-lags, lags + 1)
    window = 1.0 - np.abs(idx) / (lags + 1.0)
    tau = idx * dt
    kernel = window[:, None] * np.exp(1j * np.outer(tau, scene.band.omegas))
    return dt * (psi[:, idx % m] @ kernel)
