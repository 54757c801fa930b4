"""Power data synthesis, for deterministic and random-source illumination.

The array records |(g0 + p) fhat|^2 per frequency and receiver, plus noise
if any.  Every power row comes from one synthesis path (``_power_data``):
deterministic data (``intensity_data``) are its fhat = 1 case under unit
illumination, random-source data (``clean_power_data``) take a draw fhat,
and noisy data (``noisy_power_data``) add noise scaled per receiver.  The
fields come from ``ikmig.forward``.

The random source is a stationary mean-zero Gaussian process with a Gaussian
power spectrum centered on the band.  Frequency samples of its transform
are independent complex Gaussians whose second moment is 2 pi times the
power spectrum, so power-spectrum data can be synthesized directly per
frequency without time-domain simulation.  The tests check this shortcut
against a time-domain simulation (``tests/ref_autocorr.py``), whose
empirical autocorrelation spectra converge to the ensemble limit as the
acquisition window grows.

A draw is the plain (F,) array fhat on the scene's band.  The power data
carry no band or spectrum of their own: they take the spectrum from the
scene's band (``PowerSpectrum.for_band``).

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
from .forward import IntensityData, _finite_rows, total_field_band
from .scene import FrequencyGrid, Scene

__all__ = [
    "PowerSpectrum",
    "intensity_data",
    "sample_illumination",
    "sample_noise",
    "clean_power_data",
    "noisy_power_data",
]

_TAG_ILLUMINATION = 1
_TAG_NOISE = 2

# Spectrum at the band edges, relative to its peak t_c.
_EDGE_ATTENUATION = 1e-3


def _check_substreams(seed: int, streams: tuple[int, ...]) -> None:
    """Reject a seed or a substream grid that the key cannot address."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if not all(0 <= n <= 2**28 for n in streams):
        raise ValueError("substream index out of range")


def _complex_normals(seed: int, tag: int, streams: tuple[int, ...]) -> np.ndarray:
    """Complex samples z0 + i z1 from a standard normal pair, per substream.

    ``streams`` is the shape of the substream grid: (A,) the substreams
    (a, 0) and (A, B) the substreams (a, b).  Substream (tag, a, b) is the
    Philox stream with key [seed, tag<<56 | a<<28 | b] and counter 0, and
    it draws one pair of normals.  Returns shape ``streams``.

    One generator is re-keyed per substream, with a zero counter and an
    empty buffer, so it draws exactly what a fresh
    ``Generator(Philox(key=...))`` would: results do not depend on the
    order in which substreams are evaluated.
    """
    _check_substreams(seed, streams)
    out = np.empty(streams + (2,))
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
    rows = out.reshape(-1, 2)
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


def sample_illumination(spectrum: PowerSpectrum, grid: FrequencyGrid, seed: int) -> np.ndarray:
    """The (F,) source transform fhat on ``grid``: independent complex
    Gaussian samples with E|fhat|^2 = 2 pi Fhat.

    Each frequency draws from its own counter-based substream, so a
    sample depends only on (seed, frequency index).  The power-data
    functions take the spectrum from the scene's band
    (``PowerSpectrum.for_band``), so for their use ``spectrum`` must be
    that band's and ``grid`` the band itself.
    """
    z = _complex_normals(seed, _TAG_ILLUMINATION, (grid.count,))
    return np.sqrt(math.pi * spectrum.value(grid.omegas)) * z


def sample_noise(spectrum: PowerSpectrum, grid: FrequencyGrid, n_receivers: int, seed: int) -> np.ndarray:
    """Unscaled noise transforms, one substream per (receiver, frequency).

    Returns an (N, F) array of independent complex Gaussians with
    E|eta|^2 = 2 pi Fhat, i.e. the same spectral shape as the source.
    """
    z = _complex_normals(seed, _TAG_NOISE, (n_receivers, grid.count))
    return np.sqrt(math.pi * spectrum.value(grid.omegas)) * z


def _power_data(scene: Scene, fhat, illumination: np.ndarray, noise=None) -> IntensityData:
    """The one synthesis of power rows: |(g0 + p) fhat + noise|^2 over the
    band, with the (F,) ``illumination`` record, for the (F,) draw ``fhat``.

    ``noise`` is None or a pair (fraction, raw) of a noise fraction and
    (N, F) unscaled noise transforms.  Each receiver's noise is rescaled so
    that its realized total power is exactly ``fraction`` times the
    realized signal power there; a receiver without signal power cannot
    scale it and raises NumericError.  Rows that overflow raise
    NumericError.
    """
    # Checked, because a length-1 fhat would broadcast over the band.
    if np.shape(fhat) != (scene.band.count,):
        raise ValueError("one illumination sample per band frequency required")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = total_field_band(scene) * np.asarray(fhat)[:, None]
        if noise is not None:
            fraction, raw = noise
            sig_power = (np.abs(rows) ** 2).sum(axis=0)
            raw_power = (np.abs(raw) ** 2).sum(axis=1)
            bad = np.nonzero(sig_power == 0.0)[0]
            if bad.size:
                raise NumericError(f"zero signal power at receiver {bad[0]}: cannot scale noise")
            scale = np.sqrt(fraction * sig_power / raw_power)
            rows = rows + (scale[:, None] * raw).T
        power = _finite_rows(np.abs(rows) ** 2, "synthesized power")
    return IntensityData(power, illumination)


def intensity_data(scene: Scene) -> IntensityData:
    """Exact quadratic power rows |g0 + p|^2 over the band: the fhat = 1
    case under unit illumination; no linearization is applied.  Rows that
    overflow raise NumericError."""
    ones = np.ones(scene.band.count)
    return _power_data(scene, ones, ones)


def _ensemble_illumination(scene: Scene) -> np.ndarray:
    """2 pi Fhat of the band's spectrum (``PowerSpectrum.for_band``)."""
    return 2.0 * math.pi * PowerSpectrum.for_band(scene.band).value(scene.band.omegas)


def clean_power_data(scene: Scene, fhat: np.ndarray) -> IntensityData:
    """Noise-free power-spectrum rows |(g0 + p) fhat|^2 for the (F,) source
    transform ``fhat`` on the scene's band.

    The illumination record stores the ensemble value 2 pi Fhat of the
    band's spectrum (``PowerSpectrum.for_band``), not the realized
    |fhat|^2: that is all a receiver could know.  Rows that overflow raise
    NumericError.
    """
    return _power_data(scene, fhat, _ensemble_illumination(scene))


def noisy_power_data(
    scene: Scene, fhat: np.ndarray, noise_fraction: float, seed: int
) -> IntensityData:
    """Power-spectrum rows with additive measurement noise.

    The noise keeps the band's spectral shape and is rescaled per
    receiver so that its realized total power is exactly
    ``noise_fraction`` times the realized signal power there.  Rows that
    overflow raise NumericError.
    """
    if not (math.isfinite(noise_fraction) and noise_fraction >= 0.0):
        raise ValueError("noise_fraction must be a nonnegative number")
    raw = sample_noise(PowerSpectrum.for_band(scene.band), scene.band, scene.n_receivers, seed)
    return _power_data(scene, fhat, _ensemble_illumination(scene), (noise_fraction, raw))
