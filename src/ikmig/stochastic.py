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
never on the order in which samples are evaluated.  The samples are
those of ``Generator.standard_normal`` on each substream's NumPy
``Philox``, bit for bit, but drawn in vectorized passes: Philox4x64-10
runs on uint64 arrays for a block of keys at once, and NumPy's ziggurat
(Marsaglia and Tsang, 2000) is replayed on the first block's words.
The few substreams that leave the ziggurat's fast path are drawn again
by a NumPy generator re-keyed for each.  Seeded outputs therefore
depend on NumPy keeping its ziggurat normal, as ``Generator`` output
always has.

The ziggurat's tables are not copied here: the first draw in a process
derives them from the installed NumPy (``_ziggurat_tables``), with 256
one-word ``standard_normal`` calls that take about 10 ms, and commands
that draw nothing never pay for them.  ``wi`` comes out exact.  ``ki``
is a lower bound, at most 3 below NumPy's, and that is enough: NumPy
accepts a word whose rabs lies below ki on that word alone, so the bound
accepts only words NumPy accepts, with NumPy's value, and the few more
it turns away are redrawn exactly like the rest.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .forward import IntensityData, _finite_rows, _multiply, _row_blocks, total_field_band
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

# Keys per vectorized Philox pass, so that memory does not grow with the
# grid.  On the stochastic preset's 501 x 100 noise grid (one thread of a
# 2-vCPU Xeon), 4096 keys draw in 14.6 ms and leave sample_noise's traced
# peak at 1.74 MB, as with one generator per substream; 8192 keys take
# 12.7 ms and 2.37 MB, 2048 keys 18.7 ms, one pass of all keys 8.8 MB.
_KEY_BLOCK = 4096

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key bumps.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _check_substreams(seed: int, streams: tuple[int, ...]) -> int:
    """Reject a seed or a substream grid that the key cannot address, and
    return the seed as an int.  A seed that is not an integer, a bool
    among them, is a TypeError rather than truncated."""
    if isinstance(seed, bool):
        raise TypeError("seed must be an integer, not a bool")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if not all(0 <= n <= 2**28 for n in streams):
        raise ValueError("substream index out of range")
    return seed


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> 32
    x_lo, x_hi = x & _LOW32, x >> 32
    lo_hi = x_lo * m_hi
    hi_lo = x_hi * m_lo
    mid = ((x_lo * m_lo) >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return x_hi * m_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), x * m


def _philox_words(seed: int, key1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Words 0 and 1 of the Philox4x64-10 block at counter [1, 0, 0, 0],
    per key [seed, key1]: the first block a fresh NumPy ``Philox`` emits."""
    # Round 0 takes counter [1, 0, 0, 0] to [seed, 0, key1, M0].
    zero = np.zeros_like(key1)
    c0, c1, c2, c3 = zero + seed, zero, key1, zero + _PHILOX_M0
    for r in range(1, _PHILOX_ROUNDS):
        k0 = (seed + r * _PHILOX_W0) % 2**64
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        if r == _PHILOX_ROUNDS - 1:
            # The last round's M0 product makes only words 2 and 3: skipped.
            return hi1 ^ c1 ^ k0, lo1
        k1 = key1 + (r * _PHILOX_W1) % 2**64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0


def _philox_generator(seed: int) -> tuple[np.random.Generator, np.random.Philox, dict]:
    """A Generator on a NumPy ``Philox`` with key [seed, 0], and a copy of
    its state: that key, a zero counter and an empty buffer.

    A caller edits the copy's key, buffer or buffer position and assigns
    it to the bit generator's ``state``.  The key goes in as a uint64
    array: a list holding a word of 2**63 or more would be cast through
    float.
    """
    bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    return np.random.Generator(bit_gen), bit_gen, bit_gen.state


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat table ``wi_double``, and a lower bound on
    ``ki_double``, derived from the installed NumPy's ``standard_normal``.

    A word's bits hold idx in 0-7, the sign in 8 and rabs from 9, and the
    draw is rabs * wi[idx].  So the word 1 << 9 | idx, put first in an
    empty buffer, draws wi[idx] itself: on the fast path, or, for index 1
    whose ki is 0, through a wedge test that returns the same draw.

    ki[idx] is 2**52 times the ratio of the layer's inner to its outer
    edge: wi[255] / wi[0] for the base layer 0, wi[idx-1] / wi[idx] from
    index 2 on, and 0 for the top layer 1, whose every draw takes the
    wedge test.  Rounded in doubles, that ratio can land on either side
    of NumPy's entry, so 2 is taken off, which leaves ki 0 to 3 below
    NumPy's.  A lower bound accepts a subset of the words NumPy accepts
    on their own, each with NumPy's value, and ``_redraw`` draws every
    other substream exactly.
    """
    gen, bit_gen, state = _philox_generator(0)
    state["buffer_pos"] = 0
    wi = np.empty(256)
    for idx in range(256):
        state["buffer"][0] = 1 << 9 | idx
        bit_gen.state = state
        wi[idx] = gen.standard_normal()
    ratio = np.concatenate(([wi[255] / wi[0], 0.0], wi[1:-1] / wi[2:]))
    ki = np.floor(2.0**52 * ratio - 2.0).clip(0.0).astype(np.uint64)
    return wi, ki


def _ziggurat(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fast path of NumPy's ziggurat normal on the words ``w``: the
    draws, and whether each is accepted on its first word."""
    wi, ki = _ziggurat_tables()
    idx = (w & 0xFF).astype(np.intp)
    rabs = (w >> 9) & (2**52 - 1)
    x = rabs.astype(float) * wi[idx]
    np.negative(x, out=x, where=((w >> 8) & 1).astype(bool))
    return x, rabs < ki[idx]


def _substream_keys(tag: int, b_count: int, flat: np.ndarray) -> np.ndarray:
    """Key words tag<<56 | a<<28 | b of the substreams at the flat (uint64)
    indices ``flat`` of a grid with ``b_count`` substreams b per a."""
    a, b = np.divmod(flat, b_count)
    return (tag << 56) | (a << 28) | b


def _redraw(seed: int, keys: list[int], rows: np.ndarray, indices: list[int]) -> None:
    """Draw the substream with key [seed, keys[j]] into ``rows[indices[j]]``,
    for each j, one Philox generator re-keyed per substream.

    Each substream is drawn with a zero counter and an empty buffer, so
    it draws exactly what a fresh ``Generator(Philox(key=...))`` would,
    whatever the ziggurat takes from it.
    """
    gen, bit_gen, state = _philox_generator(seed)
    for i, key1 in zip(indices, keys):
        state["state"]["key"][1] = key1
        bit_gen.state = state
        gen.standard_normal(out=rows[i])


def _complex_normals(seed: int, tag: int, streams: tuple[int, ...]) -> np.ndarray:
    """Complex samples z0 + i z1 from a standard normal pair, per substream.

    ``streams`` is the shape of the substream grid: (A,) the substreams
    (a, 0) and (A, B) the substreams (a, b).  Substream (tag, a, b) is the
    Philox stream with key [seed, tag<<56 | a<<28 | b] and counter 0, and
    it draws one pair of normals with ``Generator.standard_normal``.
    Returns shape ``streams``.

    The substreams are drawn ``_KEY_BLOCK`` keys at a time: one NumPy pass
    computes each key's first Philox block and takes its words 0 and 1
    through the ziggurat's fast path.  A substream whose pair is not
    accepted there (about 3%) is redrawn by ``_redraw``, so every sample
    is what a fresh generator draws, whatever the evaluation order.
    """
    seed = _check_substreams(seed, streams)
    out = np.empty(streams + (2,))
    rows = out.reshape(-1, 2)
    b_count = streams[1] if len(streams) == 2 else 1
    # Acceptance goes into one mask: lists grown between the blocks'
    # temporaries kept about 0.5 MB of freed heap resident.
    accepted = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _KEY_BLOCK):
        hi = min(lo + _KEY_BLOCK, len(rows))
        flat = np.arange(lo, hi, dtype=np.uint64)
        w0, w1 = _philox_words(seed, _substream_keys(tag, b_count, flat))
        rows[lo:hi, 0], ok0 = _ziggurat(w0)
        rows[lo:hi, 1], ok1 = _ziggurat(w1)
        np.logical_and(ok0, ok1, out=accepted[lo:hi])
    rejected = np.flatnonzero(~accepted)
    keys = _substream_keys(tag, b_count, rejected.astype(np.uint64))
    _redraw(seed, keys.tolist(), rows, rejected.tolist())
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
    return _multiply(np.sqrt(math.pi * spectrum.value(grid.omegas)), z, z)


def _squared_moduli(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|z|^2, formed in ``out`` if given: the bits of ``np.abs(z) ** 2``."""
    out = np.abs(z, out=out)
    return np.multiply(out, out, out=out)


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
        if noise is not None:
            fraction, raw = noise
            # Before the rows exist, so its (N, F) squares are not held with them.
            raw_power = _squared_moduli(raw).sum(axis=1)
        # Formed in place: the rows, then the power, which first holds the
        # signal's share.
        rows = total_field_band(scene)
        _multiply(rows, np.asarray(fhat)[:, None], rows)
        power = _squared_moduli(rows)
        if noise is not None:
            sig_power = power.sum(axis=0)
            bad = np.nonzero(sig_power == 0.0)[0]
            if bad.size:
                raise NumericError(f"zero signal power at receiver {bad[0]}: cannot scale noise")
            scale = np.sqrt(fraction * sig_power / raw_power)
            # Scaled a block of frequencies at a time, so the scaled noise
            # is never held whole.
            for block in _row_blocks(*rows.shape):
                rows[block] += _multiply(scale[:, None], raw[:, block]).T
            _squared_moduli(rows, power)
        del rows
        _finite_rows(power, "synthesized power")
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
