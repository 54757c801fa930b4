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
is replayed on the first block's words with its tables checked in here.
The few substreams that leave the ziggurat's fast path are drawn again
by a NumPy generator re-keyed for each.  Seeded outputs therefore
depend on NumPy keeping its ziggurat normal, as ``Generator`` output
always has.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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
        k1 = key1 + (r * _PHILOX_W1) % 2**64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


def _ziggurat(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fast path of NumPy's ziggurat normal on the words ``w``: the
    draws, and whether each is accepted on its first word."""
    idx = (w & 0xFF).astype(np.intp)
    rabs = (w >> 9) & (2**52 - 1)
    x = rabs.astype(float) * _WI[idx]
    np.negative(x, out=x, where=((w >> 8) & 1).astype(bool))
    return x, rabs < _KI[idx]


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
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, key1 in zip(indices, keys):
        key[1] = key1
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


# NumPy's ziggurat tables wi_double and ki_double for the standard normal,
# as the little-endian bytes of their 256 entries (``bytes.fromhex``
# skips the line breaks).  Seeded draws are only
# NumPy's while these equal the installed NumPy's tables; a test derives
# every entry from ``Generator.standard_normal``.
_WI_HEX = """
79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c
0ca72fe8fc01983cbcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3c
c3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13c
f51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c2fb1a2c19ebda33c
559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c96ce07a78095a53c
ea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c
772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c
98cf4ea92e0ba93cea1e2c824763a93c46c5388ec9b9a93c2ca7a4dccc0eaa3c
59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c
3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c
8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c
5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c
2662f084e70daf3c88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3c
ec3442e0560db03c9a8f39f5402eb03cfca5169eea4eb03c10a0725b566fb03c
0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c
ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c
34da781aa789b13c886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c
9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c
7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c53b8e162d8d0b23c
8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33ca15e26704444b33c
d552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c
e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43c
a4303ce80043b43c5dc7ca73f75eb43c36c3669edf7ab43c2f8f4832ba96b43c
5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c
5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c
14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c
385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c
7296c957e26ab63c3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c
52d3286162d8b63c54f86131c4f3b63ceb688bf7270fb73cc61469518e2ab73c
dcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c
09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c
7686c8da0022b83c159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c
2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c
8fb573293a00b93c478328dc381cb93cfc0aef124638b93c8aa203796254b93c
eed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c2cd9d58c79c5b93c
11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c
88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3c
cef55acd78c8ba3c36b38be1b4e5ba3c1aa1c34f0b03bb3c5b989af07c20bb3c
000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c
6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c
2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3c
aba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c
20ef3710db28bd3c47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c
706e209909aabd3c0e49fcf8d2cabd3c372e5295d1ebbd3c1cd249fb060dbe3c
f646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c
086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c
6d4db70fa442bf3c6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c
85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03c
ab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c6826a723d06ec03c
172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c48d4eed13dbfc03c
303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c
355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c
6112d274df82c13caceb4e561a9ac13c8e2f7f77adb1c13c94a671a99cc9c13c
39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c
249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c
520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33c
a3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33c
fa88ae7075acc33ca60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c
945e5415983dc43c153aa744ce64c43cbc439c75628dc43c275a6b9d73b7c43c
0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c
d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63c
c3e59fbe4095c63c32e2098d6bdbc63c347a5ff02827c73c730609569579c73c
8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93c
ab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c33ad0982b43bcd3c
"""
_KI_HEX = """
6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00
eaeec17ef6510e007ef7d3e955b20e00b9ca7e814bef0e00aa44fa0a47190f00
18cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00
9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f00
09f5db07a99d0f0074fa81f560a30f00f84b5bde6fa80f00dc54d360f1ac0f00
0fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00
ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f00
31ee7a97a2c60f00a49628a97ac80f0085de4b5e32ca0f001a2302e9cccb0f00
c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00
50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00
ec998ec089d60f0032e8c8a96ed70f00e8087b5448d80f008c2cad8b17d90f00
d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00
7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f00
4e518d70eede0f002eb4a60174df0f0040ed9965f4df0f00f224bce46fe00f00
58a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00
911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f00
7fad9ee910e40f003477d44667e40f005c094cd3bae40f002495d2ae0be50f00
78bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00
78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00
399e3e827be70f00a27070e3b6e70f004342778df0e70f008cf0539028e80f00
3a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00
1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00
d5b69426dfe90f007ce6ab7309ea0f00a466f19c32ea0f002c9532ab5aea0f00
1a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00
13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f00
1420e65f96eb0f007c9dcff4b4eb0f00d049f4b8d2eb0f003e2e6eb1efeb0f00
e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00
f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f00
15fb5484d3ec0f00b3c88874e9ec0f00b7917fc4feec0f002885357713ed0f00
0349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00
e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00
b46a74c8b3ed0f00526641dfc2ed0f00526ea471d1ed0f00d38a3c81dfed0f00
8099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00
e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00
f48229ee47ee0f0086b01d2751ee0f00417f40e959ee0f002eb4283562ee0f00
f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00
b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00
ea29a85198ee0f005c48130e9cee0f00f47372559fee0f00aecc6227a2ee0f00
ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00
3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00
241d4878a6ee0f00839ea28aa4ee0f00dae4221da2ee0f002420352e9fee0f00
2eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00
7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f00
5ebda9c36cee0f007e009e5264ee0f008828a3455bee0f00b6574e9951ee0f00
cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00
5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f00
7e0422e4dbed0f00d339ce0ecbed0f00f42c0464b9ed0f00c938e9dca6ed0f00
8de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00
22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00
b8b70e10d4ec0f00b46e9508b7ec0f00c13012b698ec0f0078a90d0a79ec0f00
fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00
92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f00
4b2d0bb013eb0f00e9021a59e2ea0f00572299aeaeea0f0026e38e8d78ea0f00
e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00
28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f00
40a990f604e80f00c0338248abe70f00a56a1f754ce70f0002a22a10e8e60f00
d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00
58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f00
5755990300e20f00148378823ce10f00b067eec468e00f00aa712bb082df0f00
aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00
75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00
acc7b4a7a1d10f009e1f7604e2ce0f00b2115ed8a8cb0f00222dcd6ed2c70f00
ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00
9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00
"""
_WI = np.frombuffer(bytes.fromhex(_WI_HEX), dtype="<f8")
_KI = np.frombuffer(bytes.fromhex(_KI_HEX), dtype="<u8")
