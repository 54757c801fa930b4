"""Single-scattering forward model: the fields, and the band data files.

The array records, per frequency, the squared modulus of the total field at
each receiver: direct arrival plus the weak scattered response.  This
module computes those fields; ``ikmig.stochastic`` squares them into power
rows, deterministic data being its unit-draw case, and everything
downstream works from those rows.  The model functions return (F, N) rows
over a band, or one value per band frequency.

The scattered field is the first Born sum over the scatterers, p = k^2
sum_m G(r, x_m) rho_m G(x_m, s), formed one scatterer at a time, so
synthesis memory is O(F N) whatever their number M.  Every band stage
writes its (F, N) result in place, and the fields evaluate Green's
functions a block of frequency rows at a time (``_band_rows``), so a stage
holds its result plus one block.  At F = 400 and N = 1001, where one
complex (F, N) array is 6.4 MB, tracemalloc peaks went from 29.0 to 7.5
MB for ``total_field_band``, from 35.4 to 16.6 MB for
``stochastic.noisy_power_data``, from 22.6 to 13.2 MB for
``recover.recover_band``, from 25.8 to 12.8 MB for
``linearization_residual`` and from 12.8 to 10.0 MB for
``read_field_csv``.  On the ``point`` array in 3-D (F = 100, N = 501)
``total_field_band`` peaks at 1.86 MB for one reflector and 2.12 MB for 61
(``disk``) or 500, where an (F, N, M) broadcast peaked at 172 MB for 61
and 1.41 GB for 500.

The free-space Green's function is exp(ikr)/(4 pi r) in three dimensions
and (i/4) H0(kr) in two, where H0 = J0 + i Y0 (``hankel0_1``) is plain
NumPy: the power series below t = 2, Miller's backward recurrence on
[2, 25) and the large-argument expansion DLMF 10.17.5 from 25 up, with
fewer terms from 50, 300 and 1e4.  It is within 4e-15 of mpmath at 40
digits (absolute below t = 8, of the envelope sqrt(2/(pi t)) above) from
1e-3 to 1e7, where SciPy's cephes ``j0 + i y0`` drifts to 5e-10 of the
envelope; no module of the package imports SciPy.

Phases k r reach 1e6 rad and more, and one primitive, ``_phase``, forms
every unit phasor of the package, with no float64 cosine, sine or complex
``exp``: it reduces theta by steps of 2 pi / 1024 (Cody-Waite, exact below
2**23 turns) and corrects a correctly rounded table phasor by a Taylor
series of the remainder, within 0.75 ulp of 1.  The 3-D Green's function
is conj(_phase(k r, amp=1/(4 pi r))), the Hankel function's phase is
conj(_phase(t)) (1 - i) / sqrt 2, and migration's 3-D band sum takes its
factors from it into a worker's workspace, which extends the primitive's
scratch (``_PhaseBuffers``).

Band data hold values only: the band and the array are the scene's.  The
CSV band files (intensity, illumination, field) are written on a band's
omegas and read on the scene they serve, as images live on its window:
one reader, ``_read_band``, accepts exactly the rows the writers emit for
the scene's band and array and returns plain value arrays on that band.
It reads a file in blocks of whole lines and is the writer's inverse: a
block of the writer's own text is decided in NumPy passes
(``_parse_block``, its values by ``g17._parse_values``); any other block
is scanned a line at a time against the same grammar (``_scan_block``).
A file that is not the writer's text, in spacing, line ends or the
spelling of a number, is refused, naming its row.

Every CSV file goes through one writer, ``_write_grid``, and every float
value's text is ``'%.17g' % x`` byte for byte, produced in NumPy passes
(``g17._g17``), whose table of powers of ten (``_g17_tables``) the reader
shares.
"""

from __future__ import annotations

import codecs
import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataFormatError, NumericError, SingularityError
# _g17_tables is named here too: the writers' and the reader's one table.
from .g17 import _FLOAT, _LANES, _g17, _g17_tables, _lanes, _parse_values, _windows
from .scene import Scene

__all__ = [
    "IntensityData",
    "hankel0_1",
    "direct_arrivals_band",
    "array_response_band",
    "total_field_band",
    "linearization_residual",
    "write_intensity_csv",
    "read_intensity_csv",
    "write_illumination_csv",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class IntensityData:
    """Phaseless data rows over a band: (F, N) power values and the (F,)
    illumination divisors used at recovery time, |fhat|^2 for deterministic
    illumination (1 for ``stochastic.intensity_data``) or 2*pi*Fhat for
    stochastic runs.

    The data hold values only; the band and the array they lie on are the
    scene's.
    """

    values: np.ndarray
    illumination: np.ndarray

    def __post_init__(self):
        # Copies, frozen below: the caller's arrays stay writeable, and
        # writing to them cannot change the data.
        vals = np.array(self.values, dtype=float)
        ill = np.array(self.illumination, dtype=float)
        if vals.ndim != 2 or ill.shape != vals.shape[:1]:
            raise DataFormatError("intensity values must be (F, N) with one "
                                  "illumination value per frequency")
        if not np.all(np.isfinite(vals)):
            raise DataFormatError("intensity data must be finite")
        if not np.all(np.isfinite(ill)):
            raise DataFormatError("illumination must be finite")
        for arr in (vals, ill):
            arr.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "illumination", ill)


# ---------------------------------------------------------------------------
# vectorized Green's function helpers
# ---------------------------------------------------------------------------


def _distances(points: np.ndarray, ref: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Euclidean distances over the last axis, points and ref broadcast.

    Summed coordinate by coordinate, in the order ``np.linalg.norm``
    uses, so the result is the same to the bit without building the
    (..., coords) difference array.  Arrays of the broadcast shape given
    as ``out`` and ``scratch`` take the distances and each coordinate's
    difference instead of fresh ones.
    """
    sq = np.subtract(points[..., 0], ref[..., 0], out=out)
    sq *= sq
    for j in range(1, points.shape[-1]):
        d = np.subtract(points[..., j], ref[..., j], out=scratch)
        d *= d
        sq += d
    return np.sqrt(sq, out=sq)


# Argument ranges of ``hankel0_1``: each holds [lower edge, next edge).
# Below 2 the power series (A&S 9.1.12-13) in x = t^2/4 <= 1, to x^13, is
# within 1e-21 of its limit; Miller's recurrence runs on [2, 25); from 25
# up DLMF 10.17.5 is summed to the fewest terms whose first neglected term
# is below 2^-56 of the envelope at the range's lower edge.
_SERIES_TERMS = 14
_MILLER_START = 80
_ASYMPTOTIC_RANGES = ((25.0, 19), (50.0, 12), (300.0, 7), (1e4, 4))
_EDGES = np.array([2.0] + [lower for lower, _ in _ASYMPTOTIC_RANGES])
_TWO_OVER_PI = 2.0 / math.pi
_EULER_GAMMA = 0.5772156649015329


def _asymptotic_coefficients(count: int) -> list[float]:
    """a_k(0) = (-1)^k prod_{m<=k} (2m-1)^2 / (k! 8^k) for k < count, each a
    ratio of exact integers rounded once."""
    a, num, den = [], 1, 1
    for k in range(count):
        if k:
            num *= -(2 * k - 1) ** 2
            den *= 8 * k
        a.append(num / den)
    return a


def _series_coefficients(count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(-1)^k / k!^2 and (-1)^(k+1) H_k / k!^2 for k < count, the J0 and Y0
    series in x = t^2 / 4, each a ratio of exact integers rounded once
    (H_k k! = sum_m k!/m)."""
    j, y = [], []
    for k in range(count):
        f = math.factorial(k)
        sign = (-1) ** k
        j.append(sign / f**2)
        y.append(-sign * sum(f // m for m in range(1, k + 1)) / f**3)
    return tuple(j), tuple(y)


_J_SERIES, _Y_SERIES = _series_coefficients(_SERIES_TERMS)
_A = _asymptotic_coefficients(max(count for _, count in _ASYMPTOTIC_RANGES))
# sum_k i^k a_k / t^k = P + i Q with P = sum_j (-1)^j a_2j u^j and
# Q = (1/t) sum_j (-1)^j a_2j+1 u^j, u = 1/t^2.
_P = tuple((-1) ** j * _A[2 * j] for j in range((len(_A) + 1) // 2))
_Q = tuple((-1) ** j * _A[2 * j + 1] for j in range(len(_A) // 2))


def _poly(coefs, x: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] x^j by Horner's rule, for two or more coefficients."""
    acc = x * coefs[-1]
    acc += coefs[-2]
    for c in coefs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _h0_series(t: np.ndarray) -> np.ndarray:
    """J0 and Y0 by their power series, Y0 = (2/pi) ((ln(t/2) + gamma) J0
    + sum (-1)^(k+1) H_k x^k / k!^2)."""
    x = 0.25 * t * t
    j0 = _poly(_J_SERIES, x)
    log_term = np.log(0.5 * t) + _EULER_GAMMA
    return _complex(j0, _TWO_OVER_PI * (log_term * j0 + _poly(_Y_SERIES, x)))


def _h0_miller(t: np.ndarray) -> np.ndarray:
    """J0 by Miller's backward recurrence from order _MILLER_START,
    normalized by J0 + 2 sum J_2k = 1; Y0 from the Neumann series
    (A&S 9.1.88), Y0 = (2/pi) ((ln(t/2) + gamma) J0 - 2 sum (-1)^k J_2k / k)."""
    f_next, f = np.zeros_like(t), np.ones_like(t)
    norm, neumann = np.zeros_like(t), np.zeros_like(t)
    for n in range(_MILLER_START, 0, -1):
        f_next, f = f, (2 * n) / t * f - f_next  # J_{n-1}, up to a common factor
        k, odd = divmod(n - 1, 2)
        if k and not odd:
            norm += 2.0 * f
            neumann += f / (-k if k % 2 else k)
    norm += f
    log_term = np.log(0.5 * t) + _EULER_GAMMA
    return _complex(f / norm, _TWO_OVER_PI * (log_term * f - 2.0 * neumann) / norm)


def _h0_asymptotic(t: np.ndarray, count: int) -> np.ndarray:
    """DLMF 10.17.5 to ``count`` terms: H0 = sqrt(2/(pi t)) e^{i(t - pi/4)}
    (P + i Q).  The phase is taken on t itself, so no rounded t - pi/4
    enters: e^{i(t - pi/4)} sqrt 2 = conj(_phase(t)) (1 - i) = a + i b,
    with a = cos t + sin t and b = sin t - cos t, and the sqrt 2 goes into
    the envelope, 1/sqrt(pi t).  The phase is formed first, so its scratch
    is freed before the series' arrays are made, and its buffer takes the
    result."""
    z = _phase(t)
    a = np.subtract(z.real, z.imag)
    # -b = cos t - sin t, in the imaginary part, which it is the last to need.
    minus_b = np.add(z.real, z.imag, out=z.imag)
    w = np.divide(1.0, t)
    u = w * w
    p = _poly(_P[:(count + 1) // 2], u)
    q = _poly(_Q[:count // 2], u)
    q *= w
    root = np.multiply(t, math.pi, out=u)
    np.sqrt(root, out=root)
    p /= root
    q /= root
    # a p - b q and a q + b p, each product rounded, then their sum.
    bp = np.multiply(minus_b, p, out=w)
    np.multiply(a, p, out=z.real)
    z.real += np.multiply(minus_b, q, out=root)
    np.multiply(a, q, out=z.imag)
    z.imag -= bp
    return z


_BRANCHES = (_h0_series, _h0_miller) + tuple(
    partial(_h0_asymptotic, count=count) for _, count in _ASYMPTOTIC_RANGES)


def hankel0_1(t: np.ndarray) -> np.ndarray:
    """First-kind Hankel function of order zero, J0(t) + i Y0(t), for t > 0.

    Pure NumPy, elementwise: each argument goes to the branch of its range
    (``_EDGES``), and each branch runs only on its own elements with a
    fixed term count, so a value does not depend on the other entries of
    the array.  Below 2, the power series of J0 and Y0 (A&S 9.1.12-13);
    on [2, 25), Miller's backward recurrence from order 80 with Y0 from
    the Neumann series (A&S 9.1.88); from 25 up, DLMF 10.17.5 with 19
    terms, 12 from 50, 7 from 300 and 4 from 1e4, its phase e^{it} from
    ``_phase``.  Against mpmath at 40 digits on a log grid from 1e-3 to
    1e7 it is within 4e-15 absolute below t = 8 and 4e-15 of the envelope
    sqrt(2/(pi t)) above, where cephes ``j0 + i y0`` rounds t - pi/4 and
    drifts to 5e-10 of the envelope at 1e7.  ``_phase`` reduces t exactly
    below 2**23 turns (5.3e7); past that its reduction rounds, and the
    error grows to about half an ulp of t, relative to the envelope, as
    large as the rounding of t itself: 3.5e-15 at 1e8, 3.0e-8 at 1e9,
    6.7e-7 at 1e10 and 1.1e-5 at 1e12.  The argument is
    not checked: every caller passes k r with k > 0 (``FrequencyGrid``
    rejects a band that does not start above 0 Hz) and r > 0 (zero
    distances raise or are masked first).  A float gives a complex scalar,
    an array a complex array of its shape.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    # The branches of the smallest and the largest argument; an empty array
    # gets lo > hi and so no branch.
    lo, hi = np.searchsorted(_EDGES, (np.fmin.reduce(flat, initial=np.inf),
                                      np.fmax.reduce(flat, initial=-np.inf)), side="right")
    if lo == hi:
        out = _BRANCHES[lo](flat)
    else:
        branch = np.searchsorted(_EDGES, flat, side="right")
        out = np.empty(flat.shape, dtype=complex)
        for b in range(lo, hi + 1):
            sel = branch == b
            if sel.any():
                out[sel] = _BRANCHES[b](flat[sel])
    return out.reshape(t.shape)[()]


def _spreading_3d(r: np.ndarray, out=None) -> np.ndarray:
    """4 pi r: the 3-D Green's function is e^{ikr} divided by this, so its
    amplitude 1/(4 pi r) does not depend on k."""
    return np.multiply(4.0 * math.pi, r, out=out)


# ---------------------------------------------------------------------------
# the phase primitive
# ---------------------------------------------------------------------------

# e^{-i theta} is a table phasor times the factor of a small remainder:
# theta = n 2 pi / _TABLE_SIZE + b with |b| <= pi / _TABLE_SIZE.  The
# gather costs about the same from 256 to 4096 entries: the whole of
# ``_phase`` took 16.5, 15.1, 14.8 and 18.6 ns per element with tables of
# 256, 1024, 4096 and 16,384 (medians of 15 interleaved runs on a (32,
# 501) block, one thread of a 2-vCPU Xeon; 19.7, 20.5, 18.9 and 20.3 in a
# second set, as the host's speed drifts).  So the size sets the passes
# around it.  For the same 1e-18 truncation,
# 256 entries need cos b and sin b to b^6 and b^7, four passes more; 4096
# save the b^5 term of sin b, two passes, but need a fifth part of the
# step for the same exact range, two more.
_TABLE_SIZE = 1024
# 2 pi / _TABLE_SIZE in four parts of at most 20 significant bits
# (Cody-Waite), so n * part is exact below 2**33 steps, 2**23 turns; they
# sum to 2 pi / 1024 within 6.5e-29.
_STEP_PARTS = tuple(float.fromhex(h) for h in
                    ("0x1.921fcp-8", "-0x1.5777ap-29", "-0x1.73dccp-51", "0x1.898ccp-72"))


def _unit_phasors() -> np.ndarray:
    """e^{-2 pi i m / _TABLE_SIZE} for every m, correctly rounded.

    In 128-bit fixed point, e^{i step} is its Taylor series at the exact
    sum of ``_STEP_PARTS`` and the first octant its powers, good to about
    2**-86; Python's integer division rounds each once to double.  The rest
    of the circle follows from the octant by exact swaps and sign changes.
    """
    one = 1 << 128
    step = sum(int(math.ldexp(part, 128)) for part in _STEP_PARTS)
    sums, term, j = [0, 0, 0, 0], one, 0
    while term:
        sums[j % 4] += term  # step^j / j!, by the power of i it goes with
        j += 1
        term = term * step // (j * one)
    cos, sin = sums[0] - sums[2], sums[1] - sums[3]
    re, im, octant = one, 0, []
    for _ in range(_TABLE_SIZE // 8 + 1):
        octant.append(complex(re / one, im / one))
        re, im = (re * cos - im * sin) // one, (re * sin + im * cos) // one
    octant = np.array(octant)
    quarter = np.concatenate([octant, (1j * np.conj(octant))[-2:0:-1]])
    return np.conj(np.concatenate([quarter * 1j**turn for turn in range(4)]))


_PHASORS = _unit_phasors()


class _PhaseBuffers:
    """Scratch of ``_phase`` for up to ``size`` elements: three real
    buffers (step counts, reduction products and table indices, remainders)
    and two complex ones (the factor and its remainder's correction).  Each
    is an array of its own, so a caller that keeps only the result keeps
    only ``z``.  ``_view`` shapes a buffer's leading part to a call."""

    def __init__(self, size: int):
        self.n, self.prod, self.r = (np.empty(size) for _ in range(3))
        self.z, self.zb = (np.empty(size, dtype=complex) for _ in range(2))


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading part of a flat buffer as a C-ordered ``shape`` array."""
    return buffer[:math.prod(shape)].reshape(shape)


def _multiply(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.multiply(a, b, out=out) for complex operands, rounded alike at
    every size of the result.

    NumPy's vector loop forms a complex product with fused multiply-adds.
    A product of one element may take its scalar loop instead, which rounds
    a c and b d apart, and differs in the last bit about half the time:
    NumPy 2.4 does so for an in-place product and for one whose operands
    differ in shape.  So a one-element product is formed from flat operands
    into a fresh array, which takes the vector loop, and a value does not
    depend on the size of the array it is computed in.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    if out.size != 1:
        return np.multiply(a, b, out=out)
    out[...] = np.multiply(np.ravel(a), np.ravel(b)).reshape(out.shape)
    return out


def _phase(theta: np.ndarray, ws: _PhaseBuffers | None = None,
           amp: np.ndarray | None = None) -> np.ndarray:
    """amp e^{-i theta} for real theta >= 0 and a real amplitude (1 if
    omitted) that broadcasts to theta: the one place the package forms a
    unit phasor.

    theta is reduced by n = rint(theta _TABLE_SIZE / 2 pi) steps of
    ``_STEP_PARTS``, exact below 2**33 steps (2**23 turns), to a remainder
    |b| <= pi / _TABLE_SIZE.  The factor is the table phasor of n mod
    _TABLE_SIZE times e^{-ib}, whose cosine and sine are their Taylor
    series to b^4 and b^5, with a truncation error below 1e-18.  All of it
    is elementwise NumPy passes, one gather and one complex product: 12.4
    ns per element against 19.9 ns for the float64 cos and sin of a
    reduced angle (medians of 15 interleaved runs on a (32, 501) block,
    one thread of a 2-vCPU Xeon; 20.5 against 36.1 in a second set, as the
    host's speed drifts).  The error is below 0.75 ulp of 1 within the
    exact range and about ulp(theta) past it (tested to 1e15 rad), as
    small as theta's own rounding.  Elementwise, so an element's bits
    depend on nothing else in the array.  The result is a view of
    ``ws.z`` and the temporaries are views of ``ws.n``, ``ws.prod``,
    ``ws.r`` and ``ws.zb``; theta may be the third.  Without ``ws`` the
    call makes its own buffers.
    """
    shape = theta.shape
    if ws is None:
        ws = _PhaseBuffers(theta.size)
    n = np.multiply(theta, _TABLE_SIZE / (2.0 * math.pi), out=_view(ws.n, shape))
    np.rint(n, out=n)
    prod = np.multiply(n, _STEP_PARTS[0], out=_view(ws.prod, shape))
    b = np.subtract(theta, prod, out=_view(ws.r, shape))
    for part in _STEP_PARTS[1:]:
        b -= np.multiply(n, part, out=prod)
    # Any int64 masks into the table, so a non-finite theta gathers a phasor
    # too, and "clip" only skips the bounds check, 1.2 ns per element.
    index = prod.view(np.int64)
    np.copyto(index, n, casting="unsafe")
    index &= _TABLE_SIZE - 1
    z = np.take(_PHASORS, index, out=_view(ws.z, shape), mode="clip")
    # e^{-ib} - 1 = (cos b - 1) - i sin b: b^2 (b^2/24 - 1/2) and b (b^2 (1/6 - b^2/120) - 1),
    # so the product adds a small correction to z and rounds once.
    zb = _view(ws.zb, shape)
    b2 = np.multiply(b, b, out=n)
    poly = np.multiply(b2, 1.0 / 24.0, out=prod)
    poly -= 0.5
    np.multiply(poly, b2, out=zb.real)
    np.multiply(b2, -1.0 / 120.0, out=poly)
    poly += 1.0 / 6.0
    poly *= b2
    poly -= 1.0
    np.multiply(poly, b, out=zb.imag)
    _multiply(zb, z, zb)
    z += zb
    if amp is not None:
        z *= amp
    return z


def _green_from_distance(r: np.ndarray, k, dimension: int, ws: _PhaseBuffers | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Green's function values for separations r at wavenumbers k (broadcast),
    into ``out`` if given.  A 3-D evaluation works in the ``_PhaseBuffers``
    ``ws``, or in fresh ones; without ``out`` its result is a view of
    ``ws.z``."""
    if dimension == 3:
        # k r is formed in the buffer that _phase reduces it in.
        shape = np.broadcast_shapes(np.shape(k), r.shape)
        if ws is None:
            ws = _PhaseBuffers(math.prod(shape))
        z = _phase(np.multiply(k, r, out=_view(ws.r, shape)), ws,
                   np.divide(1.0, _spreading_3d(r)))
        return np.conjugate(z, out=z if out is None else out)
    return np.multiply(0.25j, hankel0_1(k * r), out=out)


def _wavenumbers(scene: Scene) -> np.ndarray:
    """Band wavenumbers omega / c0, ascending and positive."""
    return scene.band.omegas / scene.c0


# Values per block of frequency rows in the band stages (``_row_blocks``),
# measured on the ``stochastic`` preset (F = 100, N = 501) and at F = 400,
# N = 1001, one thread of a 2-vCPU Xeon.  ``total_field_band`` traced peaks
# of 1.41, 1.86 and 2.79 MB with 2**13, 2**14 and 2**15 values a block at
# the preset (3.75 MB evaluated over the whole band), and 7.06, 7.50 and
# 8.40 MB at the larger size.  A block costs about 20 us of NumPy calls:
# with the heap already grown, ``direct_arrivals_band`` at the preset took
# 0.63 ms over the whole band against 0.78 ms in blocks of 2**13, and 0.70
# against 0.76 ms in blocks of 2**14; in a fresh process, where whole-band
# buffers are new pages, 1.33 against 0.87 ms (medians of 21 interleaved
# calls).
_BAND_BLOCK = 1 << 14


def _row_blocks(f: int, n: int) -> list[slice]:
    """Slices of f frequency rows of n values each, in order, the first the
    largest: as many rows a block as keep it within ``_BAND_BLOCK`` values,
    and at least one."""
    step = max(1, _BAND_BLOCK // n)
    return [slice(lo, min(lo + step, f)) for lo in range(0, f, step)]


def _band_rows(scene: Scene, k: np.ndarray, direct: bool, scattered: bool) -> np.ndarray:
    """(F, N) rows at the wavenumbers k of the direct arrivals g0
    (``direct``), of the scattered field p (``scattered``), or of g0 + p.

    p is the first Born term, k^2 sum_m G(r, x_m) rho_m G(x_m, s).  Every
    collision is checked first: the source on a receiver, then the first
    scatterer in scene order that coincides with a receiver or the source.
    The rows are then formed in place, a block of frequency rows at a time
    (``_row_blocks``): the scatterers' terms in scene order, each the
    receiver leg times rho times the source leg through ``_multiply``,
    the first written and each later one added; then k^2; then g0, added
    (p + g0 is g0 + p to the bit) or, without scatterers, written.  The
    scatterers are the outer loop, so a scatterer's distances and its
    (F, 1) source leg are evaluated once, not once per block.  Every value
    is elementwise, so its bits do not depend on the blocks, and the memory
    is the (F, N) result plus one block's scratch, whatever the number of
    scatterers.
    """
    n, dim = scene.n_receivers, scene.dimension
    # Distances from a scatterer to the receivers then the source, one
    # (1, N + 1) row, formed for its check and again for its terms rather
    # than held for every scatterer.
    points = np.vstack([scene.receivers, scene.source])[None]
    if direct:
        r0 = _distances(scene.receivers, scene.source)
        if (hit := np.flatnonzero(r0 == 0.0)).size:
            raise SingularityError(f"source coincides with receiver {hit[0]}")
    scatterers = scene.scatterers if scattered else ()
    for m, s in enumerate(scatterers):
        if (hit := np.flatnonzero(_distances(points, np.asarray(s.position)) == 0.0)).size:
            end = "the source" if hit[0] == n else f"receiver {hit[0]}"
            raise SingularityError(f"scatterer {m} coincides with {end}")
    f = k.shape[0]
    if not (direct or scatterers):
        return np.zeros((f, n), dtype=complex)
    rows = np.empty((f, n), dtype=complex)
    blocks = _row_blocks(f, n)
    size = rows[blocks[0]].size
    ws = _PhaseBuffers(size) if dim == 3 else None
    term = np.empty(size, dtype=complex) if len(scatterers) > 1 else None
    for m, s in enumerate(scatterers):
        r = _distances(points, np.asarray(s.position))
        src = s.rho * _green_from_distance(r[:, n:], k[:, None], dim)
        for part in blocks:
            block = rows[part]
            leg = _green_from_distance(r[:, :n], k[part, None], dim, ws)
            if m == 0:
                _multiply(leg, src[part], block)
            else:
                block += _multiply(leg, src[part], _view(term, block.shape))
    for part in blocks:
        block, kb = rows[part], k[part, None]
        if not scatterers:
            _green_from_distance(r0, kb, dim, ws, out=block)
            continue
        block *= kb * kb
        if direct:
            block += _green_from_distance(r0, kb, dim, ws)
    return rows


def _direct_rows(scene: Scene, k: np.ndarray) -> np.ndarray:
    """(F, N) direct arrivals g0 at the wavenumbers k (``_band_rows``)."""
    return _band_rows(scene, k, direct=True, scattered=False)


def _response_rows(scene: Scene, k: np.ndarray) -> np.ndarray:
    """(F, N) scattered field p, first Born term, at the wavenumbers k:
    k^2 sum_m G(r, x_m) rho_m G(x_m, s) (``_band_rows``)."""
    return _band_rows(scene, k, direct=False, scattered=True)


def direct_arrivals_band(scene: Scene) -> np.ndarray:
    """Stacked g0 rows, shape (F, N), ascending frequency."""
    return _direct_rows(scene, _wavenumbers(scene))


def array_response_band(scene: Scene) -> np.ndarray:
    """Stacked p rows, shape (F, N), ascending frequency."""
    return _response_rows(scene, _wavenumbers(scene))


def total_field_band(scene: Scene) -> np.ndarray:
    """Stacked g0 + p rows, shape (F, N), ascending frequency, formed in
    one (F, N) array (``_band_rows``)."""
    return _band_rows(scene, _wavenumbers(scene), direct=True, scattered=True)


# ---------------------------------------------------------------------------
# row checks and diagnostics
# ---------------------------------------------------------------------------


def _finite_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """(F, N) rows computed under ``np.errstate`` that silences overflow,
    checked: a row that is not finite is a numeric failure of the
    computation, named by ``what`` and its first (frequency, receiver), not
    a format error of the data.  This check is the overflow's one report."""
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        f, r = bad[0]
        raise NumericError(f"{what} overflows at frequency {f}, receiver {r}")
    return rows


def linearization_residual(scene: Scene) -> np.ndarray:
    """max_r |p_r| / |g0_r| per band frequency: the size of the neglected
    quadratic term."""
    ratio = np.abs(array_response_band(scene))
    ratio /= np.abs(direct_arrivals_band(scene))
    return np.max(ratio, axis=1)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

_INTENSITY_HEADER = "freq_index,omega_rad_s,receiver_index,value"
_ILLUMINATION_HEADER = "freq_index,omega_rad_s,twopi_Fhat"
_FIELD_HEADER = "freq_index,omega_rad_s,receiver_index,re,im"


def _text(column: np.ndarray) -> list[str]:
    """Each entry of a key column as text: ``%d`` if integer, else ``%.17g``."""
    fmt = "%d" if np.issubdtype(column.dtype, np.integer) else "%.17g"
    return [fmt % x for x in column.ravel().tolist()]


# Values formatted per block of grid lines, about this many a block.  At
# 2**11 writing a 50,100-row field file peaks at 0.46 MB (tracemalloc);
# 2**12 wrote it 10-20% faster and peaked at 0.90 MB.
_BLOCK_VALUES = 1 << 11


def _write_grid(path, header: str, keys, values) -> None:
    """A (lines, positions) grid under ``header``, one row per cell, row-major.

    The row's columns are ``keys`` then ``values``.  A key column is either
    an (lines, 1) array, one entry per grid line, or a 1-D array, one entry
    per position, repeated on every line; a value column is an array that
    broadcasts to the grid.  A 1-D table is one line of positions.

    The contract every writer shares, and the inverse of ``_read_band``:
    ``%d`` for an integer column, ``%.17g`` (round-trip exact) for a float
    column, so the bytes equal a ``%``-format of each row.  Each key entry
    is formatted once, not once per row, into a NUL-padded column of a row
    buffer: the per-position keys when the buffer is made, the per-line
    keys once per block of lines.  The values of a block, as many lines as
    hold about ``_BLOCK_VALUES`` values, go through ``_g17`` into their
    columns, and the block is written with its NULs deleted by one
    ``bytes.translate``, so the writer's memory does not grow with the
    number of lines.
    """
    keys = [np.asarray(c) for c in keys]
    shape = np.broadcast_shapes((1, 1), *(np.shape(c) for c in (*keys, *values)))
    values = [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in values]
    step = max(1, _BLOCK_VALUES // (shape[1] * len(values)))
    texts = [np.array(_text(c), dtype=bytes) for c in keys]
    # A row: the keys and their commas, padded to whole lanes; each
    # value's lanes, which begin with its comma; a newline lane.
    key_lanes = -(-sum(k.itemsize + 1 for k in texts) // 8)
    width = key_lanes + _LANES * len(values) + 1
    buffer = bytearray(min(step, shape[0]) * shape[1] * width * 8)
    rows = np.frombuffer(buffer, np.uint64).reshape(-1, shape[1], width)
    rows[:, :, -1] = _lanes([b"\n"])
    chars = rows.view(np.uint8)
    line_keys, start = [], 0
    for j, (c, text) in enumerate(zip(keys, texts)):
        column = chars[:, :, start:start + text.itemsize]
        start += text.itemsize + 1
        if j < len(keys) - 1:
            chars[:, :, start - 1] = ord(",")
        text = text.view(np.uint8).reshape(-1, text.itemsize)
        if c.ndim == 2:
            line_keys.append((column, text))
        else:
            column[...] = text
    cells = rows[:, :, key_lanes:-1].reshape(rows.shape[:2] + (len(values), _LANES))
    lanes = np.empty((_LANES, cells[:, :, :, 0].size), np.uint64)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, shape[0], step):
            n = min(step, shape[0] - lo)
            for column, text in line_keys:
                column[:n] = text[lo:lo + n, None]
            block = np.stack([v[lo:lo + n] for v in values], axis=-1)
            _g17(block.ravel(), lanes[:, :block.size])
            cells[:n] = lanes[:, :block.size].reshape(_LANES, *block.shape).transpose(1, 2, 3, 0)
            used = buffer if n == rows.shape[0] else buffer[:n * shape[1] * width * 8]
            fh.write(used.translate(None, b"\0"))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _band_keys(omegas: np.ndarray, n: int) -> list:
    """Frequency index and omega per grid line, receiver index per position."""
    return [np.arange(omegas.shape[0])[:, None], omegas[:, None], np.arange(n)]


# Band files are read in blocks of whole lines, about this many bytes a
# block, so that the reader's memory does not grow with the file.
_READ_BYTES = 1 << 18
# Zero bytes before a block: a field's mantissa is read as the 24 bytes
# that end where it does.
_PAD = 24
def _key_lanes(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per text, its bytes as little-endian lanes, the mask of its bytes in
    them, and its length: (texts, lanes), (texts, lanes) and (texts,)."""
    width = -(-max(map(len, texts)) // 8) * 8
    def lanes(texts):
        return np.frombuffer(b"".join(x.ljust(width, b"\0") for x in texts),
                             "<u8").reshape(len(texts), -1)
    return (lanes(texts), lanes([b"\xff" * len(x) for x in texts]),
            np.array([len(x) for x in texts]))


def _parse_block(block: bytes, keys: list, n_values: int, row0: int,
                 n_rows: int) -> np.ndarray | None:
    """The (rows, n_values) values of a block of whole lines that are all
    the writer's own text for rows ``row0`` on, or None.

    Each line must be the row's key text, byte for byte, then its values,
    each a field that ``_parse_values`` decides, separated by commas and
    ended by a newline.  ``keys`` holds the ``_key_lanes`` of the key text
    per frequency and, if the file has receiver rows, per receiver.
    """
    buf = bytes(_PAD) + block + bytes(sum(lanes[0].nbytes for lanes, _, _ in keys))
    b = np.frombuffer(buf, np.uint8)
    n_keys = len(keys) + 1
    sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    if sep.size % (n_keys + n_values):
        return None
    sep = sep.reshape(-1, n_keys + n_values)
    kind = b[sep]
    rows = sep.shape[0]
    if not ((kind[:, :-1] == ord(",")).all() and (kind[:, -1] == ord("\n")).all()
            and row0 + rows <= n_rows):
        return None
    at = np.empty(rows, np.intp)
    at[0] = _PAD
    at[1:] = sep[:-1, -1] + 1
    # The key text is the frequency's, then the receiver's if any.
    index = [np.arange(row0, row0 + rows)]
    if len(keys) == 2:
        index = list(divmod(index[0], len(keys[1][2])))
    for (lanes, masks, lengths), j in zip(keys, index):
        got = _windows(buf, lanes[0].nbytes)[at].view("<u8").reshape(rows, -1)
        got &= masks.take(j, axis=0)
        if not (got == lanes.take(j, axis=0)).all():
            return None
        at = at + lengths.take(j)
    if not (at == sep[:, n_keys - 1] + 1).all():
        return None
    values = _parse_values(buf, b, sep[:, n_keys - 1:-1].ravel() + 1, sep[:, n_keys:].ravel())
    return None if values is None else values.reshape(rows, n_values)


def _scan_block(block: bytes, texts: list, n_values: int, row0: int,
                what: str) -> tuple[np.ndarray, int | None]:
    """The (rows, n_values) values of a block of whole lines for rows
    ``row0`` on, one line at a time, and the first of its rows in the scene
    whose key text is not the writer's, or None: the path of a block that
    ``_parse_block`` does not decide.

    A line must match the row's grammar whole: the digits of the frequency
    index, omega, the digits of the receiver index if the file has
    receiver rows, then ``n_values`` values, each field a ``g17._FLOAT``,
    separated by commas.  Any other line is a malformed row, named from
    the file's first data row, or holds a NUL byte, which is named as
    such; a value is converted by ``float()``.
    ``texts`` holds the key text per frequency and, if the file has
    receiver rows, per receiver.
    """
    grammar = re.compile(rb"(\d+,%s,%s)(%s)" % (_FLOAT, rb"\d+," * (len(texts) - 1),
                                                 b",".join([_FLOAT] * n_values)))
    n_rows = math.prod(map(len, texts))
    values, bad = [], None
    for k, line in enumerate(block.split(b"\n")[:-1], row0):
        row = grammar.fullmatch(line)
        if row is None:
            raise DataFormatError(f"{what} file holds a NUL byte" if b"\0" in line
                                  else f"malformed {what} row {k + 1}")
        if bad is None and k < n_rows:
            index = divmod(k, len(texts[1])) if len(texts) == 2 else (k,)
            if row[1] != b"".join(t[j] for t, j in zip(texts, index)):
                bad = k
        values.append([float(v) for v in row[2].split(b",")])
    return np.array(values), bad


def _blocks(raw):
    """The rest of the binary file ``raw`` in blocks of whole lines of about
    ``_READ_BYTES``; the last line gets a newline if it has none."""
    pending = b""
    while chunk := raw.read(_READ_BYTES):
        pending += chunk
        cut = pending.rfind(b"\n") + 1
        if cut:
            yield pending[:cut]
            pending = pending[cut:]
    if pending:
        yield pending if pending.endswith(b"\n") else pending + b"\n"


def _read_band(path, header: str, n_keys: int, scene: Scene, what: str) -> np.ndarray:
    """The values of a band file written for ``scene``, one per row: an
    (F, N) array if ``n_keys`` is 3 (frequency index, omega, receiver
    index), (F,) if it is 2 (no receiver column).  A row of two values (a
    field's) is read straight into the real and imaginary parts of a
    complex entry, a row of one into a float.

    The file must be the writer's text: the header line ``header`` byte for
    byte, then one line per row, each ended by a newline, of comma-separated
    fields without spaces.  The indices are digits; omega and the values
    are ``g17._FLOAT`` fields.  Every value must be finite, and the file must
    hold exactly the rows the writers emit for the scene: its key text
    equals that of ``_band_keys`` of the scene's band and array, row for
    row.  Omega is not parsed: its field must be the writer's own ``%.17g``
    text of the band's omega, byte for byte, which is "bit-equal to the
    band" without a float conversion.

    The first line is read to at most two bytes past the header's length,
    the rest in blocks of whole lines (``_blocks``), and a NUL anywhere is a
    DataFormatError, raised once the lines before its own are read.  A
    block whose lines are all the writer's own text for their rows is
    decided in NumPy passes (``_parse_block``); any other block is scanned
    a line at a time (``_scan_block``), which also decides the writer's
    text that the NumPy passes leave: subnormals, powers of ten outside
    the table and values near a rounding midpoint.  Errors name the file
    by ``what`` and come in this order: a malformed row or a NUL, no rows,
    a value that is not finite, the row count the scene expects, and the
    first data row whose keys differ.
    """
    omegas = _text(scene.band.omegas)
    n = scene.n_receivers
    n_rows = len(omegas) * (n if n_keys == 3 else 1)
    n_values = header.count(",") + 1 - n_keys
    texts = [[b"%d,%s," % (f, w.encode()) for f, w in enumerate(omegas)]]
    if n_keys == 3:
        texts.append([b"%d," % r for r in range(n)])
    keys = [_key_lanes(t) for t in texts]
    out = np.empty((len(omegas), n)[:n_keys - 1], dtype=complex if n_values == 2 else float)
    values = out.view(float).reshape(n_rows, n_values)
    rows, finite, bad = 0, True, None
    with open(path, "rb") as raw:
        # At most two bytes past the header's length: enough to show a CRLF,
        # and a CR-only file is not read whole as its first line.
        first = raw.readline(len(header) + 2)
        if b"\0" in first:
            raise DataFormatError(f"{what} file holds a NUL byte")
        if first != header.encode() + b"\n":
            try:
                # Not final: a character cut at the limit is not undecodable.
                head = codecs.getincrementaldecoder("utf-8")().decode(first)
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"undecodable bytes in {what} file: {exc}") from None
            raise DataFormatError(f"unexpected {what} header {head!r}")
        for block in _blocks(raw):
            # A block with a NUL is scanned, which raises at the NUL's line,
            # so which error comes first does not depend on the block size.
            parsed = None if b"\0" in block else _parse_block(block, keys, n_values, rows, n_rows)
            if parsed is None:
                parsed, mismatch = _scan_block(block, texts, n_values, rows, what)
                finite &= np.isfinite(parsed).all()
                bad = mismatch if bad is None else bad
            inside = parsed[:max(n_rows - rows, 0)]
            values[rows:rows + len(inside)] = inside
            rows += len(parsed)
    if rows == 0:
        raise DataFormatError(f"{what} file holds no rows")
    if not finite:
        raise DataFormatError(f"{what} data must be finite")
    if rows != n_rows:
        raise DataFormatError(f"{what} file holds {rows} data rows; "
                              f"the scene expects {n_rows}")
    if bad is not None:
        freq, receiver = divmod(bad, n) if n_keys == 3 else (bad, 0)
        text = ",".join([str(freq), omegas[freq], str(receiver)][:n_keys])
        raise DataFormatError(f"{what} data row {bad + 1} does not match the scene: "
                              f"its keys should be {text}")
    return out


def write_intensity_csv(omegas, data: IntensityData, path) -> None:
    """Rows sorted by (freq_index, receiver_index) on the band ``omegas``,
    17 significant digits."""
    _write_grid(path, _INTENSITY_HEADER, _band_keys(omegas, data.values.shape[1]),
                [data.values])


def write_illumination_csv(omegas, data: IntensityData, path) -> None:
    """One row per frequency of the band ``omegas``."""
    _write_grid(path, _ILLUMINATION_HEADER, [np.arange(omegas.shape[0]), omegas],
                [data.illumination])


def write_field_csv(omegas, values, path) -> None:
    """Per-frequency complex receiver fields, same ordering as intensity."""
    values = np.asarray(values, dtype=complex)
    omegas = np.asarray(omegas, dtype=float)
    _write_grid(path, _FIELD_HEADER, _band_keys(omegas, values.shape[1]),
                [values.real, values.imag])


def read_intensity_csv(path, scene: Scene, illumination_path=None) -> IntensityData:
    """Intensity rows on the scene's band and array (``_read_band``), with
    the illumination file's divisors, or 1 at every frequency without one."""
    values = _read_band(path, _INTENSITY_HEADER, 3, scene, "intensity")
    if illumination_path is None:
        illumination = np.ones(scene.band.count)
    else:
        illumination = _read_band(illumination_path, _ILLUMINATION_HEADER, 2, scene,
                                  "illumination")
    return IntensityData(values, illumination)


def read_field_csv(path, scene: Scene, what: str = "field") -> np.ndarray:
    """The (F, N) complex field of a file on the scene's band and array
    (``_read_band``), read into its real and imaginary parts; errors name
    the file ``what``."""
    return _read_band(path, _FIELD_HEADER, 3, scene, what)
