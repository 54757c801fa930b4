"""Kirchhoff migration of per-frequency receiver fields onto an image grid.

An image is a plain (n, n) complex array on the scene's image window (the
first index runs along the window's first coordinate); the metrics and
the CSV writer take the window from the scene or as an argument.  A
single-frequency image backpropagates the field by conjugated travel-time
kernels from every receiver and from the source; the broadband image is
the uniform-weight frequency sum over the scene band.  In 3-D that sum is
exact and cheap: the band is equally spaced, so the kernel's frequency
dependence is a power of one phase factor per (cell, receiver), and
Horner's rule costs one multiply-add per (cell, receiver, frequency),
after two phase factors e^{-i theta} per (cell, receiver).  Their phases
reach 1e6 rad and more; they come from ``forward._phase``, the package's
one phase primitive, within 0.75 ulp of 1, as accurate as ``np.exp``'s,
about ulp(theta), theta's own rounding.  In 2-D the Hankel kernel is
evaluated per frequency.  Complex products go through
``forward._multiply``, so a block of one cell and one receiver rounds as
a longer one does.  A pool of workers migrates the window, each one
contiguous run of its cells, in blocks; a worker writes
every (cells, receivers)-sized intermediate into one workspace of its
own (``_Workspace``) that it reuses for all its blocks, so memory is
workers x one workspace and the images are the same to the bit whatever
the runs, the blocks or the thread count.  From 96 receivers
(``_ROW_BUFFER_RECEIVERS``) up, a worker also shrinks NumPy's ufunc buffer
to one receiver row: NumPy runs a pass that broadcasts over rows shorter
than its buffer through that buffer, copying every operand, and those
copies were about a fifth of the migration on 501 receivers.  Shorter
rows keep the buffer, since merging them there pays.  Cells that collide with a
receiver or the source are flagged NaN and excluded from metrics; a
band sum that overflows elsewhere is a numeric error naming its first
cell.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError
from .forward import (
    _distances,
    _green_from_distance,
    _multiply,
    _phase,
    _PhaseBuffers,
    _spreading_3d,
    _view,
    _wavenumbers,
    _write_grid,
    array_response_band,
    direct_arrivals_band,
)
from .recover import check_geometric_condition
from .scene import ImageWindowSpec, Scene

__all__ = [
    "ImageMetrics",
    "SpuriousReport",
    "migrate_broadband_stack",
    "spurious_term_image",
    "image_metrics",
    "magnitude_correlation",
    "write_image_csv",
    "write_image_pgm",
]

# Cells closer to a receiver/source than this fraction of the cell spacing
# are treated as collisions.
_COLLISION_FRACTION = 1e-9

# Most cells in one migration block: a worker walks its run of cells in
# blocks of this many, and its one workspace holds one block, 1.7 MB for
# two fields of 501 receivers, 0.5 MB of it the (S, cells, N)
# accumulator.  Migrating two fields at one thread on a 2-vCPU Xeon, with
# the row-sized ufunc buffer below (medians of 7 fresh processes, two
# rounds), took, in blocks of 16, 32 and 64 cells, 0.42/0.47, 0.39/0.39
# and 0.41/0.43 s on the `point` window (2601 cells, 100 frequencies),
# and 0.42/0.47, 0.43/0.35 and 0.44/0.40 s on the 14,641-cell window of 6
# frequencies that the benchmark's `wide3d` migrates: 32 is fastest on
# the first, and on the second no size leads in both rounds.
# Two threads barely beat one at this size: each NumPy call of a worker
# does about 20 us of work, and the pool's two threads queue on the GIL
# between calls.  The host does scale: a Horner-style add/multiply loop
# over (2, 32, 501) arrays took 0.142 s at one thread and 0.134 s at
# two, while two processes pinned to their own CPUs, on 64-cell blocks,
# took 0.206 and 0.205 s against 0.207 s for one process alone.  Blocks
# of 64 cells cut `wide3d`'s window at two threads from 365 to 272 ms
# (8 of 8 pairs), but on `point` at one thread took 348 against 336 ms
# (slower in 9 of 10 pairs), and they double a workspace to 3.3 MB.
_BLOCK_CELLS = 32

# Fewest receivers for which a worker shrinks NumPy's ufunc buffer to one
# row.  NumPy runs a pass that broadcasts an operand over (cells, N) rows
# shorter than its buffer (8192 elements) through the buffer, copying
# each operand chunk by chunk; with a buffer of one row it runs on the
# operands in place.  Short rows gain from the copying, which merges them.
# One 32-cell block (geometry and the Horner kernel, two fields, 100
# frequencies, one CPU of a 2-vCPU Xeon, medians of 20 in each of two or
# three processes), NumPy's buffer against one row: N = 8, 0.66-0.79
# against 0.98-1.10 ms; 32, 1.02-1.16 against 1.37-1.41; 64, 1.45-1.79
# against 1.58-1.80; 80, 1.66-1.98 against 1.69-1.89; 96, 1.96-2.40
# against 1.83-2.13; 128, 2.34-2.64 against 2.05-2.23; 501, 7.26-7.27
# against 5.71-5.75.
_ROW_BUFFER_RECEIVERS = 96


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class _Workspace(_PhaseBuffers):
    """One pool worker's buffers, reused by every block it migrates.

    Flat arrays of up to ``cells`` x ``receivers`` entries: the scratch of
    ``forward._phase`` (three real buffers and two complex ones, ``n``,
    ``prod``, ``r``, ``z`` and ``zb``), two more real ones (the receiver
    distances ``d_recv`` and the amplitudes ``amp``), and the accumulator
    ``acc`` of ``fields`` fields.  ``_view`` shapes a buffer's leading part
    to a block.
    """

    def __init__(self, cells: int, receivers: int, fields: int):
        size = cells * receivers
        super().__init__(size)
        self.d_recv, self.amp = np.empty(size), np.empty(size)
        self.acc = np.empty(fields * size, dtype=complex)


def _geometry(scene: Scene, cells: np.ndarray, spacing: float, ws: _Workspace):
    """Distances from each of the (B, coords) cells to the receivers and to
    the source, and the mask of cells that collide with either.  The (B, N)
    receiver distances are a view of ``ws.d_recv``."""
    shape = (cells.shape[0], scene.n_receivers)
    d_recv = _distances(cells[:, None, :], scene.receivers[None, :, :],
                        out=_view(ws.d_recv, shape), scratch=_view(ws.r, shape))
    d_src = _distances(cells, scene.source)
    eps = _COLLISION_FRACTION * spacing
    mask = (d_recv < eps).any(axis=1) | (d_src < eps)
    d_recv[mask, :] = 1.0
    d_src[mask] = 1.0
    return d_recv, d_src, mask


def _apply_kernel(d_recv, d_src, k: float, stack: np.ndarray):
    """Migrate a (S, N) stack of fields at wavenumber k in 2-D; returns the
    raw (cells, S) sums, collided cells included.

    Each image is the Hankel kernel conj(G(x, x_r) G(x, x_s)) times the field,
    summed over the contiguous receiver axis: elementwise work on (cells,
    N) rows, its complex products through ``_multiply``, and a row sum, so
    a cell's bits depend neither on the other cells of its block nor on
    the other fields of the stack.
    """
    g_src = _green_from_distance(d_src, k, 2)
    kernel = _green_from_distance(d_recv, k, 2)
    kernel = np.conjugate(_multiply(kernel, g_src[:, None], kernel), out=kernel)
    return _multiply(kernel, stack[:, None, :]).sum(axis=-1).T


def _horner_kernel(d_recv, d_src, k: np.ndarray, stack: np.ndarray, ws: _Workspace):
    """Unweighted 3-D band sum of a (S, F, N) stack; returns the raw (cells, S)
    sums, collided cells included.

    The band is equally spaced, k_j = k_0 + j dk, and the conjugated 3-D
    kernel is a e^{-i k_j tau}, with tau = d_r + d_s and a = 1/(16 pi^2 d_r
    d_s) the product of the two legs' amplitudes, which do not depend on
    k.  So a cell's image is sum_r a_r e^{-i k_0 tau_r} P_r(w_r), with
    w_r = e^{-i dk tau_r} and P_r(w) = sum_j f_jr w^j, which Horner's rule
    evaluates with one multiply-add per frequency.  The two phase factors
    per (cell, receiver) come from ``forward._phase``, a table phasor times
    a Taylor series of the remainder, within 0.75 ulp of 1 of e^{-i theta}
    at the double theta: about ulp of their phase, theta's own rounding,
    as with ``np.exp``.  Like ``_apply_kernel`` it is elementwise work,
    with its complex products through ``_multiply``, and a sum over the
    contiguous receiver axis, so a cell's bits do not depend on its block.
    Its (cells, N) temporaries are views of ``ws``; it writes every buffer
    but ``ws.d_recv``, which may hold d_recv.
    """
    shape = d_recv.shape
    # tau is formed again for each phase, which keeps it out of the workspace.
    theta = np.add(d_recv, d_src[:, None], out=_view(ws.r, shape))
    # dk from the band ends; k[1] - k[0] alone moved the `point` image by 8.1e-9.
    theta *= (k[-1] - k[0]) / max(k.shape[0] - 1, 1)
    w = _phase(theta, ws)
    # One band sample (dk = 0) makes w exactly 1, so the seed is f_0 itself.
    acc = _multiply(stack[:, -1, None, :], w, _view(ws.acc, (stack.shape[0],) + shape))
    for j in range(k.shape[0] - 2, -1, -1):
        acc += stack[:, j, None, :]
        if j:
            _multiply(acc, w, acc)
    # The recurrence is done with w, so the second factor takes its buffer.
    amp = _spreading_3d(d_recv, out=_view(ws.amp, shape))
    amp *= _spreading_3d(d_src)[:, None]
    np.divide(1.0, amp, out=amp)
    np.add(d_recv, d_src[:, None], out=theta)
    theta *= k[0]
    _multiply(acc, _phase(theta, ws, amp), acc)
    return acc.sum(axis=-1).T


@contextmanager
def _worker_numerics(receivers: int):
    """NumPy's state for a worker's passes over rows of ``receivers``:
    overflow and invalid warnings off and, from ``_ROW_BUFFER_RECEIVERS``
    up, a ufunc buffer of one row, rounded up to 16 elements and no larger
    than the thread's own.  ``np.errstate`` scopes both."""
    with np.errstate(over="ignore", invalid="ignore"):
        if receivers >= _ROW_BUFFER_RECEIVERS:
            np.setbufsize(min(np.getbufsize(), -(-receivers // 16) * 16))
        yield


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_threads(threads) -> None:
    """Refuse a thread count that is not an integer >= 1; a bool is not one."""
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise DataFormatError(f"threads must be an integer >= 1, not {threads!r}")


def migrate_broadband_stack(
    scene: Scene,
    stack: np.ndarray,
    window: ImageWindowSpec | None = None,
    threads: int = 1,
) -> list[np.ndarray]:
    """Broadband images of several field sets sharing one kernel pass.

    Parameters
    ----------
    stack : complex array (F, N, S)
        S field sets sampled on the scene band.  The kernels read them as
        one C-contiguous (S, F, N) array: a stack that is the transpose of
        one, ``np.stack(fields).transpose(1, 2, 0)``, is read in place, and
        any other is copied into that layout once.
    window : ImageWindowSpec, optional
        The image window; the scene's when omitted.
    threads : int
        Most pool workers, at least 1; anything else, a bool or a float
        among them, is a DataFormatError raised before any work.

    Returns
    -------
    list of S complex arrays of shape (n, n) on ``window``, one per field
    set, with NaN at cells that collide with a receiver or the source.

    Notes
    -----
    A 3-D scene sums the band exactly by Horner's rule
    (``_horner_kernel``), with its phase factors e^{-i theta} from
    ``forward._phase``, a table of 1024 unit phasors and a Taylor series
    of the remainder, with no float64 cosine or sine, in about 0.6 of
    their time, within 0.75 ulp of 1, so about ulp(theta), as ``np.exp`` is; a
    2-D scene sums the exact per-frequency kernel in ascending frequency.
    The window's cells are split into one contiguous run per worker, of
    equal length within one cell, for ``threads`` workers at most (no more
    than the CPUs the process may use, or the cells).  Each worker gets
    one workspace, built once per call, and walks its run in blocks of at
    most ``_BLOCK_CELLS``, writing each block's sums into the output and
    marking its collided cells NaN.  A workspace is B N (5 * 8 + 2 * 16 +
    S * 16) bytes for blocks of at most B cells, N receivers and S fields,
    1.7 MB on the `point` preset (32 cells, 501 receivers, two fields).
    Memory is bounded by workers x one workspace plus the output, not by
    the window; the 2-D kernel adds its per-frequency temporaries of one
    block.  Every cell's sum takes the same operations in the same order
    whatever its run, its block and the workspace, so neither the block
    size nor the thread count changes a bit of the result.  The workers
    compute with NumPy's overflow and invalid warnings off; a cell outside
    the collisions whose sum is not finite raises NumericError naming the
    first such cell (ix, iy).

    For N of at least ``_ROW_BUFFER_RECEIVERS`` (96) receivers, each
    worker sets NumPy's ufunc buffer to N rounded up to a multiple of 16,
    and no larger than its own (8192 elements by default).  A pass that
    broadcasts an operand over (cells, N) rows shorter than the buffer,
    such as ``acc += stack[:, j, None, :]`` in the Horner loop, is run
    through the buffer, each operand copied in chunks; with a buffer of
    one row, it runs on the operands in place.  That took a one-thread
    `point` migration from about 0.50 to 0.40 s.  Below the crossover the
    buffer is left alone, since merging short rows in it is faster.  The
    setting lives in the worker's ``np.errstate`` scope, so the calling
    thread's buffer is untouched, and it changes how a pass is chunked,
    not what it computes: no bit of the images.
    """
    _check_threads(threads)
    window = window or scene.window
    k = _wavenumbers(scene)
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[:2] != (k.shape[0], scene.n_receivers):
        raise DataFormatError("stack must have shape (F, N, S) on the scene band")
    pos = window.cell_positions()
    if pos.shape[2] != scene.coords:
        raise DataFormatError("window coordinate length must match the scene")
    cells = pos.reshape(-1, scene.coords)
    fields = np.ascontiguousarray(stack.transpose(2, 0, 1))
    n_cells = cells.shape[0]
    # Workers beyond the usable CPUs or the cells would have nothing to run.
    workers = min(threads, _usable_cpus(), n_cells)
    edges = [worker * n_cells // workers for worker in range(workers + 1)]
    # Built here, not in the workers: a pool thread allocates from its own
    # malloc arena, and what it frees there stays resident after the call,
    # out of reach of this thread (1.5 MB more peak RSS on `point`).
    spaces = [_Workspace(min(_BLOCK_CELLS, stop - start), scene.n_receivers, fields.shape[0])
              for start, stop in zip(edges, edges[1:])]
    total = np.empty((n_cells, fields.shape[0]), dtype=complex)
    collided = np.empty(n_cells, dtype=bool)

    def run(worker: int) -> None:
        start, stop, ws = edges[worker], edges[worker + 1], spaces[worker]
        # NumPy's state is per thread, so the pool's threads set their own;
        # a sum that overflows is reported once, below.
        with _worker_numerics(scene.n_receivers):
            for lo in range(start, stop, _BLOCK_CELLS):
                hi = min(lo + _BLOCK_CELLS, stop)
                d_recv, d_src, mask = _geometry(scene, cells[lo:hi], window.spacing, ws)
                collided[lo:hi] = mask
                out = total[lo:hi]
                if scene.dimension == 3:
                    out[:] = _horner_kernel(d_recv, d_src, k, fields, ws)
                else:
                    out[:] = _apply_kernel(d_recv, d_src, k[0], fields[:, 0])
                    for i in range(1, k.shape[0]):
                        out += _apply_kernel(d_recv, d_src, k[i], fields[:, i])
                out *= scene.band.delta_omega
                out[mask] = complex(np.nan, np.nan)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))
    overflowed = np.flatnonzero(~(np.isfinite(total).all(axis=1) | collided))
    if overflowed.size:
        ix, iy = np.unravel_index(overflowed[0], pos.shape[:2])
        he = window.half_extent
        raise NumericError(f"band sum overflows at cell ({ix - he}, {iy - he})")
    n = window.cells_per_side
    return [total[:, s].reshape(n, n) for s in range(stack.shape[2])]


# ---------------------------------------------------------------------------
# spurious-term diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpuriousReport:
    """Size of the migrated conjugate-mirror term relative to the signal."""

    ratio: float
    degenerate: bool
    geometry_ok: bool


def spurious_term_image(
    scene: Scene, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, SpuriousReport]:
    """Migrate the true response p and the mirror term (conj(g0))^-1 g0 conj(p)
    over the band, in one kernel pass.

    Returns (true image, mirror image, report), the images on the scene's
    window; the report holds the mirror's peak magnitude against the true
    image's.  The geometric visibility check runs first; a failing check is
    reported, not raised.
    """
    _check_threads(threads)
    geometry = check_geometric_condition(scene)
    g0 = direct_arrivals_band(scene)
    p = array_response_band(scene)
    degenerate = not np.any(p)
    # p and the mirror term are formed in the (S, F, N) stack the kernels
    # read, and g0 and p are dropped before the kernel pass.
    stack = np.zeros((2,) + p.shape, dtype=complex)
    stack[0] = p
    if not degenerate:
        _multiply(g0 / np.conj(g0), np.conj(p), stack[1])
    del g0, p
    image_p, image_s = migrate_broadband_stack(scene, stack.transpose(1, 2, 0),
                                               threads=threads)
    peak_p = float(np.nanmax(np.abs(image_p)))
    peak_s = float(np.nanmax(np.abs(image_s)))
    ratio = 0.0 if degenerate else peak_s / peak_p
    return image_p, image_s, SpuriousReport(ratio, degenerate, geometry.ok)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageMetrics:
    peak_cell: tuple[int, int]
    peak_position_m: tuple[float, ...]
    peak_value: float
    range_axis: int
    range_fwhm_m: float
    crossrange_fwhm_m: float
    rayleigh_estimate_m: float
    range_estimate_m: float
    correlation: float | None
    flags: tuple[str, ...]


def magnitude_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized inner product of magnitude layers over co-valid cells."""
    ma, mb = np.abs(a), np.abs(b)
    if ma.shape != mb.shape:
        raise DataFormatError("images must share a grid")
    valid = ~(np.isnan(ma) | np.isnan(mb))
    ma, mb = ma[valid], mb[valid]
    na, nb = np.linalg.norm(ma), np.linalg.norm(mb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((ma * mb).sum() / (na * nb))


def _fwhm_profile(profile: np.ndarray, peak: int, spacing: float):
    """Full width at half maximum along one grid line, by linear interpolation.

    Returns (width_m, clipped) where clipped means a half-maximum crossing
    was not bracketed inside the grid (or hit a masked cell).
    """
    top = profile[peak]
    half = 0.5 * top
    edges = []
    for step in (-1, 1):
        i = peak
        while True:
            j = i + step
            if j < 0 or j >= profile.shape[0] or np.isnan(profile[j]):
                return math.nan, True
            if profile[j] <= half:
                frac = (profile[i] - half) / (profile[i] - profile[j])
                edges.append(i + step * frac)
                break
            i = j
    return (edges[1] - edges[0]) * spacing, False


def image_metrics(image: np.ndarray, scene: Scene,
                  reference: np.ndarray | None = None) -> ImageMetrics:
    """Peak location, widths, resolution estimates and, given a reference
    image, the magnitude correlation, of an image on the scene's window."""
    window = scene.window
    if np.shape(image) != (window.cells_per_side,) * 2:
        raise DataFormatError("image shape must match the scene window")
    mag = np.abs(image)
    flags = []
    valid = ~np.isnan(mag)
    if not valid.any() or np.nanmax(mag) == 0.0:
        flags.append("degenerate_zero_image")
        peak_idx = (0, 0)
        peak_val = 0.0
    else:
        flat = np.nanargmax(mag)
        peak_idx = np.unravel_index(flat, mag.shape)
        peak_val = float(mag[peak_idx])

    he = window.half_extent
    cell = (int(peak_idx[0]) - he, int(peak_idx[1]) - he)
    position = list(window.center)
    for axis in (0, 1):
        position[axis] += cell[axis] * window.spacing

    direction = np.asarray(window.center)[:2] - scene.array_center[:2]
    range_axis = 0 if abs(direction[0]) >= abs(direction[1]) else 1

    if "degenerate_zero_image" in flags:
        fwhm = {0: math.nan, 1: math.nan}
        flags.extend(["range_fwhm_clipped", "crossrange_fwhm_clipped"])
    else:
        fwhm = {}
        for axis in (0, 1):
            profile = mag[:, peak_idx[1]] if axis == 0 else mag[peak_idx[0], :]
            width, clipped = _fwhm_profile(profile, int(peak_idx[axis]), window.spacing)
            fwhm[axis] = width
            if clipped:
                name = "range" if axis == range_axis else "crossrange"
                flags.append(f"{name}_fwhm_clipped")

    band = scene.band
    bandwidth_hz = band.f_max_hz - band.f_min_hz
    range_estimate = math.inf if bandwidth_hz == 0.0 else scene.c0 / bandwidth_hz
    aperture = scene.aperture
    rayleigh = math.inf if aperture == 0.0 else scene.lambda0 * scene.standoff / aperture

    correlation = None
    if reference is not None:
        correlation = magnitude_correlation(image, reference)

    return ImageMetrics(
        peak_cell=cell,
        peak_position_m=tuple(position),
        peak_value=peak_val,
        range_axis=range_axis,
        range_fwhm_m=fwhm[range_axis],
        crossrange_fwhm_m=fwhm[1 - range_axis],
        rayleigh_estimate_m=rayleigh,
        range_estimate_m=range_estimate,
        correlation=correlation,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_IMAGE_HEADER = "ix,iy,x_m,y_m,re,im,abs"


def write_image_csv(image: np.ndarray, window: ImageWindowSpec, path) -> None:
    """Row-major cell dump (first index slow) of an image on ``window``,
    with 17 significant digits; abs is inf where |z| passes the float range."""
    cells = window.cell_offsets()
    off = cells * window.spacing
    with np.errstate(over="ignore"):
        magnitude = np.hypot(image.real, image.imag)
    _write_grid(path, _IMAGE_HEADER,
                [cells[:, None], cells, window.center[0] + off[:, None], window.center[1] + off],
                [image.real, image.imag, magnitude])


def write_image_pgm(image: np.ndarray, path) -> None:
    """8-bit ASCII PGM preview of the magnitude layer.

    Min-max normalized; a flat image maps to 255 when nonzero, else 0.
    Masked cells render as 0.  The top pixel row is the maximum second
    (cross-range) coordinate.
    """
    mag = np.abs(image)
    finite = np.nan_to_num(mag, nan=0.0)
    valid = ~np.isnan(mag)
    lo = float(finite[valid].min()) if valid.any() else 0.0
    hi = float(finite[valid].max()) if valid.any() else 0.0
    n = mag.shape[0]
    if hi > lo:
        scaled = np.clip((finite - lo) / (hi - lo) * 255.0, 0.0, 255.0)
        pixels = np.rint(scaled).astype(int)
    elif hi > 0.0:
        pixels = np.full(mag.shape, 255, dtype=int)
    else:
        pixels = np.zeros(mag.shape, dtype=int)
    pixels[~valid] = 0
    lines = ["P2", f"{n} {n}", "255"]
    lines += (" ".join(map(str, row)) for row in pixels.T[::-1].tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
