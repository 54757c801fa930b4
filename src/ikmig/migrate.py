"""Kirchhoff migration of per-frequency receiver fields onto an image grid.

An image is a plain (n, n) complex array on the scene's image window (the
first index runs along the window's first coordinate); the metrics and
the CSV writer take the window from the scene or as an argument.  A
single-frequency image backpropagates the field by conjugated travel-time
kernels from every receiver and from the source; the broadband image is
the uniform-weight frequency sum over the scene band.  In 3-D that sum is
exact and cheap: the band is equally spaced, so the kernel's frequency
dependence is a power of one phase factor per (cell, receiver), and
Horner's rule costs one multiply-add per (cell, receiver, frequency).  In
2-D the Hankel kernel is evaluated per frequency.  Cells that collide with
a receiver or the source are flagged NaN and excluded from metrics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .forward import (
    _distances,
    _green_from_distance,
    _spreading_3d,
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

# Most cells in one migration block, and so the bound on a block's
# (S, cells, N) temporaries: 0.5 MB for two fields of 501 receivers, which
# stays in a core's 2 MB L2 cache.  Migrating the `point` experiment's two
# fields at one thread (Xeon with AVX-512) took 0.75 s in blocks of 32,
# 0.83 s in 64 and 1.10 s in 256, and its peak RSS was 92, 94 and 108 MB.
_BLOCK_CELLS = 32


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _geometry(scene: Scene, cells: np.ndarray, spacing: float):
    """Distances from each of the (B, coords) cells to the receivers and to
    the source, and the mask of cells that collide with either."""
    d_recv = _distances(cells[:, None, :], scene.receivers[None, :, :])
    d_src = _distances(cells, scene.source)
    eps = _COLLISION_FRACTION * spacing
    mask = (d_recv < eps).any(axis=1) | (d_src < eps)
    d_recv[mask, :] = 1.0
    d_src[mask] = 1.0
    return d_recv, d_src, mask


def _apply_kernel(d_recv, d_src, mask, k: float, stack: np.ndarray):
    """Migrate a (S, N) stack of fields at wavenumber k in 2-D; returns (cells, S).

    Each image is the Hankel kernel conj(G(x, x_r) G(x, x_s)) times the field,
    summed over the contiguous receiver axis: elementwise work on (cells,
    N) rows and a row sum, so a cell's bits depend neither on the other
    cells of its block nor on the other fields of the stack.
    """
    g_src = _green_from_distance(d_src, k, 2)
    kernel = np.conj(_green_from_distance(d_recv, k, 2) * g_src[:, None])
    image = (kernel * stack[:, None, :]).sum(axis=-1).T
    image[mask, :] = complex(np.nan, np.nan)
    return image


def _horner_kernel(d_recv, d_src, mask, k: np.ndarray, stack: np.ndarray):
    """Unweighted 3-D band sum of a (S, F, N) stack; returns (cells, S).

    The band is equally spaced, k_j = k_0 + j dk, and the conjugated 3-D
    kernel is a e^{-i k_j tau}, with tau = d_r + d_s and a the product of
    the two legs' amplitudes, which do not depend on k.  So a cell's image
    is sum_r a_r e^{-i k_0 tau_r} P_r(w_r), with w_r = e^{-i dk tau_r} and
    P_r(w) = sum_j f_jr w^j, which Horner's rule evaluates with one
    multiply-add per frequency.  Like ``_apply_kernel`` it is elementwise
    work and a sum over the contiguous receiver axis, so a cell's bits do
    not depend on its block.
    """
    tau = d_recv + d_src[:, None]
    # dk from the band ends; k[1] - k[0] alone moved the `point` image by 8.1e-9.
    dk = (k[-1] - k[0]) / max(k.shape[0] - 1, 1)
    w = np.exp(-1j * dk * tau)
    acc = np.empty((stack.shape[0], *tau.shape), dtype=complex)
    acc[:] = stack[:, -1, None, :]
    for j in range(k.shape[0] - 2, -1, -1):
        acc *= w
        acc += stack[:, j, None, :]
    acc *= np.exp(-1j * k[0] * tau) / (_spreading_3d(d_recv) * _spreading_3d(d_src)[:, None])
    image = acc.sum(axis=-1).T
    image[mask, :] = complex(np.nan, np.nan)
    return image


def _block_edges(n_cells: int, threads: int) -> np.ndarray:
    """Bounds of an even split of the cells into blocks of at most
    ``_BLOCK_CELLS``, as many as a multiple of ``threads`` (or one per cell
    when there are fewer cells than threads), so every worker gets an
    equal share."""
    per_thread = -(-n_cells // (threads * _BLOCK_CELLS))
    count = min(n_cells, threads * per_thread)
    return np.arange(count + 1) * n_cells // count


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
        S field sets sampled on the scene band.
    window : ImageWindowSpec, optional
        The image window; the scene's when omitted.

    Returns
    -------
    list of S complex arrays of shape (n, n) on ``window``, one per field
    set, with NaN at cells that collide with a receiver or the source.

    Notes
    -----
    A 3-D scene sums the band exactly by Horner's rule
    (``_horner_kernel``); a 2-D scene sums the exact per-frequency kernel
    in ascending frequency.  The window's cells are split evenly into
    blocks of at most ``_BLOCK_CELLS``, a multiple of ``threads`` of them,
    which at most ``threads`` workers migrate (no more than the CPUs or
    the blocks).  Memory stays bounded by the block size, not the window,
    and neither the block size nor the thread count changes a bit of the
    result.
    """
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

    def block(bounds) -> np.ndarray:
        geometry = _geometry(scene, cells[bounds[0]:bounds[1]], window.spacing)
        if scene.dimension == 3:
            return _horner_kernel(*geometry, k, fields)
        total = _apply_kernel(*geometry, k[0], fields[:, 0])
        for i in range(1, k.shape[0]):
            total += _apply_kernel(*geometry, k[i], fields[:, i])
        return total

    edges = _block_edges(cells.shape[0], threads)
    # The split still follows ``threads``; workers beyond the CPUs or the
    # blocks would only start OS threads that have nothing to run.
    workers = min(threads, os.cpu_count() or 1, edges.shape[0] - 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(block, zip(edges[:-1], edges[1:])))
    total = np.concatenate(blocks)
    total *= scene.band.delta_omega

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
    geometry = check_geometric_condition(scene)
    g0 = direct_arrivals_band(scene)
    p = array_response_band(scene)
    degenerate = not np.any(p)
    spur = np.zeros_like(p) if degenerate else g0 / np.conj(g0) * np.conj(p)
    image_p, image_s = migrate_broadband_stack(scene, np.stack([p, spur], axis=2),
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
    position = window.cell_positions()[peak_idx]

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
    rayleigh = scene.lambda0 * scene.standoff / scene.aperture

    correlation = None
    if reference is not None:
        correlation = magnitude_correlation(image, reference)

    return ImageMetrics(
        peak_cell=cell,
        peak_position_m=tuple(position.tolist()),
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
    with 17 significant digits."""
    cells = window.cell_offsets()
    pos = window.cell_positions()
    _write_grid(path, _IMAGE_HEADER, [cells[:, None], cells, pos[:, :1, 0], pos[0, :, 1]],
                [image.real, image.imag, np.hypot(image.real, image.imag)])


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
    for j in range(n - 1, -1, -1):
        lines.append(" ".join(str(int(pixels[i, j])) for i in range(n)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
