"""Recovery of the measurable projection of the scattered field.

Per frequency the linearized power row is d = |fhat|^2 Re[conj(g0) (g0+2p)],
an underdetermined linear system in the real and imaginary parts of the
total field.  Its normal matrix is diagonal, so the minimum-norm solution
costs a handful of array operations over the whole band and yields

    ptilde = d / (|fhat|^2 conj(g0)) - g0,

which equals p plus a conjugate-mirrored term; migration suppresses the
mirror.  The tests check this formula against a dense pseudo-inverse of
the explicit measurement matrix (``tests/ref_recover.py``).  The module
also provides the condition number at every band frequency and the
geometric visibility check on the scene's imaging window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError, SingularityError
from .forward import IntensityData, _distances, _finite_rows, direct_arrivals_band
from .scene import ImageWindowSpec, Scene

__all__ = [
    "GeometryReport",
    "recover_ptilde",
    "recover_band",
    "condition_number",
    "check_geometric_condition",
]


def recover_ptilde(g0, d, illumination) -> np.ndarray:
    """Minimum-norm recovery of the field projection over a band.

    Parameters
    ----------
    g0 : complex array of shape (F, N)
        Direct arrivals, all entries nonzero.
    d : real array of shape (F, N)
        Phaseless data rows.
    illumination : real array of shape (F,)
        Per-frequency divisor: |fhat|^2, or 2*pi*Fhat for stochastic data.

    Returns
    -------
    The (F, N) complex projection ptilde.  Its data misfit is zero up to
    roundoff by construction.  A value that overflows, as it may for huge
    data or tiny but positive illumination, raises NumericError naming its
    first (frequency, receiver).

    Notes
    -----
    Cost is a fixed number of elementwise operations on (F, N) arrays; no
    matrix is formed.
    """
    g0, d, illumination = (np.asanyarray(a) for a in (g0, d, illumination))
    if g0.ndim != 2 or d.shape != g0.shape or illumination.shape != g0.shape[:1]:
        raise DataFormatError("data rows and illumination must lie on the scene's "
                              "band and array")
    dark = np.flatnonzero(~(illumination > 0.0))
    if dark.size:
        raise NumericError(f"illumination at frequency {dark[0]} is not positive")
    if np.any(g0 == 0):
        raise SingularityError("zero direct arrival; measurement is rank-deficient")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ptilde = d / (illumination[:, None] * np.conj(g0)) - g0
    return _finite_rows(ptilde, "recovered field")


def recover_band(scene: Scene, data: IntensityData) -> np.ndarray:
    """Recover every frequency row of a data set on the scene's band and
    array; returns (F, N) complex.

    The rows are ``recover_ptilde`` of the scene's direct arrivals, the
    data and its illumination.  Data of another shape are rejected there;
    the data carry no band, so ``read_intensity_csv`` is what checks a
    file's rows against the scene.
    """
    return recover_ptilde(direct_arrivals_band(scene), data.values, data.illumination)


def condition_number(scene: Scene) -> np.ndarray:
    """Spectral condition number of the measurement matrix, per band frequency.

    Equal to the ratio of extreme direct-arrival moduli: the distance ratio
    for three-dimensional propagation, the Hankel-envelope ratio in two.
    """
    if scene.dimension == 3:
        dists = _distances(scene.receivers, scene.source)
        return np.full(scene.band.count, np.max(dists) / np.min(dists))
    moduli = np.abs(direct_arrivals_band(scene))
    return np.max(moduli, axis=1) / np.min(moduli, axis=1)


# ---------------------------------------------------------------------------
# geometric visibility check
# ---------------------------------------------------------------------------

# Angle (radians) by which the cone test widens each receiver's view cone
# of the window: a source direction this close to the cone counts as inside.
_THETA_TOL = 1e-6


@dataclass(frozen=True)
class GeometryReport:
    ok: bool
    violating_receivers: tuple[int, ...]
    theta_tol: float


def _window_corners(window: ImageWindowSpec) -> np.ndarray:
    """(4, coords) corners of the window, in the order (-,-), (-,+), (+,-), (+,+)."""
    corners = np.tile(np.asarray(window.center, dtype=float), (4, 1))
    corners[:, :2] += window.half_extent * window.spacing * np.array(
        [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    return corners


def _source_in_cone(dirs: np.ndarray, s: np.ndarray, tol: float) -> np.ndarray:
    """Per receiver, whether the source direction s (N, coords) lies within
    chord 2 sin(tol/2) of the cone spanned by its four corner directions
    dirs (N, 4, coords).  A zero direction counts as inside.

    Two coordinates are lifted into the plane z = 0.  The distance from
    the unit source direction to the cone is the least over its rays,
    faces and solids that the source projects into: to a ray u with
    u.s >= 0 it is |u x s|; to a face ui, uj whose two Cramer
    coefficients are nonnegative it is |s.n| / |n|, n = ui x uj; inside
    a solid triple, whose triple-product coefficients are all
    nonnegative, it is 0.
    """
    if dirs.shape[-1] == 2:
        dirs, s = (np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)
                   for a in (dirs, s))
    norms = np.linalg.norm(dirs, axis=2)
    sn = np.linalg.norm(s, axis=1)
    degenerate = (norms == 0.0).any(axis=1) | (sn == 0.0)
    u = dirs / np.where(norms == 0.0, 1.0, norms)[:, :, None]
    s = (s / np.where(sn == 0.0, 1.0, sn)[:, None])[:, None, :]
    chord = 2.0 * math.sin(0.5 * tol) + 1e-12
    ray = ((u * s).sum(axis=2) >= 0.0) & (np.linalg.norm(np.cross(u, s), axis=2) <= chord)
    # Faces ij = 01, 02, 03, 12, 13, 23, and h = s.n, |n| times the height
    # of s above each face's plane.
    ui, uj = u[:, [0, 0, 0, 1, 1, 2]], u[:, [1, 2, 3, 2, 3, 3]]
    n = np.cross(ui, uj)
    nn = np.linalg.norm(n, axis=2)
    h = (s * n).sum(axis=2)
    face = ((nn > 0.0) & ((np.cross(s, uj) * n).sum(axis=2) >= 0.0)
            & ((np.cross(ui, s) * n).sum(axis=2) >= 0.0) & (np.abs(h) <= chord * nn))
    # Solids ijk = 012, 013, 023, 123 take their Cramer numerators
    # s.(uj x uk), s.(uk x ui), s.(ui x uj) from faces jk, ik (negated), ij.
    jk, ik, ij = [3, 4, 5, 5], [1, 2, 2, 4], [0, 0, 1, 3]
    det = (u[:, [0, 0, 0, 1]] * n[:, jk]).sum(axis=2)
    solid = (det != 0.0) & (np.stack([h[:, jk], -h[:, ik], h[:, ij]]) * det >= 0.0).all(axis=0)
    return degenerate | ray.any(axis=1) | face.any(axis=1) | solid.any(axis=1)


def check_geometric_condition(scene: Scene) -> GeometryReport:
    """Flag receivers whose view cone of the scene window contains the
    source direction.

    The window is convex, so the set of directions from a receiver to
    window points is the cone spanned by the four corner directions.  One
    exact test serves windows of two and three coordinates: a receiver is
    flagged when the unit source direction lies within chord
    2 sin(``_THETA_TOL``/2) of that cone, or when the receiver sits on a
    corner or on the source.  A receiver on a window edge sees the closed
    half-plane on the window's side of it.
    """
    corners = _window_corners(scene.window)
    recv = scene.receivers
    inside = _source_in_cone(corners - recv[:, None], scene.source - recv, _THETA_TOL)
    flagged = tuple(np.flatnonzero(inside).tolist())
    return GeometryReport(not flagged, flagged, _THETA_TOL)
