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

import itertools
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


def _source_in_cone_2d(dirs: np.ndarray, s: np.ndarray, tol: float) -> np.ndarray:
    """Per receiver, whether the source direction s (N, 2) lies within tol of
    the fan of its four corner directions dirs (N, 4, 2).  A zero direction,
    corners that cancel, or a fan of pi or more counts as inside."""
    norms = np.linalg.norm(dirs, axis=2)
    sn = np.linalg.norm(s, axis=1)
    units = dirs / np.where(norms == 0.0, 1.0, norms)[:, :, None]
    mean = units.mean(axis=1)
    mn = np.linalg.norm(mean, axis=1)
    degenerate = (norms == 0.0).any(axis=1) | (mn < 1e-12) | (sn == 0.0)
    u = mean / np.where(mn < 1e-12, 1.0, mn)[:, None]
    s = s / np.where(sn == 0.0, 1.0, sn)[:, None]

    def angle(v, ref):
        """Signed angle from ref to v, both over the last axis."""
        return np.arctan2(v[..., 0] * ref[..., 1] - v[..., 1] * ref[..., 0],
                          v[..., 0] * ref[..., 0] + v[..., 1] * ref[..., 1])

    ang = angle(units, u[:, None, :])
    lo, hi = ang.min(axis=1), ang.max(axis=1)
    ang_s = angle(s, u)
    return degenerate | (hi - lo >= math.pi) | ((lo - tol <= ang_s) & (ang_s <= hi + tol))


# Column sets of the 4 corner directions that may carry the nonnegative
# least-squares optimum in R^3: every nonempty set of at most three, since
# an optimal combination needs no more linearly independent columns.
_SUPPORTS = tuple(list(c) for m in (1, 2, 3) for c in itertools.combinations(range(4), m))


def _source_in_cone_3d(dirs: np.ndarray, s: np.ndarray, tol: float) -> np.ndarray:
    """Per receiver, whether the source direction s (N, 3) lies within tol
    of the cone spanned by its four corner directions dirs (N, 4, 3).  A
    zero direction counts as inside.

    The distance from the unit source direction to the cone is its exact
    nonnegative least-squares residual on the unit corner directions: the
    smallest residual of the least-squares fits on ``_SUPPORTS`` whose
    coefficients are all nonnegative, or 1, the empty combination's.  Each
    fit is a feasible point, so its residual is taken from its
    coefficients, never assumed.
    """
    norms = np.linalg.norm(dirs, axis=2)
    sn = np.linalg.norm(s, axis=1)
    degenerate = (norms == 0.0).any(axis=1) | (sn == 0.0)
    units = dirs / np.where(norms == 0.0, 1.0, norms)[:, :, None]
    s = (s / np.where(sn == 0.0, 1.0, sn)[:, None])[:, :, None]
    rnorm = np.ones(s.shape[0])
    for support in _SUPPORTS:
        a = units[:, support, :].transpose(0, 2, 1)
        q, r = np.linalg.qr(a)
        singular = np.linalg.det(r) == 0.0
        r[singular] = np.eye(len(support))
        c = np.linalg.solve(r, q.transpose(0, 2, 1) @ s)
        feasible = ~singular & (c >= 0.0).all(axis=(1, 2))
        residual = np.linalg.norm(a @ c - s, axis=(1, 2))
        rnorm = np.where(feasible, np.minimum(rnorm, residual), rnorm)
    return degenerate | (rnorm <= 2.0 * math.sin(0.5 * tol) + 1e-12)


def check_geometric_condition(scene: Scene) -> GeometryReport:
    """Flag receivers whose view cone of the scene window contains the
    source direction.

    The window is convex, so the set of unit directions from a receiver to
    window points is spanned by the four corner directions; the check tests
    source-direction membership against that span within ``_THETA_TOL``.
    """
    corners = _window_corners(scene.window)
    recv = scene.receivers
    in_cone = _source_in_cone_2d if scene.coords == 2 else _source_in_cone_3d
    inside = in_cone(corners - recv[:, None], scene.source - recv, _THETA_TOL)
    flagged = tuple(np.flatnonzero(inside).tolist())
    return GeometryReport(not flagged, flagged, _THETA_TOL)
