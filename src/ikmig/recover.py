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
from .forward import IntensityData, _distances, direct_arrivals_band
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
    roundoff by construction.

    Notes
    -----
    Cost is a fixed number of elementwise operations on (F, N) arrays; no
    matrix is formed.
    """
    g0, d, illumination = (np.asanyarray(a) for a in (g0, d, illumination))
    if g0.ndim != 2 or d.shape != g0.shape or illumination.shape != g0.shape[:1]:
        raise DataFormatError("data rows and illumination must match g0 in shape")
    dark = np.flatnonzero(~(illumination > 0.0))
    if dark.size:
        raise NumericError(f"illumination at frequency {dark[0]} is not positive")
    if np.any(g0 == 0):
        raise SingularityError("zero direct arrival; measurement is rank-deficient")
    return d / (illumination[:, None] * np.conj(g0)) - g0


def recover_band(scene: Scene, data: IntensityData) -> np.ndarray:
    """Recover every frequency row of a data set; returns (F, N) complex.

    The data must lie on the scene band and array: ``read_intensity_csv``
    ensures it for a file, and this check for data built in process for
    another scene.  The rows are ``recover_ptilde`` of the scene's direct
    arrivals, the data and its illumination.
    """
    band = scene.band.omegas
    if data.omegas.shape != band.shape or np.any(data.omegas != band):
        raise DataFormatError("data frequency grid does not match the scene band")
    if data.n_receivers != scene.n_receivers:
        raise DataFormatError("data receiver count does not match the scene")
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
    center = np.asarray(window.center, dtype=float)
    half = window.half_extent * window.spacing
    corners = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            c = center.copy()
            c[0] += sx * half
            c[1] += sy * half
            corners.append(c)
    return np.asarray(corners)


def _source_in_cone_2d(dirs: np.ndarray, s: np.ndarray, tol: float) -> bool:
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        return True
    units = dirs / norms[:, None]
    mean = units.mean(axis=0)
    mn = np.linalg.norm(mean)
    if mn < 1e-12:
        return True
    u = mean / mn
    ang = np.arctan2(units[:, 0] * u[1] - units[:, 1] * u[0], units @ u)
    if ang.max() - ang.min() >= math.pi:
        return True
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return True
    s = s / sn
    ang_s = math.atan2(s[0] * u[1] - s[1] * u[0], float(s @ u))
    return ang.min() - tol <= ang_s <= ang.max() + tol


def _source_in_cone_3d(dirs: np.ndarray, s: np.ndarray, tol: float) -> bool:
    # SciPy is loaded here, not at import, so windows of two coordinates never load it.
    from scipy.optimize import nnls

    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        return True
    units = (dirs / norms[:, None]).T
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return True
    _, rnorm = nnls(units, s / sn)
    return rnorm <= 2.0 * math.sin(0.5 * tol) + 1e-12


def check_geometric_condition(scene: Scene) -> GeometryReport:
    """Flag receivers whose view cone of the scene window contains the
    source direction.

    The window is convex, so the set of unit directions from a receiver to
    window points is spanned by the four corner directions; the check tests
    source-direction membership against that span within ``_THETA_TOL``.
    """
    corners = _window_corners(scene.window)
    in_cone = _source_in_cone_2d if scene.coords == 2 else _source_in_cone_3d
    flagged = []
    for r in range(scene.n_receivers):
        x_r = scene.receivers[r]
        if in_cone(corners - x_r, scene.source - x_r, _THETA_TOL):
            flagged.append(r)
    return GeometryReport(not flagged, tuple(flagged), _THETA_TOL)
