"""Recovery of the measurable projection of the scattered field.

Per frequency the linearized power row is d = |fhat|^2 Re[conj(g0) (g0+2p)],
an underdetermined linear system in the real and imaginary parts of the
total field.  Its normal matrix is diagonal, so the minimum-norm solution
costs a handful of vector operations and yields

    ptilde = d / (|fhat|^2 conj(g0)) - g0,

which equals p plus a conjugate-mirrored term; migration suppresses the
mirror.  The module also provides the measurement-matrix view, a dense
pseudo-inverse oracle for tests, the conditioning formula, and the
geometric visibility check on the imaging window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DataFormatError, NumericError, SingularityError
from .forward import (
    FieldVector,
    IntensityData,
    _direct_rows,
    _distances,
    _wavenumbers,
    direct_arrivals_band,
)
from .scene import ImageWindowSpec, Scene

__all__ = [
    "MeasurementMatrix",
    "RecoveredField",
    "GeometryReport",
    "build_measurement",
    "recover_ptilde",
    "recover_band",
    "dense_pseudoinverse_oracle",
    "condition_number",
    "check_geometric_condition",
]


@dataclass(frozen=True)
class MeasurementMatrix:
    """Implicit [diag(Re g0), diag(Im g0)] with its diagonal normal matrix."""

    g0: np.ndarray

    def materialize(self) -> np.ndarray:
        """Dense (N, 2N) matrix; intended for test-scale N only."""
        n = self.g0.shape[0]
        out = np.zeros((n, 2 * n))
        idx = np.arange(n)
        out[idx, idx] = self.g0.real
        out[idx, n + idx] = self.g0.imag
        return out

    @property
    def normal_diagonal(self) -> np.ndarray:
        """Diagonal of M M^T, equal to |g0|^2 entrywise."""
        return (np.conj(self.g0) * self.g0).real


def build_measurement(g0) -> MeasurementMatrix:
    """Measurement operator for one frequency from the direct arrivals."""
    vals = g0.values if isinstance(g0, FieldVector) else np.asarray(g0, dtype=complex)
    if vals.ndim != 1:
        raise DataFormatError("g0 must be a vector")
    zero = np.flatnonzero(vals == 0)
    if zero.size:
        raise SingularityError(
            f"rank-deficient measurement: zero direct arrival at receiver {zero[0]}"
        )
    return MeasurementMatrix(vals)


@dataclass(frozen=True)
class RecoveredField:
    """Closed-form recovery output with its diagnostics."""

    ptilde: FieldVector
    conditioning: float
    residual_norm: float


def recover_ptilde(g0, d_row, fhat_sq: float) -> RecoveredField:
    """Minimum-norm recovery of the field projection at one frequency.

    Parameters
    ----------
    g0 : FieldVector or complex array
        Direct arrivals, all entries nonzero.
    d_row : real array
        Phaseless data row at this frequency.
    fhat_sq : float
        Illumination divisor: |fhat|^2, or 2*pi*Fhat for stochastic data.

    Notes
    -----
    Cost is a fixed number of length-N vector operations; no matrix is
    formed.  The returned residual is the data misfit of the recovered
    projection and is zero up to roundoff by construction.
    """
    vals = g0.values if isinstance(g0, FieldVector) else np.asanyarray(g0)
    d = np.asanyarray(d_row)
    if vals.ndim != 1 or d.shape != vals.shape:
        raise DataFormatError("d_row must match g0 in length")
    if not (math.isfinite(fhat_sq) and fhat_sq > 0.0):
        raise NumericError(f"illumination power must be positive, got {fhat_sq!r}")
    if np.any(vals == 0):
        raise SingularityError("zero direct arrival; measurement is rank-deficient")

    g_conj = np.conj(vals)
    ptilde = d / (fhat_sq * g_conj) - vals
    moduli = np.abs(vals)
    conditioning = float(np.max(moduli) / np.min(moduli))
    misfit = d - fhat_sq * ((g_conj * vals).real + (g_conj * ptilde).real)
    residual_norm = float(np.linalg.norm(np.asarray(misfit)))
    return RecoveredField(
        FieldVector(np.asarray(ptilde), "recovered"), conditioning, residual_norm
    )


def recover_band(scene: Scene, data: IntensityData) -> np.ndarray:
    """Recover every frequency row of a data set; returns (F, N) complex.

    The data grid must match the scene band exactly (file round-trips are
    bit-exact, so equality is literal).  Row i equals
    ``recover_ptilde(g0_i, data.values[i], data.illumination[i]).ptilde``.
    """
    omegas = scene.band.omegas
    if data.omegas.shape != omegas.shape or np.any(data.omegas != omegas):
        raise DataFormatError("data frequency grid does not match the scene band")
    if data.n_receivers != scene.n_receivers:
        raise DataFormatError("data receiver count does not match the scene")
    dark = np.flatnonzero(~(data.illumination > 0.0))
    if dark.size:
        raise NumericError(f"zero illumination at frequency {dark[0]}")
    g0 = direct_arrivals_band(scene)
    if np.any(g0 == 0):
        raise SingularityError("zero direct arrival; measurement is rank-deficient")
    return data.values / (data.illumination[:, None] * np.conj(g0)) - g0


def dense_pseudoinverse_oracle(m: MeasurementMatrix, d_row) -> np.ndarray:
    """Minimum-norm solution by explicit dense linear algebra (test scale).

    Returns the real stack z of length 2N with M z = d_row; the complex
    reading is z[:N] + 1j z[N:].
    """
    mat = m.materialize()
    d = np.asarray(d_row, dtype=float)
    normal = mat @ mat.T
    y = np.linalg.solve(normal, d)
    return mat.T @ y


def condition_number(scene: Scene, omega):
    """Spectral condition number of the per-frequency measurement matrix.

    Equal to the ratio of extreme direct-arrival moduli: the distance ratio
    for three-dimensional propagation, the Hankel-envelope ratio in two.
    A scalar omega gives a float; an array of frequencies gives one value
    per frequency.
    """
    omega = np.asarray(omega, dtype=float)
    k = _wavenumbers(scene, omega.reshape(-1))
    if scene.dimension == 3:
        dists = _distances(scene.receivers, scene.source)
        cond = np.full(k.shape, np.max(dists) / np.min(dists))
    else:
        moduli = np.abs(_direct_rows(scene, k))
        cond = np.max(moduli, axis=1) / np.min(moduli, axis=1)
    return float(cond[0]) if omega.ndim == 0 else cond.reshape(omega.shape)


# ---------------------------------------------------------------------------
# geometric visibility check
# ---------------------------------------------------------------------------


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
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        return True
    units = (dirs / norms[:, None]).T
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return True
    _, rnorm = nnls(units, s / sn)
    return rnorm <= 2.0 * math.sin(0.5 * tol) + 1e-12


def check_geometric_condition(
    scene: Scene, window: ImageWindowSpec | None = None, theta_tol: float = 1e-6
) -> GeometryReport:
    """Flag receivers whose window view cone contains the source direction.

    The window is convex, so the set of unit directions from a receiver to
    window points is spanned by the four corner directions; the check tests
    source-direction membership against that span within ``theta_tol``.
    """
    if window is None:
        window = scene.window
    corners = _window_corners(window)
    if corners.shape[1] != scene.coords:
        raise DataFormatError("window coordinate length must match the scene")
    in_cone = _source_in_cone_2d if scene.coords == 2 else _source_in_cone_3d
    flagged = []
    for r in range(scene.n_receivers):
        x_r = scene.receivers[r]
        if in_cone(corners - x_r, scene.source - x_r, theta_tol):
            flagged.append(r)
    return GeometryReport(not flagged, tuple(flagged), theta_tol)
