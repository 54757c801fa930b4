"""Special functions: J0, Y0, the first-kind Hankel function of order zero,
and the free-space frequency-domain Green's function in two and three
dimensions.

The Bessel functions wrap SciPy's cephes ``j0``/``y0``; they take a scalar
or an array and return a Python float/complex for a scalar.  ``scipy.special``
is imported on first use, inside ``bessel_j0``, ``bessel_y0`` and
``hankel0_1``.  The package loads SciPy only there, for 2-D Green's
functions, and in ``recover`` for the cone test of three-coordinate
windows (``nnls``), so importing the CLI does not load it.  The accuracy
target, 1e-10 absolute for small arguments and 1e-10 relative to the
envelope sqrt(2/(pi*t)) for large ones, is pinned by the arbitrary-precision
oracle in ``tests/ref_bessel.py``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import SingularityError

__all__ = ["bessel_j0", "bessel_y0", "hankel0_1", "green0"]


def _positive(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"argument must be positive, got {t!r}")
    return arr


def bessel_j0(t):
    """Bessel function of the first kind, order zero, for t > 0."""
    from scipy import special

    arr = _positive(t)
    out = special.j0(arr)
    return float(out) if arr.ndim == 0 else out


def bessel_y0(t):
    """Bessel function of the second kind, order zero, for t > 0."""
    from scipy import special

    arr = _positive(t)
    out = special.y0(arr)
    return float(out) if arr.ndim == 0 else out


def hankel0_1(t):
    """First-kind Hankel function of order zero: J0(t) + i Y0(t), for t > 0.

    Composed from ``j0`` and ``y0`` rather than taken from SciPy's AMOS
    ``hankel1``, so it equals ``complex(bessel_j0(t), bessel_y0(t))``
    exactly.
    """
    from scipy import special

    arr = _positive(t)
    out = special.j0(arr) + 1j * special.y0(arr)
    return complex(out) if arr.ndim == 0 else out


def green0(x, y, k: float, dimension: int) -> complex:
    """Free-space Green's function of the Helmholtz operator.

    Parameters
    ----------
    x, y : sequence of float
        Endpoint coordinates (equal length).
    k : float
        Wavenumber omega/c0, must be positive.
    dimension : int
        2 selects (i/4) H0(k|x-y|), 3 selects exp(ik|x-y|)/(4 pi |x-y|).

    Returns
    -------
    complex
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension!r}")
    if not k > 0.0:
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    r = math.dist(x, y)
    if r == 0.0:
        raise SingularityError(f"coinciding points {tuple(x)!r}")
    if dimension == 2:
        return 0.25j * hankel0_1(k * r)
    return cmath.exp(1j * k * r) / (4.0 * math.pi * r)
