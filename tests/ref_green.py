"""Scalar free-space Green's function used by the tests as a reference.

One point pair and one wavenumber per call, written from the closed forms,
so the tests can check the package's band-shaped (F, N) kernels against it
entry by entry.  The two-dimensional branch takes its Hankel value from
``ikmig.forward.hankel0_1``, which ``test_specfun.py`` checks against the
arbitrary-precision oracle in ``ref_bessel.py``.
"""

from __future__ import annotations

import cmath
import math

from ikmig.errors import SingularityError
from ikmig.forward import hankel0_1


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
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension!r}")
    if not k > 0.0:
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    r = math.dist(x, y)
    if r == 0.0:
        raise SingularityError(f"coinciding points {tuple(x)!r}")
    if dimension == 2:
        return complex(0.25j * hankel0_1(k * r))
    return cmath.exp(1j * k * r) / (4.0 * math.pi * r)
