"""Arbitrary-precision Bessel oracle used by the tests.

Evaluates the defining power series of J0 and Y0 with the ``decimal`` module
at a working precision large enough to absorb the cancellation of the
alternating series, so the oracle is valid for any argument the suite uses
(up to t ~ 1e3).  Independent from the package's ``hankel0_1``, which sums
the same series in double precision only below t = 2 and uses Miller's
recurrence and the large-argument expansion above; the larger arguments
the presets evaluate (k r from 4.5e4 to 8e5) are checked against mpmath in
``test_specfun.py``, as this oracle's cost grows with t.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

# Euler-Mascheroni constant, 100 digits.
_EULER_GAMMA = Decimal(
    "0.5772156649015328606065120900824024310421"
    "593359399235988057672348848677267776646709369470632917467495"
)


def _working_precision(t: float) -> int:
    # Largest series term is ~ e^t/(pi*t); cancellation eats t*log10(e) digits.
    # Rounded up in steps so the cached pi value is reused across nearby t.
    need = 60 + int(0.45 * abs(t))
    return ((need // 64) + 1) * 64


@lru_cache(maxsize=None)
def _pi(prec: int) -> Decimal:
    """Machin's formula, evaluated with guard digits."""
    with localcontext() as ctx:
        ctx.prec = prec + 10

        def atan_inv(n: int) -> Decimal:
            # arctan(1/n) for integer n > 1
            total = Decimal(0)
            term = Decimal(1) / n
            n2 = n * n
            k = 0
            while term != 0:
                total += term / (2 * k + 1) * (-1 if k % 2 else 1)
                term /= n2
                k += 1
            return total

        pi = 16 * atan_inv(5) - 4 * atan_inv(239)
    return +pi


def j0_ref(t: float) -> float:
    """J0(t) by the power series at adaptive precision."""
    if t <= 0.0:
        raise ValueError("oracle defined for t > 0")
    prec = _working_precision(t)
    with localcontext() as ctx:
        ctx.prec = prec
        x = (Decimal(t) ** 2) / 4
        term = Decimal(1)
        total = Decimal(1)
        m = 0
        tiny = Decimal(10) ** (-(prec - 5))
        while True:
            m += 1
            term *= x / (m * m)
            contrib = -term if m % 2 else term
            total += contrib
            if abs(term) < tiny and m > math.sqrt(float(x)) + 4:
                break
        return float(total)


def y0_ref(t: float) -> float:
    """Y0(t) by the logarithmic series at adaptive precision."""
    if t <= 0.0:
        raise ValueError("oracle defined for t > 0")
    prec = _working_precision(t)
    with localcontext() as ctx:
        ctx.prec = prec
        x = (Decimal(t) ** 2) / 4
        # J0 part and the harmonic-number series in one sweep.
        term = Decimal(1)
        j0_total = Decimal(1)
        harmonic = Decimal(0)
        h_total = Decimal(0)
        m = 0
        tiny = Decimal(10) ** (-(prec - 5))
        while True:
            m += 1
            term *= x / (m * m)
            harmonic += Decimal(1) / m
            signed = -term if m % 2 else term
            j0_total += signed
            h_total -= signed * harmonic
            if abs(term) < tiny and m > math.sqrt(float(x)) + 4:
                break
        pi = _pi(prec)
        log_half_t = (Decimal(t) / 2).ln()
        total = (2 / pi) * ((log_half_t + _EULER_GAMMA) * j0_total + h_total)
        return float(total)


def h0_ref(t: float) -> complex:
    """First-kind Hankel function of order zero."""
    return complex(j0_ref(t), y0_ref(t))
