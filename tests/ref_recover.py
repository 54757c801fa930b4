"""Dense linear-algebra reference for the closed-form recovery.

One frequency at a time: the measurement matrix is built explicitly and
the minimum-norm solution comes from its normal equations, so the tests
can check ``ikmig.recover.recover_ptilde`` against textbook linear
algebra.  Test scale only, since the matrix is a dense (N, 2N) array.
"""

from __future__ import annotations

import numpy as np

from ikmig.errors import DataFormatError, SingularityError


def measurement_matrix(g0) -> np.ndarray:
    """Dense (N, 2N) [diag(Re g0), diag(Im g0)] of one frequency.

    Row r reads Re[conj(g0_r) u_r] from the stacked real and imaginary
    parts of a field u.
    """
    g0 = np.asarray(g0, dtype=complex)
    if g0.ndim != 1:
        raise DataFormatError("g0 must be a vector")
    zero = np.flatnonzero(g0 == 0)
    if zero.size:
        raise SingularityError(
            f"rank-deficient measurement: zero direct arrival at receiver {zero[0]}"
        )
    return np.hstack([np.diag(g0.real), np.diag(g0.imag)])


def dense_pseudoinverse_oracle(g0, d_row) -> np.ndarray:
    """Minimum-norm solution by explicit dense linear algebra.

    Returns the real stack z of length 2N with M z = d_row, where M is
    ``measurement_matrix(g0)``; the complex reading is z[:N] + 1j z[N:].
    """
    mat = measurement_matrix(g0)
    d = np.asarray(d_row, dtype=float)
    normal = mat @ mat.T
    y = np.linalg.solve(normal, d)
    return mat.T @ y
