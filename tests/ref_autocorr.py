"""Time-domain reference for power-spectrum data under random illumination.

``ikmig.stochastic`` synthesizes power-spectrum rows directly per
frequency, from the ensemble statistics of the source transform.  This
module simulates the receiver traces instead, and returns the spectra of
their empirical autocorrelations, so the tests can show that those
spectra converge to the ensemble limit as the record grows.  It is meant
for scaled-down (acoustic-like) scenes only.  The closed-form
autocorrelation of the source spectrum, its inverse transform, is here too.
"""

from __future__ import annotations

import math

import numpy as np

from ikmig.forward import _direct_rows, _response_rows
from ikmig.scene import Scene
from ikmig.stochastic import PowerSpectrum, _check_substreams

# Philox key tag of the coefficient draw.  The package's illumination and
# noise draws use tags 1 and 2, so these numbers are independent of theirs.
_TAG = 3


def autocorrelation(spectrum: PowerSpectrum, tau):
    """Inverse transform of the spectrum: exp(-i omega0 tau) exp(-pi tau^2 / t_c^2)."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(-1j * spectrum.omega0 * tau - math.pi * (tau / spectrum.t_c) ** 2)


def time_domain_autocorr_oracle(
    scene: Scene,
    spectrum: PowerSpectrum,
    T: float,
    dt: float,
    seed: int,
    lag_factor: float = 4.0,
) -> np.ndarray:
    """Spectrum of the empirical trace autocorrelation, per receiver.

    Synthesizes receiver traces of duration 2T by circular inverse
    transform of (g0 + p) fhat on a fine grid, autocorrelates them, and
    transforms lags |tau| <= lag_factor * t_c back to the scene band
    frequencies under a triangular lag window.  Ensemble limit:
    Fhat |g0 + p|^2.  Cost grows linearly with T / dt.

    The random coefficients are the normal pairs of the Philox stream
    with key [seed, 3 << 56] and counter 0.  The seed is checked as the
    package's samplers check theirs, before any work: one that is not an
    integer, a bool among them, is a TypeError, not truncated.  Returns an
    (N, F) complex array on the scene band.
    """
    seed = _check_substreams(seed, ())
    omega_max = scene.band.omegas[-1]
    if not dt * omega_max <= math.pi:
        raise ValueError("time step undersamples the band: aliasing")
    if not T >= 10.0 * spectrum.t_c:
        raise ValueError("acquisition time too short against the correlation time")
    period = 2.0 * T
    m = int(round(period / dt))
    period = m * dt
    k = np.arange(1, m // 2)
    omega_k = 2.0 * math.pi * k / period
    fhat_sq = spectrum.value(omega_k)
    active = np.nonzero(fhat_sq > 1e-12 * spectrum.t_c)[0]
    if active.size == 0:
        raise ValueError("grid resolves no energy of the spectrum")
    k = k[active]
    omega_k = omega_k[active]

    key = np.array([seed, _TAG << 56], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    z = gen.standard_normal((k.shape[0], 2)).view(complex)[:, 0]
    coeff = np.sqrt(fhat_sq[active] / (2.0 * period)) * z

    wavenumbers = omega_k / scene.c0
    transfer = (_direct_rows(scene, wavenumbers) + _response_rows(scene, wavenumbers)).T
    spec = np.zeros((scene.n_receivers, m), dtype=complex)
    spec[:, k] = transfer * coeff[None, :]
    traces = np.fft.fft(spec, axis=1)

    # circular autocorrelation: psi_m = (1/M) sum_j conj(u_j) u_{j+m}
    psi = np.fft.ifft(np.abs(np.fft.fft(traces, axis=1)) ** 2, axis=1) / m

    lag_max = lag_factor * spectrum.t_c
    lags = min(int(lag_max / dt), m // 2 - 1)
    idx = np.arange(-lags, lags + 1)
    window = 1.0 - np.abs(idx) / (lags + 1.0)
    tau = idx * dt
    kernel = window[:, None] * np.exp(1j * np.outer(tau, scene.band.omegas))
    return dt * (psi[:, idx % m] @ kernel)
