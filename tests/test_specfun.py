"""Special-function tests against the arbitrary-precision series oracle.

The Hankel function under test is ``ikmig.forward.hankel0_1``; its real and
imaginary parts are J0 and Y0.  The scalar Green's function is the tests'
own reference (``ref_green.py``).
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ikmig.errors import SingularityError
from ikmig.forward import hankel0_1

from ref_bessel import h0_ref, j0_ref, y0_ref
from ref_green import green0

# Values frozen from the oracle (tests/ref_bessel.py).
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567696
J0_AT_100 = 0.019985850304223122
Y0_AT_05 = -0.44451873350670656


def envelope_tol(t, tol=1e-10):
    """Absolute tolerance: flat below t=8, envelope-relative above."""
    if t <= 8.0:
        return tol
    return tol * math.sqrt(2.0 / (math.pi * t))


class TestBesselValues:
    def test_frozen_points(self):
        assert hankel0_1(1.0).real == pytest.approx(J0_AT_1, abs=1e-12)
        assert hankel0_1(1.0).imag == pytest.approx(Y0_AT_1, abs=1e-12)
        assert hankel0_1(100.0).real == pytest.approx(J0_AT_100, abs=1e-12)
        assert hankel0_1(0.5).imag == pytest.approx(Y0_AT_05, abs=1e-12)

    def test_against_oracle_log_grid(self):
        for t in np.logspace(-3, 3, 50):
            t = float(t)
            tol = envelope_tol(t)
            assert abs(hankel0_1(t).real - j0_ref(t)) <= tol, f"J0 at t={t}"
            assert abs(hankel0_1(t).imag - y0_ref(t)) <= tol, f"Y0 at t={t}"

    def test_crossover_continuity(self):
        # Both branches must agree near the internal switch point.
        for t in (11.5, 11.99, 12.0, 12.01, 12.5, 13.0):
            assert abs(hankel0_1(t).real - j0_ref(t)) <= envelope_tol(t)
            assert abs(hankel0_1(t).imag - y0_ref(t)) <= envelope_tol(t)


class TestHankel:
    def test_composition(self):
        # Built from cephes j0 and y0, not AMOS hankel1, on whole arrays.
        from scipy import special

        t = np.array([[0.01, 1.0, 7.3], [12.0, 40.0, 500.0]])
        h = hankel0_1(t)
        assert h.shape == t.shape
        assert np.array_equal(h.real, special.j0(t))
        assert np.array_equal(h.imag, special.y0(t))

    def test_oracle_complex(self):
        for t in np.logspace(-2, 3, 40):
            t = float(t)
            assert abs(hankel0_1(t) - h0_ref(t)) <= 2.0 * envelope_tol(t)

    def test_envelope(self):
        # |H0(t)| * sqrt(pi t / 2) stays within [1 - 2/t, 1 + 2/t] for t >= 10.
        for t in (10.0, 11.0, 15.0, 30.0, 100.0, 1000.0):
            ratio = abs(hankel0_1(t)) * math.sqrt(0.5 * math.pi * t)
            assert 1.0 - 2.0 / t <= ratio <= 1.0 + 2.0 / t

    def test_phase_asymptote(self):
        # arg H0(t) approaches t - pi/4 (mod 2 pi), error shrinking like 1/t.
        prev = None
        for t in (10.0, 100.0, 1000.0):
            delta = cmath.phase(hankel0_1(t) * cmath.exp(-1j * (t - 0.25 * math.pi)))
            delta = abs(delta)
            assert delta < 0.2 / t * 2.0
            if prev is not None:
                assert delta < prev
            prev = delta

    def test_wronskian(self):
        # J0 Y0' - J0' Y0 = 2/(pi t), derivatives by central differences.
        for t in (0.5, 1.0, 3.0, 8.0, 12.0, 50.0, 400.0):
            h = 2e-5
            h0, ahead, behind = hankel0_1(np.array([t, t + h, t - h]))
            dh = (ahead - behind) / (2 * h)
            w = h0.real * dh.imag - dh.real * h0.imag
            assert abs(w - 2.0 / (math.pi * t)) < 1e-8


class TestGreen:
    def test_d2_frozen_value(self):
        # (i/4) H0(1) with unit wavenumber and unit separation.
        g = green0((0.0, 0.0), (1.0, 0.0), 1.0, 2)
        assert g == pytest.approx(-0.02206424105391924 + 0.19129942163949165j, abs=1e-12)

    def test_d3_closed_form(self):
        k, r = 7.25, 3.5
        g = green0((0.0, 0.0, 0.0), (r, 0.0, 0.0), k, 3)
        expected = cmath.exp(1j * k * r) / (4.0 * math.pi * r)
        assert g == pytest.approx(expected, rel=1e-14)

    def test_amplitude_decay_d3(self):
        k = 2.0
        for r in (0.5, 1.0, 10.0, 123.4):
            g = green0((0.0, 0.0), (0.0, r), k, 3)
            assert abs(g) == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-14)

    def test_phase_d3(self):
        k = 9.7
        for r in (0.3, 2.0, 61.0):
            g = green0((0.0, 0.0), (r, 0.0), k, 3)
            delta = cmath.phase(g * cmath.exp(-1j * k * r))
            assert abs(delta) < 1e-12

    def test_reciprocity(self):
        x, y = (0.3, -1.2), (4.0, 2.5)
        for dim in (2, 3):
            assert green0(x, y, 5.0, dim) == green0(y, x, 5.0, dim)

    def test_errors(self):
        with pytest.raises(SingularityError):
            green0((1.0, 2.0), (1.0, 2.0), 1.0, 3)
        with pytest.raises(ValueError):
            green0((0.0, 0.0), (1.0, 0.0), 1.0, 4)
        with pytest.raises(ValueError):
            green0((0.0, 0.0), (1.0, 0.0), -1.0, 3)
        with pytest.raises(ValueError):
            green0((0.0, 0.0), (1.0, 0.0), 0.0, 2)


def test_scipy_is_imported_on_first_use(tmp_path):
    """Importing the CLI and a 3-D experiment on a two-coordinate window load
    no SciPy; the first Hankel call loads scipy.special."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import json, sys\n"
        "def scipy(): return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "from ikmig.cli import main\n"
        "cold = scipy()\n"
        f"assert main(['experiment', '--case', 'point', '--out', {str(tmp_path)!r}]) == 0\n"
        "after_3d = scipy()\n"
        "from ikmig.forward import hankel0_1\n"
        "h = hankel0_1(1.0)\n"
        "print(json.dumps({'cold': cold, 'after_3d': after_3d,\n"
        "                  'special': 'scipy.special' in sys.modules, 'h': [h.real, h.imag]}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["cold"] == []
    assert got["after_3d"] == []
    assert got["special"] is True
    assert abs(complex(*got["h"]) - h0_ref(1.0)) <= envelope_tol(1.0)
