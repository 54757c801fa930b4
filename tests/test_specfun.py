"""Special-function tests against arbitrary-precision oracles.

The Hankel function under test is ``ikmig.forward.hankel0_1``; its real and
imaginary parts are J0 and Y0.  It is checked against the decimal series
oracle of ``ref_bessel.py`` up to t ~ 1e3, against mpmath at 40 digits up
to 1e7, on both sides of every switch between its branches, and against
SciPy's cephes ``j0``/``y0`` within cephes's own error.  The scalar Green's
function is the tests' own reference (``ref_green.py``).
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikmig import forward
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
        # The branches agree with the oracle on both sides of their switches
        # at 2, 25 and 50.  At every switch, the term-count ones up to 1e4
        # included, H0 moves from the double below to the edge by 1e-14 of
        # the envelope at most, plus the step times |H0'| = |H1|, which is
        # below the envelope (and below 1 at t = 2).
        for edge in (2.0, 25.0, 50.0):
            for t in (0.99 * edge, np.nextafter(edge, 0.0), edge, 1.01 * edge):
                t = float(t)
                assert abs(hankel0_1(t).real - j0_ref(t)) <= envelope_tol(t)
                assert abs(hankel0_1(t).imag - y0_ref(t)) <= envelope_tol(t)
        for edge in forward._EDGES:
            step = edge - np.nextafter(edge, 0.0)
            below, above = hankel0_1(np.array([edge - step, edge]))
            assert abs(above - below) <= envelope_tol(edge, 1e-14 + step)


def mpmath_bessel(t: float) -> tuple[float, float]:
    """J0(t) and Y0(t) by mpmath at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(t)
        return float(mpmath.besselj(0, x)), float(mpmath.bessely(0, x))


def assert_matches_mpmath(ts):
    """J0 and Y0 within 4e-15 absolute below t = 8 and 4e-15 of the
    envelope above, at every t."""
    ts = np.asarray(ts, dtype=float)
    h = hankel0_1(ts)
    for t, got in zip(ts.tolist(), h.tolist()):
        j0, y0 = mpmath_bessel(t)
        tol = envelope_tol(t, 4e-15)
        assert abs(got.real - j0) <= tol, f"J0 at t={t!r}"
        assert abs(got.imag - y0) <= tol, f"Y0 at t={t!r}"


class TestAgainstMpmath:
    def test_log_grid_to_1e7(self):
        # A log grid over ten decades, and the k r range of the presets.
        assert_matches_mpmath(np.concatenate([np.logspace(-3, 7, 241),
                                              np.geomspace(4.5e4, 8e5, 25)]))

    @pytest.mark.parametrize("edge", forward._EDGES.tolist())
    def test_both_sides_of_each_switch(self, edge):
        # 2 and 25 switch the method, the others the asymptotic term count.
        assert_matches_mpmath([0.999 * edge, np.nextafter(edge, 0.0), edge,
                               np.nextafter(edge, np.inf), 1.001 * edge])

    @pytest.mark.parametrize("t", [2.0 * 2.0**23 * 2.0 * math.pi, 1e9, 1e12])
    def test_past_the_exact_range_of_the_phase(self, t):
        # The phase e^{it} is reduced exactly below 2**23 turns; past that
        # the error grows to about half an ulp of t, relative to the
        # envelope, the rounding of t itself (measured 3.0e-8 at 1e9 and
        # 1.1e-5 at 1e12).
        j0, y0 = mpmath_bessel(t)
        envelope = math.sqrt(2.0 / (math.pi * t))
        assert abs(complex(hankel0_1(t)) - complex(j0, y0)) <= (
            (0.5 * np.spacing(t) + 4e-15) * envelope)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-3, 1e7),
                              st.sampled_from(forward._EDGES.tolist()).flatmap(
                                  lambda e: st.sampled_from([np.nextafter(e, 0.0), e]))),
                    min_size=1, max_size=40))
    def test_each_value_is_its_own_call(self, ts):
        # Elementwise to the bit: no entry depends on the others, whatever
        # branches the array mixes.
        t = np.array(ts)
        h = hankel0_1(t)
        for i in range(t.size):
            assert hankel0_1(t[i:i + 1])[0].tobytes() == h[i].tobytes()


class TestHankel:
    def test_agrees_with_cephes(self):
        # SciPy's cephes j0 + i y0, on whole arrays, within cephes's own
        # error: 1e-14 absolute below 25, 1e-9 of the envelope up to 1e7,
        # where its rounded t - pi/4 leaves up to 5e-10.
        from scipy import special

        t = np.logspace(-3, 7, 1001).reshape(7, 143)
        h = hankel0_1(t)
        assert h.shape == t.shape
        small = t < 25.0
        envelope = np.sqrt(2.0 / (np.pi * t[~small]))
        for got, cephes in ((h.real, special.j0(t)), (h.imag, special.y0(t))):
            assert np.all(np.abs(got - cephes)[small] <= 1e-14)
            assert np.all(np.abs(got - cephes)[~small] <= 1e-9 * envelope)

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


def test_no_command_imports_scipy(tmp_path):
    """A 2-D simulate -> recover -> migrate --reference chain, a
    three-coordinate check-geometry and a 3-D experiment run with SciPy
    refused by an import hook, and load no scipy module.  Nor do they load
    numpy.ma (8-10 ms on a process's first scene, through np.unique), or
    fractions or decimal, which the CSV writer's tables do without."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import json, os, sys\n"
        "from dataclasses import replace\n"
        "class RefuseSciPy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'{name} is refused here')\n"
        "sys.meta_path.insert(0, RefuseSciPy())\n"
        "import numpy as np\n"
        "from ikmig.cli import main\n"
        "from ikmig.forward import array_response_band, write_field_csv\n"
        "from ikmig.scene import FrequencyGrid, ImageWindowSpec, emit_scene, preset_scene\n"
        f"out = {str(tmp_path)!r}\n"
        "def p(*parts): return os.path.join(out, *parts)\n"
        "point = preset_scene('point')\n"
        "flat = replace(point, dimension=2, band=FrequencyGrid(430e12, 750e12, 4),\n"
        "               window=ImageWindowSpec(point.window.center, point.window.spacing, 1))\n"
        "def lift(x): return np.concatenate([x, np.zeros(np.shape(x)[:-1] + (1,))], axis=-1)\n"
        "cube = replace(point, receivers=lift(point.receivers), source=lift(point.source),\n"
        "               scatterers=(), window=replace(point.window,\n"
        "               center=tuple(lift(np.array(point.window.center)))))\n"
        "for name, scene in (('flat.json', flat), ('cube.json', cube)):\n"
        "    with open(p(name), 'w') as fh: fh.write(emit_scene(scene))\n"
        "write_field_csv(flat.band.omegas, array_response_band(flat), p('truth.csv'))\n"
        "codes = [main(argv) for argv in (\n"
        "    ['simulate', '--scene', p('flat.json'), '--out', p('sim')],\n"
        "    ['recover', '--scene', p('flat.json'), '--data', p('sim', 'intensity.csv'),\n"
        "     '--out', p('rec')],\n"
        "    ['migrate', '--scene', p('flat.json'), '--field', p('rec', 'recovered.csv'),\n"
        "     '--reference', p('truth.csv'), '--out', p('img')],\n"
        "    ['check-geometry', '--scene', p('cube.json')],\n"
        "    ['experiment', '--case', 'point', '--threads', '2', '--out', p('exp')])]\n"
        "loaded = sorted(sys.modules)\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'scipy': [m for m in loaded if m.partition('.')[0] == 'scipy'],\n"
        "                  'others': [m for m in ('decimal', 'fractions', 'numpy.ma')\n"
        "                             if m in loaded]}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"codes": [0, 0, 0, 0, 0], "scipy": [], "others": []}, proc.stderr
