"""Closed-form recovery, its dense oracle, conditioning, geometry check."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ikmig import recover
from ikmig.errors import DataFormatError, NumericError, SingularityError
from ikmig.forward import (
    IntensityData,
    array_response_band,
    direct_arrivals_band,
    linearization_residual,
)
from ikmig.recover import (
    check_geometric_condition,
    condition_number,
    recover_band,
    recover_ptilde,
)
from ikmig.scene import (
    PRESET_CASES,
    FrequencyGrid,
    ImageWindowSpec,
    PointScatterer,
    Scene,
    preset_scene,
)
from ikmig.stochastic import intensity_data

from ref_bessel import h0_ref
from ref_recover import dense_pseudoinverse_oracle, measurement_matrix
from test_forward import assert_band_equals_single_frequencies, band_scenes, random_scene

# Recovery from exact preset data deviates from the linearized identity by
# the quadratic term; largest size against the direct field, frozen.  Equals
# the squared linearization residual.
QUADRATIC_TERM_POINT = 0.013296953867462154


def random_fields(rng, n):
    """One frequency's direct arrivals and response, as (1, n) rows."""
    g0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    g0 += np.sign(g0.real) + 1j * np.sign(g0.imag)
    p = 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return g0[None, :], p[None, :]


ONE = np.array([1.0])


class TestMeasurementMatrix:
    def test_materialize_layout(self):
        g0 = np.array([1 + 2j, 3 - 1j])
        mat = measurement_matrix(g0)
        assert mat.shape == (2, 4)
        want = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, -1.0]])
        assert np.array_equal(mat, want)

    def test_matrix_reads_real_projection(self):
        rng = np.random.default_rng(0)
        g0 = random_fields(rng, 6)[0][0]
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        z = np.concatenate([u.real, u.imag])
        got = measurement_matrix(g0) @ z
        assert np.allclose(got, (np.conj(g0) * u).real, rtol=1e-14)

    def test_normal_diagonal(self):
        # The normal matrix M M^T is diagonal with |g0|^2 on its diagonal,
        # which is what makes the minimum-norm recovery closed-form.
        m = measurement_matrix(np.array([3 + 4j, 1j, 2.0]))
        assert np.array_equal(m @ m.T, np.diag([25.0, 1.0, 4.0]))

    def test_zero_entry_rejected(self):
        with pytest.raises(SingularityError, match="receiver 1"):
            measurement_matrix(np.array([1.0, 0.0, 2.0]))

    def test_shape_rejected(self):
        with pytest.raises(DataFormatError):
            measurement_matrix(np.ones((2, 2)))


class TestRecoverPtilde:
    def test_exact_data_identity(self):
        # On exact power data the recovery returns the response plus its
        # conjugate mirror plus the quadratic term, with zero data misfit.
        rng = np.random.default_rng(1)
        g0, p = random_fields(rng, 8)
        d = np.abs(g0 + p) ** 2
        out = recover_ptilde(g0, d, ONE)
        assert out.shape == (1, 8)
        want = p + g0 / np.conj(g0) * np.conj(p) + p * np.conj(p) / np.conj(g0)
        assert np.allclose(out, want, rtol=1e-12)
        misfit = d - (np.abs(g0) ** 2 + (np.conj(g0) * out).real)
        assert np.linalg.norm(misfit) <= 1e-12 * np.linalg.norm(d)

    def test_linearized_data_identity(self):
        rng = np.random.default_rng(2)
        g0, p = random_fields(rng, 8)
        d = np.abs(g0) ** 2 + 2.0 * (np.conj(g0) * p).real
        out = recover_ptilde(g0, d, ONE)
        mirror = g0 / np.conj(g0) * np.conj(p)
        assert np.allclose(out, p + mirror, rtol=1e-12)
        assert np.allclose(out, 2.0 * (np.conj(g0) * p).real / np.conj(g0), rtol=1e-12)

    def test_matches_dense_pseudoinverse(self):
        rng = np.random.default_rng(3)
        g0, p = random_fields(rng, 10)
        excess = 2.0 * (np.conj(g0) * p).real
        d = np.abs(g0) ** 2 + excess
        fast = recover_ptilde(g0, d, ONE)[0]
        z = dense_pseudoinverse_oracle(g0[0], excess[0])
        assert z.shape == (20,)
        slow = z[:10] + 1j * z[10:]
        assert np.allclose(fast, slow, rtol=1e-11)

    def test_illumination_divisor(self):
        rng = np.random.default_rng(4)
        g0, p = random_fields(rng, 5)
        d = np.abs(g0 + p) ** 2
        base = recover_ptilde(g0, d, ONE)
        scaled = recover_ptilde(g0, 4.0 * d, np.array([4.0]))
        assert np.allclose(scaled, base, rtol=1e-14)

    def test_conditioning_matches_svd(self):
        # The measurement matrix's spectral condition number is the ratio
        # of extreme direct-arrival moduli, the closed form condition_number
        # evaluates.
        g0 = random_fields(np.random.default_rng(5), 7)[0][0]
        moduli = np.abs(g0)
        svd_cond = np.linalg.cond(measurement_matrix(g0))
        assert svd_cond == pytest.approx(moduli.max() / moduli.min(), rel=1e-12)

    def test_errors(self):
        g0 = np.array([[1 + 1j, 2.0]])
        d = np.array([[1.0, 1.0]])
        with pytest.raises(DataFormatError):
            recover_ptilde(g0, np.ones((1, 3)), ONE)
        with pytest.raises(DataFormatError):
            recover_ptilde(g0[0], d[0], ONE)
        with pytest.raises(DataFormatError):
            recover_ptilde(g0, d, np.ones(2))
        with pytest.raises(NumericError, match="illumination at frequency 0 is not positive"):
            recover_ptilde(g0, d, np.array([0.0]))
        with pytest.raises(NumericError, match="illumination at frequency 0 is not positive"):
            recover_ptilde(g0, d, np.array([-1.0]))
        with pytest.raises(NumericError, match="illumination at frequency 0 is not positive"):
            recover_ptilde(g0, d, np.array([math.nan]))
        with pytest.raises(SingularityError):
            recover_ptilde(np.array([[1.0, 0.0]]), d, ONE)

    def test_cost_scales_linearly(self):
        # Count elementwise operations through the ufunc machinery; doubling
        # the receiver count must not quadruple the work.
        class Counting(np.ndarray):
            ops = [0]

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                arrays = [
                    x.view(np.ndarray) if isinstance(x, Counting) else x
                    for x in inputs
                ]
                sizes = [x.size for x in arrays if isinstance(x, np.ndarray)]
                Counting.ops[0] += max(sizes) if sizes else 1
                result = getattr(ufunc, method)(*arrays, **kwargs)
                if isinstance(result, np.ndarray):
                    return result.view(Counting)
                return result

        def count(n):
            rng = np.random.default_rng(6)
            g0, p = random_fields(rng, n)
            d = np.abs(g0 + p) ** 2
            Counting.ops[0] = 0
            recover_ptilde(g0.view(Counting), d.view(Counting), ONE)
            return Counting.ops[0]

        small, large = count(64), count(128)
        assert small >= 64
        assert large <= 2.5 * small
        assert large <= 64 * 128


class TestRecoverBand:
    def test_matches_per_row_recovery(self):
        sc = random_scene(np.random.default_rng(7), 3)
        data = intensity_data(sc)
        out = recover_band(sc, data)
        assert out.shape == (3, 4)
        g0 = direct_arrivals_band(sc)
        for i in range(3):
            row = recover_ptilde(g0[i:i + 1], data.values[i:i + 1], data.illumination[i:i + 1])
            assert np.array_equal(out[i:i + 1], row)

    def test_quadratic_term_is_the_exact_minus_linear_gap(self):
        sc = random_scene(np.random.default_rng(8), 3)
        g0 = direct_arrivals_band(sc)
        p = array_response_band(sc)
        exact = recover_band(sc, intensity_data(sc))
        lin_rows = np.abs(g0) ** 2 + 2.0 * (np.conj(g0) * p).real
        lin = recover_ptilde(g0, lin_rows, np.ones(3))
        gap = p * np.conj(p) / np.conj(g0)
        assert np.allclose(exact - lin, gap, rtol=1e-9)

    def test_weak_scattering_closes_the_gap(self):
        # At vanishing reflectivity the exact recovery lands on the
        # linearized identity to better than one part per million of the
        # direct field.
        sc = preset_scene("point")
        weak = replace(sc, scatterers=(PointScatterer(sc.scatterers[0].position, 1e-19),))
        g0 = direct_arrivals_band(weak)
        p = array_response_band(weak)
        got = recover_band(weak, intensity_data(weak))
        want = p + g0 / np.conj(g0) * np.conj(p)
        rel = np.max(np.abs(got - want) / np.abs(g0))
        assert rel < 1e-6

    def test_preset_quadratic_term_pinned(self):
        sc = preset_scene("point")
        g0 = direct_arrivals_band(sc)
        p = array_response_band(sc)
        got = recover_band(sc, intensity_data(sc))
        want = p + g0 / np.conj(g0) * np.conj(p)
        rel = np.max(np.abs(got - want) / np.abs(g0))
        assert rel == pytest.approx(QUADRATIC_TERM_POINT, rel=1e-9)
        worst = np.max(linearization_residual(sc))
        assert rel == pytest.approx(worst**2, rel=1e-6)

    def test_grid_mismatch(self):
        # The data carry no band: a band of another size is caught by shape.
        sc = random_scene(np.random.default_rng(9), 3)
        data = intensity_data(sc)
        other = replace(sc, band=FrequencyGrid(200.0, 400.0, 4))
        with pytest.raises(DataFormatError, match="scene's band and array"):
            recover_band(other, data)

    def test_receiver_mismatch(self):
        sc = random_scene(np.random.default_rng(10), 3)
        data = intensity_data(sc)
        trimmed = IntensityData(data.values[:, :3], data.illumination)
        with pytest.raises(DataFormatError, match="scene's band and array"):
            recover_band(sc, trimmed)

    def test_zero_illumination(self):
        sc = random_scene(np.random.default_rng(11), 3)
        data = intensity_data(sc)
        broken = IntensityData(data.values, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NumericError, match="illumination at frequency 1 is not positive"):
            recover_band(sc, broken)

    @pytest.mark.parametrize("case", ["tiny illumination", "huge 2-D data"])
    def test_a_field_past_the_float_range_is_a_numeric_error(self, case):
        # Positive illumination of 1e-320 passes the check above but divides
        # the data past the float range, and so do rows of 1e308 over the
        # small 2-D direct arrivals.  Either names its first (frequency,
        # receiver) instead of returning inf, with no RuntimeWarning on the
        # way (a warning fails the test).
        sc = preset_scene("point")
        if case == "tiny illumination":
            data = IntensityData(intensity_data(sc).values, np.full(sc.band.count, 1e-320))
        else:
            sc = replace(sc, dimension=2)
            data = IntensityData(np.full((sc.band.count, sc.n_receivers), 1e308),
                                 np.ones(sc.band.count))
        with pytest.raises(NumericError,
                           match="recovered field overflows at frequency 0, receiver 0"):
            recover_band(sc, data)


class TestConditionNumber:
    def test_d3_distance_ratio(self):
        sc = random_scene(np.random.default_rng(12), 3)
        dists = np.linalg.norm(sc.receivers - sc.source, axis=1)
        got = condition_number(sc)
        assert got == pytest.approx(np.full(3, dists.max() / dists.min()), rel=1e-14)

    def test_d3_independent_of_omega(self):
        sc = random_scene(np.random.default_rng(13), 3)
        wide = replace(sc, band=FrequencyGrid(100.0, 5000.0, 2))
        low, high = condition_number(wide)
        assert low == high

    def test_matches_materialized_svd(self):
        sc = random_scene(np.random.default_rng(14), 3)
        m = measurement_matrix(direct_arrivals_band(sc)[1])
        assert condition_number(sc)[1] == pytest.approx(np.linalg.cond(m), rel=1e-12)

    def test_d2_hankel_moduli_ratio(self):
        sc = random_scene(np.random.default_rng(15), 2)
        omega = 700.0
        sc = replace(sc, band=FrequencyGrid(omega / (2 * math.pi), omega / (2 * math.pi), 1))
        k = sc.band.omegas[0] / sc.c0
        dists = np.linalg.norm(sc.receivers - sc.source, axis=1)
        moduli = np.array([abs(h0_ref(k * r)) for r in dists])
        (got,) = condition_number(sc)
        assert got == pytest.approx(moduli.max() / moduli.min(), rel=1e-10)

    def test_d2_matches_materialized_svd(self):
        sc = random_scene(np.random.default_rng(16), 2)
        m = measurement_matrix(direct_arrivals_band(sc)[2])
        assert condition_number(sc)[2] == pytest.approx(np.linalg.cond(m), rel=1e-12)

    @pytest.mark.parametrize("dimension", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_band_call_equals_per_frequency_calls(self, dimension, data):
        assert_band_equals_single_frequencies(condition_number,
                                              data.draw(band_scenes(dimension)))


def flat_scene(source, window_center=(5.0, 0.0), half_extent=2, spacing=0.25):
    return Scene(
        dimension=3,
        c0=343.0,
        receivers=np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]),
        source=np.asarray(source, dtype=float),
        band=FrequencyGrid(300.0, 300.0, 1),
        scatterers=(),
        window=ImageWindowSpec(window_center, spacing, half_extent),
    )


def cone_one_receiver(dirs, s, tol):
    """The cone test of one receiver by SciPy's active-set ``nnls``, as a
    reference for the batched closed-form ``recover._source_in_cone``:
    dirs (4, coords) corner directions and s (coords,) the source
    direction, two coordinates lifted into the plane z = 0."""
    from scipy.optimize import nnls

    if dirs.shape[-1] == 2:
        dirs, s = np.column_stack([dirs, np.zeros(4)]), np.append(s, 0.0)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        return True
    units = (dirs / norms[:, None]).T
    sn = np.linalg.norm(s)
    if sn == 0.0:
        return True
    _, rnorm = nnls(units, s / sn)
    return rnorm <= 2.0 * math.sin(0.5 * tol) + 1e-12


def flags_one_receiver_at_a_time(scene):
    corners = recover._window_corners(scene.window)
    return tuple(r for r, x in enumerate(scene.receivers)
                 if cone_one_receiver(corners - x, scene.source - x, recover._THETA_TOL))


def in_three_coordinates(scene):
    """The scene with z = 0 appended to every position: the array, the
    source and the window lie in one plane, so every three corner
    directions are linearly dependent."""
    def lift(points):
        points = np.asarray(points, dtype=float)
        return np.concatenate([points, np.zeros(points.shape[:-1] + (1,))], axis=-1)

    window = replace(scene.window, center=tuple(lift(scene.window.center)))
    scatterers = tuple(replace(s, position=tuple(lift(s.position))) for s in scene.scatterers)
    return replace(scene, receivers=lift(scene.receivers), source=lift(scene.source),
                   window=window, scatterers=scatterers)


@st.composite
def cone_scenes(draw):
    """Two-coordinate scenes with 1-8 receivers, the source and the window
    anywhere in one box, one receiver optionally on a window corner."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = ImageWindowSpec(tuple(rng.uniform(-2.0, 6.0, 2)), draw(st.floats(0.05, 0.5)),
                             draw(st.integers(0, 4)))
    receivers = rng.uniform(-3.0, 6.0, size=(draw(st.integers(1, 8)), 2))
    if draw(st.booleans()):
        receivers[0] = recover._window_corners(window)[draw(st.integers(0, 3))]
    return Scene(dimension=3, c0=343.0, receivers=receivers, source=rng.uniform(-3.0, 6.0, 2),
                 band=FrequencyGrid(300.0, 300.0, 1), scatterers=(), window=window)


@st.composite
def cone_scenes_3d(draw):
    """Three-coordinate scenes with 1-8 receivers, the source and the window
    anywhere in one box, one receiver optionally on a window corner, and
    the source optionally on a face of one receiver's view cone: a
    nonnegative combination of two of its corner directions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = ImageWindowSpec(tuple(rng.uniform(-2.0, 6.0, 3)), draw(st.floats(0.05, 0.5)),
                             draw(st.integers(0, 4)))
    corners = recover._window_corners(window)
    receivers = rng.uniform(-3.0, 6.0, size=(draw(st.integers(1, 8)), 3))
    if draw(st.booleans()):
        receivers[0] = corners[draw(st.integers(0, 3))]
    source = rng.uniform(-3.0, 6.0, 3)
    if draw(st.booleans()):
        x = receivers[draw(st.integers(0, receivers.shape[0] - 1))]
        a, b = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        weight = draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0))
        source = x + weight[0] * (corners[a] - x) + weight[1] * (corners[b] - x)
    assume(not np.any(np.all(receivers == source, axis=1)))
    return Scene(dimension=3, c0=343.0, receivers=receivers, source=source,
                 band=FrequencyGrid(300.0, 300.0, 1), scatterers=(), window=window)


class TestGeometryCheck:
    @pytest.mark.parametrize("case", PRESET_CASES)
    def test_preset_flags_match_one_receiver_at_a_time(self, case):
        sc = preset_scene(case)
        flagged = check_geometric_condition(sc).violating_receivers
        assert flagged == flags_one_receiver_at_a_time(sc)

    @pytest.mark.parametrize("case", PRESET_CASES)
    def test_three_coordinate_preset_flags_match_nnls(self, case):
        sc = in_three_coordinates(preset_scene(case))
        flagged = check_geometric_condition(sc).violating_receivers
        assert flagged == flags_one_receiver_at_a_time(sc)

    @settings(max_examples=200, deadline=None)
    @given(cone_scenes())
    def test_flags_match_one_receiver_at_a_time(self, sc):
        flagged = check_geometric_condition(sc).violating_receivers
        assert flagged == flags_one_receiver_at_a_time(sc)

    @settings(max_examples=300, deadline=None)
    @given(cone_scenes_3d())
    def test_three_coordinate_flags_match_nnls(self, sc):
        flagged = check_geometric_condition(sc).violating_receivers
        assert flagged == flags_one_receiver_at_a_time(sc)

    def test_source_behind_array_is_ok(self):
        report = check_geometric_condition(flat_scene((-5.0, 0.0)))
        assert report.ok
        assert report.violating_receivers == ()

    def test_source_beyond_window_is_flagged(self):
        report = check_geometric_condition(flat_scene((10.0, 0.0)))
        assert not report.ok
        assert 1 in report.violating_receivers

    def test_source_to_the_side_is_ok(self):
        assert check_geometric_condition(flat_scene((5.0, 4.0))).ok

    def test_source_inside_window_is_flagged(self):
        assert not check_geometric_condition(flat_scene((5.0, 0.1))).ok

    def test_receiver_on_an_edge_sees_a_half_plane(self):
        # The receiver at the midpoint of the window's near edge: its view
        # cone is the closed half-plane on the window's side of the edge.
        def scene(source):
            return replace(flat_scene(source), receivers=np.array([[4.5, 0.0]]))

        for lift in (lambda sc: sc, in_three_coordinates):
            assert check_geometric_condition(lift(scene((-5.0, 0.0)))).ok
            assert check_geometric_condition(lift(scene((4.5, -3.0)))).violating_receivers == (0,)
            assert check_geometric_condition(lift(scene((10.0, 0.0)))).violating_receivers == (0,)

    def test_tolerance_widens_the_cone(self, monkeypatch):
        # Direction a bit outside the corner cone: caught only with a loose
        # angular tolerance.
        sc = flat_scene((5.0, 0.75), half_extent=1, spacing=0.25)
        monkeypatch.setattr(recover, "_THETA_TOL", 1e-6)
        assert check_geometric_condition(sc).ok
        monkeypatch.setattr(recover, "_THETA_TOL", 0.2)
        report = check_geometric_condition(sc)
        assert not report.ok
        assert report.theta_tol == 0.2

    def test_three_coordinate_branch(self):
        def scene3(source):
            return Scene(
                dimension=3,
                c0=343.0,
                receivers=np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
                source=np.asarray(source, dtype=float),
                band=FrequencyGrid(300.0, 300.0, 1),
                scatterers=(),
                window=ImageWindowSpec((5.0, 0.0, 0.0), 0.25, 2),
            )

        assert not check_geometric_condition(scene3((10.0, 0.0, 0.0))).ok
        assert check_geometric_condition(scene3((5.0, 0.0, 4.0))).ok
        assert check_geometric_condition(scene3((-5.0, 0.0, 0.0))).ok

    def test_preset_flags(self):
        assert check_geometric_condition(preset_scene("point")).ok
        assert check_geometric_condition(preset_scene("two_points")).ok
        assert check_geometric_condition(preset_scene("disk")).ok
        assert check_geometric_condition(preset_scene("breakdown_b")).ok
        assert check_geometric_condition(preset_scene("breakdown_c")).ok

    def test_breakdown_d_flags_the_axis_receiver(self):
        report = check_geometric_condition(preset_scene("breakdown_d"))
        assert not report.ok
        assert report.violating_receivers == (250,)

    def test_breakdown_a_flags_every_receiver(self):
        report = check_geometric_condition(preset_scene("breakdown_a"))
        assert not report.ok
        assert report.violating_receivers == tuple(range(501))
