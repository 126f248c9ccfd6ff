"""Tests for geodesics: ODE vs closed forms, heights, distances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ektau.core import FrameVector, PointE, SpaceParams, coord_to_frame
import ektau.geodesics
from ektau.balls import BallSpec, in_ball
from ektau.errors import ConvergenceError, ModelDomainError, UnsupportedSpaceError
from ektau.geodesics import (
    GeodesicSpec,
    ball_distance,
    delta_alpha,
    distance,
    distance_upper_bound,
    geodesic_ode_step,
    hyperbolic_distance,
    integrate_geodesic,
    measure_distance_equivalence,
    nil_distance_reduced,
    nil_geodesic_closed,
    nil_geodesic_velocity,
    nil_group_translate,
    nil_max_height,
    nil_max_height_inverse,
    nil_sphere_bounds,
    sl2_families,
    sl2_geodesic_closed,
    sl2_geodesic_velocity,
    sl2_max_height_bound,
    to_origin,
    zeta_critical_points,
    zeta_r,
    zeta_r_prime,
)


def _state(p, v):
    return p, v


def _closed_state_nil(tau, phi, theta, t):
    return nil_geodesic_closed(tau, phi, theta, t), nil_geodesic_velocity(
        tau, phi, theta, t
    )


def _fd_residual(sp, state_fn, t, h=1e-6):
    """Max |d(state)/dt - rhs| by central differences of a state map."""
    pm, vm = state_fn(t - h)
    pp, vp = state_fn(t + h)
    p0, v0 = state_fn(t)
    dp, dv = geodesic_ode_step(sp, (p0, v0))
    num_p = (np.array([pp.x, pp.y, pp.z]) - np.array([pm.x, pm.y, pm.z])) / (2 * h)
    num_v = (vp.as_array() - vm.as_array()) / (2 * h)
    return max(np.max(np.abs(num_p - dp)), np.max(np.abs(num_v - dv.as_array())))


class TestOde:
    def test_integrated_nil_matches_closed_form(self):
        tau, phi, theta = 1.0, 1.1, 0.4
        sp = SpaceParams(0.0, tau)
        v0 = nil_geodesic_velocity(tau, phi, theta, 0.0)
        spec = GeodesicSpec(PointE(0.0, 0.0, 0.0), v0)
        samples = integrate_geodesic(sp, spec, 6.0, tol=1e-11)
        for s in samples[:: len(samples) // 10]:
            ref = nil_geodesic_closed(tau, phi, theta, s.t)
            assert math.isclose(s.point.x, ref.x, abs_tol=1e-7)
            assert math.isclose(s.point.y, ref.y, abs_tol=1e-7)
            assert math.isclose(s.point.z, ref.z, abs_tol=1e-7)

    def test_unit_speed_and_a3_preserved(self):
        sp = SpaceParams(-1.0, 0.8)
        v0 = FrameVector(0.6, 0.0, 0.8)
        samples = integrate_geodesic(sp, GeodesicSpec(PointE(0, 0, 0), v0), 4.0)
        for s in samples:
            assert abs(s.velocity.norm() - 1.0) < 1e-7
            assert abs(s.velocity.a3 - 0.8) < 1e-7

    def test_start_outside_model_raises(self):
        sp = SpaceParams(-1.0, 0.0)
        spec = GeodesicSpec(PointE(3.0, 0.0, 0.0), FrameVector(1.0, 0.0, 0.0))
        with pytest.raises(ModelDomainError):
            integrate_geodesic(sp, spec, 1.0)

    def test_nonunit_direction_rejected(self):
        with pytest.raises(ValueError):
            GeodesicSpec(PointE(0, 0, 0), FrameVector(1.0, 1.0, 0.0))


class TestNilClosedForm:
    @given(
        st.floats(0.2, 2.0),
        st.floats(0.05, math.pi - 0.05),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.05, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ode_residual(self, tau, phi, theta, t):
        sp = SpaceParams(0.0, tau)
        res = _fd_residual(sp, lambda s: _closed_state_nil(tau, phi, theta, s), t)
        assert res < 1e-5

    def test_unit_speed_everywhere(self):
        ts = np.linspace(0.0, 10.0, 40)
        for phi in (0.1, 0.7, math.pi / 2, 2.4, 3.0):
            for t in ts:
                v = nil_geodesic_velocity(1.3, phi, 0.5, float(t))
                assert abs(v.norm() - 1.0) < 1e-12

    def test_vertical_axis(self):
        p = nil_geodesic_closed(1.0, 0.0, 0.0, 3.5)
        assert p.x == p.y == 0.0
        assert math.isclose(p.z, 3.5, rel_tol=1e-12)

    def test_horizontal_branch_is_straight_line(self):
        p = nil_geodesic_closed(2.0, math.pi / 2, 0.7, 2.0)
        assert math.isclose(p.x, 2.0 * math.cos(0.7), rel_tol=1e-12)
        assert math.isclose(p.y, 2.0 * math.sin(0.7), rel_tol=1e-12)
        assert p.z == 0.0

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError):
            nil_geodesic_closed(1.0, -0.1, 0.0, 1.0)


class TestSl2ClosedForms:
    @pytest.mark.parametrize("family", sl2_families)
    def test_ode_residual(self, family):
        sp = SpaceParams(-1.7, 0.6)
        a = {"elliptic": 0.9, "hyperbolic": 2.1}.get(family)
        for t in (0.3, 1.0, 2.7):
            res = _fd_residual(
                sp,
                lambda s: (
                    sl2_geodesic_closed(sp, family, a, s),
                    sl2_geodesic_velocity(sp, family, a, s),
                ),
                t,
            )
            assert res < 1e-5, (family, t, res)

    @pytest.mark.parametrize("family", sl2_families)
    def test_unit_speed(self, family):
        sp = SpaceParams(-0.8, 1.2)
        a = {"elliptic": 1.5, "hyperbolic": 3.0}.get(family)
        for t in np.linspace(0.0, 4.0, 17):
            v = sl2_geodesic_velocity(sp, family, a, float(t))
            assert abs(v.norm() - 1.0) < 1e-9

    def test_horizontal_is_base_geodesic(self):
        sp = SpaceParams(-1.0, 0.7)
        p = sl2_geodesic_closed(sp, "horizontal", None, 2.0)
        assert p.x == 0.0 and p.z == 0.0
        assert math.isclose(p.y, 2.0 * math.tanh(1.0), rel_tol=1e-12)

    def test_family_parameter_validation(self):
        sp = SpaceParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            sl2_geodesic_closed(sp, "elliptic", 5.0, 1.0)  # a >= 2/sqrt(-kappa)
        with pytest.raises(ValueError):
            sl2_geodesic_closed(sp, "hyperbolic", 1.0, 1.0)  # a <= 2/sqrt(-kappa)
        with pytest.raises(UnsupportedSpaceError):
            sl2_geodesic_closed(SpaceParams(0.0, 1.0), "elliptic", 1.0, 1.0)


class TestHeights:
    def test_small_ball_height_is_radius(self):
        assert nil_max_height(1.0, 1.0) == 1.0

    def test_large_ball_height_formula(self):
        tau, R = 1.0, 4.0
        expect = (math.pi**2 + 4.0 * tau**2 * R**2) / (4.0 * tau * math.pi)
        assert math.isclose(nil_max_height(tau, R), expect, rel_tol=1e-14)

    def test_inverse_roundtrip(self):
        for tau in (0.5, 1.0, 2.0):
            for R in (0.3, 1.0, 2.0, 5.0, 10.0):
                z = nil_max_height(tau, R)
                assert math.isclose(nil_max_height_inverse(tau, z), R, rel_tol=1e-12)

    def test_height_monotone_in_radius(self):
        Rs = np.linspace(0.1, 10.0, 200)
        hs = [nil_max_height(0.8, float(R)) for R in Rs]
        assert np.all(np.diff(hs) > 0.0)

    def test_zeta_at_critical_points_below_max(self):
        tau, R = 1.0, 4.0
        roots = zeta_critical_points(tau, R)
        assert roots.size >= 1
        assert np.all(np.abs(zeta_r_prime(tau, R, roots)) < 1e-10)
        zmax = nil_max_height(tau, R)
        assert np.all(zeta_r(tau, R, roots) <= zmax + 1e-12)
        # the pi branch dominates for 2 tau R > pi
        assert math.isclose(zeta_r(tau, R, math.pi), zmax, rel_tol=1e-12)

    def test_zeta_domain_validation(self):
        with pytest.raises(ValueError):
            zeta_r(1.0, 1.0, 5.0)

    def test_sl2_height_bound_dominates_samples(self):
        sp = SpaceParams(-1.0, 1.0)
        for R in (1.0, 2.0, 4.0):
            bound = sl2_max_height_bound(sp, R)
            for fam, a in (("elliptic", 0.5), ("elliptic", 1.5),
                           ("parabolic", None), ("hyperbolic", 2.5)):
                for t in np.linspace(0.0, R, 60):
                    z = abs(sl2_geodesic_closed(sp, fam, a, float(t)).z)
                    assert z <= bound + 1e-9

    def test_sl2_height_requires_negative_kappa(self):
        with pytest.raises(UnsupportedSpaceError):
            sl2_max_height_bound(SpaceParams(0.0, 1.0), 1.0)


class TestQuasiDistance:
    @given(st.floats(0.01, 5.0), st.floats(-3, 3), st.floats(-3, 3), st.floats(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, s, x, y, z):
        p = PointE(x, y, z)
        q = PointE(s * x, s * y, s * s * z)
        assert math.isclose(
            delta_alpha(1.0, q), s * delta_alpha(1.0, p), rel_tol=1e-10, abs_tol=1e-12
        )

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            delta_alpha(0.0, PointE(1, 0, 0))


class TestDistance:
    def test_euclidean(self):
        sp = SpaceParams(0.0, 0.0)
        assert math.isclose(
            distance(sp, PointE(0, 0, 0), PointE(1, 2, 2)), 3.0, rel_tol=1e-14
        )

    def test_group_translation_is_isometry(self):
        tau = 1.0
        sp = SpaceParams(0.0, tau)
        p = PointE(0.4, -0.7, 1.2)
        q = PointE(-0.3, 0.5, -0.6)
        shift = PointE(0.9, 0.2, -0.4)

        def translate(base, r):
            # left multiplication by base in the nilpotent group
            return PointE(
                base.x + r.x,
                base.y + r.y,
                base.z + r.z + tau * (base.x * r.y - base.y * r.x),
            )

        d1 = distance(sp, p, q)
        d2 = distance(sp, translate(shift, p), translate(shift, q))
        assert math.isclose(d1, d2, rel_tol=1e-8)

    def test_nil_distance_along_geodesics_is_arclength(self):
        tau = 1.0
        sp = SpaceParams(0.0, tau)
        rng = np.random.default_rng(7)
        for _ in range(25):
            phi = rng.uniform(0.05, math.pi / 2 - 0.05)
            theta = rng.uniform(0.0, 2 * math.pi)
            # stay under the cut locus: t < 2 pi / (2 tau cos phi)
            t = rng.uniform(0.05, min(0.9 * math.pi / (tau * math.cos(phi)), 8.0))
            p = nil_geodesic_closed(tau, phi, theta, t)
            d = distance(sp, PointE(0, 0, 0), p)
            assert d <= t + 1e-8
            assert math.isclose(d, t, rel_tol=1e-6)

    def test_nil_symmetry_and_triangle(self):
        sp = SpaceParams(0.0, 0.7)
        o = PointE(0, 0, 0)
        p = PointE(1.0, 0.5, 2.0)
        q = PointE(-0.5, 1.2, -1.0)
        dpq = distance(sp, p, q)
        assert math.isclose(dpq, distance(sp, q, p), rel_tol=1e-9)
        assert dpq <= distance(sp, p, o) + distance(sp, o, q) + 1e-9

    def test_nil_vertical_points(self):
        # a geodesic returns to the axis when tau c t = k pi; the distance
        # to (0, 0, z) is the minimum of those branch arclengths
        tau = 1.0
        sp = SpaceParams(0.0, tau)
        z = 10.0
        expected = min(
            (k * math.pi)
            / (tau * math.sqrt(k * math.pi / (2.0 * tau * z - k * math.pi)))
            for k in range(1, int(tau * z / math.pi) + 1)
        )
        d = distance(sp, PointE(0, 0, 0), PointE(0, 0, z))
        assert math.isclose(d, expected, rel_tol=1e-9)
        # well above the linear regime floor given by the ball height
        assert d > nil_max_height_inverse(tau, z)

    def test_product_distance(self):
        sp = SpaceParams(-1.0, 0.0)
        p = PointE(0.0, 0.0, 0.0)
        q = PointE(0.8, 0.0, 2.0)
        dh = hyperbolic_distance(-1.0, p.base(), q.base())
        assert math.isclose(distance(sp, p, q), math.hypot(dh, 2.0), rel_tol=1e-14)

    def test_points_near_the_rim(self):
        # w = +-0.9999999999999998 on the unit disk: the disk automorphism's
        # modulus rounds to 1, while 2 log((1 + w)/(1 - w)) is the distance
        sp = SpaceParams(-1.0, 0.0)
        p, q = PointE(1.9999999999999996, 0.0, 0.0), PointE(-1.9999999999999996, 0.0, 0.0)
        w = 0.5 * p.x
        exact = 2.0 * math.log((1.0 + w) / (1.0 - w))
        assert math.isclose(hyperbolic_distance(-1.0, p, q), exact, rel_tol=1e-12)
        assert math.isclose(exact, 73.4736, rel_tol=1e-6)
        with pytest.raises(ModelDomainError):
            to_origin(sp, p, q)
        with pytest.raises(ModelDomainError):
            distance(sp, p, q)
        with pytest.raises(ModelDomainError):
            in_ball(BallSpec(sp, p, 80.0), q)

    def test_sl2_distance_unsupported(self):
        sp = SpaceParams(-1.0, 1.0)
        with pytest.raises(UnsupportedSpaceError):
            distance(sp, PointE(0, 0, 0), PointE(0.1, 0.2, 0.3))

    def test_upper_bound_exact_on_supported_spaces(self):
        for sp in (SpaceParams(0.0, 0.0), SpaceParams(-1.0, 0.0)):
            p, q = PointE(0.1, -0.2, 0.5), PointE(-0.3, 0.4, -0.1)
            assert math.isclose(
                distance_upper_bound(sp, p, q), distance(sp, p, q), rel_tol=1e-12
            )

    def test_sl2_upper_bound_dominates_base_distance(self):
        sp = SpaceParams(-1.0, 1.0)
        p, q = PointE(0.0, 0.0, 0.0), PointE(0.9, 0.4, 1.5)
        ub = distance_upper_bound(sp, p, q)
        # the submersion onto the base is distance-nonincreasing
        assert ub >= hyperbolic_distance(sp.kappa, p.base(), q.base())
        assert ub >= abs(q.z - p.z)

    @pytest.mark.parametrize("space", [(0.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, space, bad):
        sp = SpaceParams(*space)
        good = PointE(0.1, -0.2, 0.3)
        for p, q in ((good, PointE(bad, 0.0, 0.0)), (PointE(0.0, 0.0, bad), good),
                     (PointE(0.0, bad, 0.0), PointE(0.0, bad, 0.0))):
            with pytest.raises(ValueError):
                to_origin(sp, p, q)
            with pytest.raises(ValueError):
                distance(sp, p, q)

    def test_offset_that_overflows(self):
        p, q = PointE(1e200, 0.0, 0.0), PointE(0.0, 1e200, 0.0)
        assert math.isclose(distance(SpaceParams(0.0, 0.0), p, q), math.sqrt(2.0) * 1e200,
                            rel_tol=1e-15)
        # the Nil3 twist tau (x y' - y x') overflows to an infinite height
        for a, b in ((p, q), (PointE(1e160, 0.0, 0.0), PointE(0.0, 1e160, 0.0))):
            with pytest.raises(ValueError):
                distance(SpaceParams(0.0, 1.0), a, b)

    def test_group_translate_identity(self):
        p = PointE(0.3, 0.7, -0.2)
        d = nil_group_translate(1.0, p, p)
        assert d.x == d.y == d.z == 0.0

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="the shooting solver finds no branch near the plane")
    @pytest.mark.parametrize("z", [5.477e-7, 1e-6, 1e-5])
    def test_nil_point_near_the_plane(self, z):
        sp = SpaceParams(0.0, 1.2241624854912188)
        q = PointE(4.675362118938841, 0.0, z)
        d = distance(sp, PointE(0, 0, 0), q)
        assert math.isclose(d, nil_distance_reduced(sp.tau, q.x, q.z), rel_tol=1e-9)

    @pytest.mark.parametrize("q,expected", [
        ((7.04e-23, 0.0, 0.0), 7.04e-23), ((0.0, 0.0, 1e-20), 1e-20),
        ((0.0, 0.0, 1e-12), 1e-12), ((1e-12, 0.0, 1e-12), math.sqrt(2.0) * 1e-12),
        ((0.0, 0.0, 0.0), 0.0),
    ])
    def test_nil_points_near_the_origin(self, q, expected):
        # the shooting solver's absolute tolerance returned 0.0 or 1e-9 here;
        # at this scale Nil3(1) is Euclidean to far below rounding
        d = distance(SpaceParams(0.0, 1.0), PointE(0, 0, 0), PointE(*q))
        assert math.isclose(d, expected, rel_tol=1e-12, abs_tol=0.0)

    def test_measured_equivalence_constants(self):
        m, M = measure_distance_equivalence(1.0, n=40, seed=3)
        assert 0.0 < m <= M < math.inf
        assert M < 3.0  # loose sanity window for tau = 1
        # the constants measured through the multistart shooting solver
        assert m == pytest.approx(0.4647277986861065, rel=1e-9)
        assert M == pytest.approx(0.999129301985774, rel=1e-9)


TAUS = st.floats(0.1, 10.0)
RHOS = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))
HEIGHTS = st.one_of(st.just(0.0), st.floats(1e-6, 500.0), st.floats(-500.0, -1e-6))


class TestNilReduction:
    """The one-dimensional reduction against the shooting solver, closed-form
    geodesics and the isometries and homotheties of Nil3."""

    @pytest.mark.parametrize("tau,rho,z", [
        (1.0, 1.0, 2.0), (0.4, 2.5, 7.0), (1.7, 0.9, 12.0), (1.0, 1e-3, 4.0),
        (2.0, 5e-3, 6.0), (0.5, 2.0, 1e-2), (1.3, 1.5, 0.3),
    ])
    def test_agrees_with_shooting_solver(self, tau, rho, z):
        shot = distance(SpaceParams(0.0, tau), PointE(0, 0, 0), PointE(rho, 0.0, z))
        assert math.isclose(nil_distance_reduced(tau, rho, z), shot, rel_tol=1e-9)

    def test_axis_and_plane(self):
        # on the axis: z below pi/tau, else the u = pi limit; in the plane: rho
        tau = 1.0
        d = nil_distance_reduced(tau, np.array([0.0, 0.0, 3.0, 0.0]),
                                 np.array([2.0, 10.0, 0.0, 0.0]))
        assert np.allclose(d, [2.0, math.sqrt(math.pi * (20.0 - math.pi)), 3.0, 0.0], rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(tau=st.floats(0.2, 5.0), phi=st.floats(0.01, math.pi / 2 - 0.01),
           theta=st.floats(0.0, 2 * math.pi), frac=st.floats(0.01, 0.99))
    def test_closed_form_geodesics_minimize_before_the_cut_locus(self, tau, phi, theta, frac):
        t = frac * math.pi / (tau * math.cos(phi))  # u = tau cos(phi) t < pi
        p = nil_geodesic_closed(tau, phi, theta, t)
        d = nil_distance_reduced(tau, math.hypot(p.x, p.y), p.z)
        assert math.isclose(d, t, rel_tol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(tau=TAUS, rho=RHOS, z=HEIGHTS, s=st.floats(0.01, 100.0))
    def test_homothety(self, tau, rho, z, s):
        """(x, y, z) -> s (x, y, z) carries s^2 g_tau to g_{tau/s}."""
        d = nil_distance_reduced(tau, rho, z)
        scaled = nil_distance_reduced(tau / s, s * rho, s * z) / s
        assert math.isclose(d, scaled, rel_tol=1e-12, abs_tol=1e-300)

    @settings(max_examples=200, deadline=None)
    @given(tau=TAUS, rho=RHOS, z1=HEIGHTS, z2=HEIGHTS)
    def test_monotone_in_height(self, tau, rho, z1, z2):
        lo, hi = sorted((abs(z1), abs(z2)))
        d = nil_distance_reduced(tau, rho, np.array([lo, -hi]))
        assert d[0] <= d[1] * (1.0 + 1e-14)

    @settings(max_examples=200, deadline=None)
    @given(tau=TAUS, rho=st.lists(RHOS, min_size=1, max_size=20),
           z=HEIGHTS, radius=st.floats(0.01, 100.0))
    def test_membership_agrees_with_distance(self, tau, rho, z, radius):
        rho = np.array(rho)
        d = nil_distance_reduced(tau, rho, z)
        inside = nil_distance_reduced(tau, rho, z, radius=radius)
        clear = np.abs(d - radius) > 1e-12 * radius
        assert np.array_equal(inside[clear], (d < radius)[clear])

    @settings(max_examples=300, deadline=None)
    @given(tau=TAUS, rho=st.floats(1e-9, 50.0), log_ratio=st.floats(-15.0, 12.0),
           anchor=st.sampled_from(["sum", "distance", "midway"]),
           rel=st.sampled_from([0.0, 1e-12, -1e-12, 1e-3, -1e-3]), ulps=st.integers(-4, 4))
    def test_membership_is_the_distance_test(self, tau, rho, log_ratio, anchor, rel, ulps):
        """Radius mode equals d < R, except at ties.  The radii lie next to
        rho + |z| (where the prefilter settles points inside), next to d, and
        midway between rho and d (points that must be solved); z / rho spans
        the near-plane and near-axis regimes, where rho < d < rho + |z| all
        come close."""
        z = rho * 10.0**log_ratio
        d = float(nil_distance_reduced(tau, rho, z))
        base = {"sum": rho + z, "distance": d, "midway": 0.5 * (rho + d)}[anchor]
        radius = base * (1.0 + rel) + ulps * math.ulp(base)
        if not radius > 0.0:
            return
        inside = bool(nil_distance_reduced(tau, rho, z, radius=radius))
        if abs(d - radius) > 4e-16 * radius:
            assert inside == (d < radius)

    def test_batch_inside_the_prefilter_bound_makes_no_solve(self, monkeypatch):
        calls = []
        terms = ektau.geodesics._nil_reduction_terms

        def counted(*args):
            calls.append(args)
            return terms(*args)

        monkeypatch.setattr(ektau.geodesics, "_nil_reduction_terms", counted)
        R = 2.0
        rng = np.random.default_rng(5)
        rho = rng.uniform(1e-3, R, 1000)
        z = (R - rho) * rng.uniform(-0.999, 0.999, 1000)
        assert nil_distance_reduced(1.0, rho, z, radius=R).all()
        assert calls == []
        # rho + |z| >= R with rho < R: the point must be solved
        assert nil_distance_reduced(1.0, np.append(rho, 1.5), np.append(z, 1.0),
                                    radius=R)[:-1].all()
        assert calls

    @settings(max_examples=50, deadline=None)
    @given(tau=st.floats(0.3, 2.0), p=st.tuples(*[st.floats(-3, 3)] * 3),
           q=st.tuples(*[st.floats(-3, 3)] * 3), r=st.tuples(*[st.floats(-3, 3)] * 3))
    def test_triangle_inequality(self, tau, p, q, r):
        def d(a, b):
            t = nil_group_translate(tau, PointE(*a), PointE(*b))
            return float(nil_distance_reduced(tau, math.hypot(t.x, t.y), t.z))

        assert d(p, r) <= d(p, q) + d(q, r) + 1e-12
        assert math.isclose(d(p, q), d(q, p), rel_tol=1e-12, abs_tol=1e-300)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            nil_distance_reduced(1.0, np.array([1.0, np.nan]), 2.0)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(ektau.geodesics, "_REDUCTION_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            nil_distance_reduced(1.0, 1.0, 2.0)


def _sphere_point(tau, R, u):
    """(rho, z) of the Nil3 sphere of radius R at the parameter u (Marenich's
    reduction on D(u) = R), written out independently of zeta_r."""
    rho = np.sin(u) / u * np.sqrt(R * R - (u / tau) ** 2)
    z = u / tau + tau * (R * R - (u / tau) ** 2) / (u * u) * (2.0 * u - np.sin(2.0 * u)) / 4.0
    return rho, z


class TestNilSphereBounds:
    """The sphere's bin bounds decide a point only where ball_distance agrees."""

    @settings(max_examples=120, deadline=None)
    @given(tau=st.floats(0.05, 20.0), tau_r=st.floats(0.05, 60.0),
           seed=st.integers(0, 2**32 - 1))
    @example(tau=1.0, tau_r=math.pi / 2 * (1.0 - 1e-12), seed=1)  # 2 tau R just below pi
    @example(tau=1.0, tau_r=math.pi / 2 * (1.0 + 1e-12), seed=2)  # and just above
    @example(tau=0.7, tau_r=math.pi * (1.0 - 1e-12), seed=3)  # the axis reached at u = tau R
    @example(tau=0.7, tau_r=math.pi * (1.0 + 1e-9), seed=4)  # u -> pi next to the axis
    @example(tau=3.0, tau_r=40.0, seed=5)
    def test_decisions_agree_with_ball_distance(self, tau, tau_r, seed):
        R = tau_r / tau
        sp = SpaceParams(0.0, tau)
        lower, upper = nil_sphere_bounds(tau, R)
        n = lower.size
        assert np.all(np.isfinite(upper)) and np.all(lower <= upper)

        def decide(rho, z):
            k = np.minimum((rho / R * n).astype(np.intp), n - 1)
            return np.abs(z) < lower[k], np.abs(z) >= upper[k]

        rng = np.random.default_rng(seed)
        # uniform points of the bounding cylinder, and points next to the axis
        rho = np.concatenate([R * np.sqrt(rng.random(3000)), R * rng.random(300) / n])
        z = nil_max_height(tau, R) * rng.uniform(-1.0, 1.0, rho.size)
        inside, outside = decide(rho, z)
        truth = ball_distance(sp, rho, z, radius=R)
        assert np.all(truth[inside]) and not np.any(truth[outside])
        assert np.count_nonzero(inside | outside) > 0.95 * rho.size

        # 1e-12 inside and outside the exact sphere, u -> pi included
        u_max = min(math.pi, tau_r)
        u = u_max * np.concatenate([rng.uniform(0.05, 0.999, 300), 1.0 - rng.random(20) / n])
        rho_s, z_s = _sphere_point(tau, R, u)
        for scale, side in ((1.0 - 1e-12, True), (1.0 + 1e-12, False)):
            inside, outside = decide(rho_s, scale * z_s)
            assert not np.any(inside | outside)
            assert np.all(ball_distance(sp, rho_s, scale * z_s, radius=R) == side)

    @pytest.mark.parametrize("tau,R", [(1.0, 1.2), (1.0, 2.0), (0.7, math.pi / 0.7 * (1.0 + 1e-9)),
                                       (3.0, 10.0), (1e-3, 1.0), (0.5, 200.0)])
    def test_bounds_hold_the_exact_edge_heights_with_their_margin(self, tau, R):
        """Both bins at each edge hold its height, bisected here to rounding,
        with half the 1e-9 margin to spare."""
        lower, upper = nil_sphere_bounds(tau, R)
        n = lower.size
        target = np.arange(1, n) * (R / n)
        lo, hi = np.zeros(n - 1), np.full(n - 1, min(math.pi, tau * R))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            outer = _sphere_point(tau, R, mid)[0] > target
            lo, hi = np.where(outer, mid, lo), np.where(outer, hi, mid)
        z = _sphere_point(tau, R, 0.5 * (lo + hi))[1]
        for bins in (slice(0, n - 1), slice(1, n)):  # the bins left and right of each edge
            assert np.all(lower[bins] <= z * (1.0 - 5e-10))
            assert np.all(upper[bins] >= z * (1.0 + 5e-10))

    def test_peak_bin_reaches_the_maximum_height(self):
        tau, R = 1.0, 4.0
        lower, upper = nil_sphere_bounds(tau, R)
        rho_peak = _sphere_point(tau, R, math.pi / 2)[0]
        k = int(rho_peak / R * lower.size)
        assert upper[k] >= nil_max_height(tau, R) > lower[k]
        assert upper.max() == pytest.approx(nil_max_height(tau, R), rel=2e-9)

    @pytest.mark.parametrize("tau,R", [(1e300, 1.0), (1.0, 1e300), (1e154, 1.0),
                                       (1.0, 1e-310), (1e-320, 1e-310)])
    def test_bounds_out_of_range_decide_nothing(self, tau, R):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lower, upper = nil_sphere_bounds(tau, R)
        assert not np.any(lower) and np.all(upper == np.inf)
