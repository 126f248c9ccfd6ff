"""Tests for the example surfaces and their closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from ektau import surfaces
from ektau._quadrature import leggauss
from ektau.core import BasePoint, SpaceParams, base_disk_model_radius
from ektau.errors import ConvergenceError, HypothesisViolationError
from ektau.graphs import graph_area, mean_curvature
from ektau.surfaces import (
    affine_plane,
    catenoid,
    catenoid_height,
    cmc_profile,
    fmp_intrinsic_area,
    fmp_surface,
    ideal_polygon_area,
    ideal_polygon_area_numeric,
    umbrella,
)


class TestUmbrella:
    def test_euclidean_limit(self):
        surf = umbrella(SpaceParams(0.0, 0.0))
        assert math.isclose(
            surf.closed_forms["extrinsic_area"](2.0), 4.0 * math.pi, rel_tol=1e-14
        )

    def test_nil_closed_form(self):
        tau, R = 1.0, 2.0
        surf = umbrella(SpaceParams(0.0, tau))
        exact = 2.0 * math.pi / (3.0 * tau**2) * ((1.0 + tau**2 * R * R) ** 1.5 - 1.0)
        assert math.isclose(surf.closed_forms["extrinsic_area"](R), exact, rel_tol=1e-14)

    def test_nil_form_tends_to_euclidean_as_tau_vanishes(self):
        R = 1.7
        a = umbrella(SpaceParams(0.0, 1e-5)).closed_forms["extrinsic_area"](R)
        assert math.isclose(a, math.pi * R * R, rel_tol=1e-6)

    def test_flags_and_minimality(self):
        surf = umbrella(SpaceParams(0.0, 1.0))
        assert surf.minimal
        assert surf.extrinsic_equals_base_disk

    @pytest.mark.parametrize("kappa,tau,R", [
        (-1.0, 1.0, 3.0), (-1.0, 1.0, 8.0), (-0.5, 0.7, 2.0), (-4.0, 2.0, 5.0),
        (-1.0, 1e-3, 3.0), (-1.0, 1.0, 0.1), (-1.0, 1e-9, 2.0),
        # -kappa / tau^2 tiny: the two halves of F(S) - F(0) nearly cancel
        (-1e-12, 1.0, 3.0), (-1e-6, 1.0, 0.5),
    ])
    def test_sl2_closed_form_matches_radial_quadrature(self, kappa, tau, R):
        # the area is 2 pi int_0^rho sqrt(1 + tau^2 r^2) r / (1 + kappa r^2 / 4)^2 dr,
        # rho the model radius of the base disk D_R: an adaptive 1-D rule, not
        # the 2-D annulus quadrature that graph_area runs
        sp = SpaceParams(kappa, tau)
        rho = base_disk_model_radius(sp, R)
        ref, _ = quad(lambda r: 2.0 * math.pi * math.sqrt(1.0 + tau * tau * r * r) * r
                      / (1.0 + 0.25 * kappa * r * r) ** 2, 0.0, rho, epsabs=0.0, epsrel=1e-13)
        area = umbrella(sp).closed_forms["extrinsic_area"](R)
        assert math.isclose(area, ref, rel_tol=1e-11)

    @pytest.mark.parametrize("kappa,tau,R", [(-1.0, 1.0, 3.0), (-4.0, 2.0, 2.0)])
    def test_sl2_graph_area_matches_closed_form(self, kappa, tau, R):
        sp = SpaceParams(kappa, tau)
        area = graph_area(umbrella(sp).graph, base_disk_model_radius(sp, R)).value
        assert math.isclose(area, umbrella(sp).closed_forms["extrinsic_area"](R), rel_tol=1e-8)

    def test_hyperbolic_leading_coefficient(self):
        # area(R) ~ coeff * exp(sqrt(-kappa) R) as R grows
        sp = SpaceParams(-1.0, 1.0)
        surf = umbrella(sp)
        coeff = surf.closed_forms["area_leading_coefficient"]
        assert math.isclose(coeff, math.pi * math.sqrt(5.0), rel_tol=1e-14)
        R = 10.0
        ratio = surf.closed_forms["extrinsic_area"](R) / (coeff * math.exp(R))
        assert abs(ratio - 1.0) < 2e-3


class TestAffinePlane:
    def test_is_minimal_graph(self):
        surf = affine_plane(1.0, 2.0, -0.5)
        for x in (-1.0, 0.0, 1.5):
            for y in (-2.0, 0.5):
                assert abs(mean_curvature(surf.graph, BasePoint(x, y))) < 1e-13

    def test_height_values(self):
        surf = affine_plane(1.0, 2.0, 3.0)
        assert math.isclose(float(surf.graph.u(1.0, 1.0)), 5.0, rel_tol=1e-14)


class TestFmp:
    def test_theta_zero_is_tau_xy(self):
        tau = 1.3
        surf = fmp_surface(tau, 0.0)
        assert math.isclose(float(surf.graph.u(2.0, -1.5)), tau * 2.0 * -1.5,
                            rel_tol=1e-14)

    def test_minimal_for_all_theta(self):
        for theta in (-1.0, 0.0, 1.0):
            g = fmp_surface(1.0, theta).graph
            for x, y in ((0.3, -0.8), (-1.2, 0.5), (2.0, 2.0)):
                assert abs(mean_curvature(g, BasePoint(x, y))) < 1e-12

    def test_square_inclusion_paths(self):
        # theta = 0 induced metric is (1 + 4 tau^2 y^2) dx^2 + dy^2, so the
        # two-segment path (0,0) -> (x0, 0) -> (x0, y0) has length |x0| + |y0|
        from ektau.growth import _induced_metric

        tau = 1.0
        g = fmp_surface(tau, 0.0).graph
        x0, y0 = 1.4, -0.8
        n = 4001
        xs = np.linspace(0.0, x0, n)
        E, F, G = _induced_metric(g, xs, np.zeros(n))
        assert np.allclose(F, 0.0, atol=1e-14)
        seg1 = float(np.trapezoid(np.sqrt(E), xs))
        ys = np.linspace(0.0, y0, n)
        E2, _, G2 = _induced_metric(g, np.full(n, x0), ys)
        seg2 = abs(float(np.trapezoid(np.sqrt(G2), ys)))
        assert math.isclose(seg1, abs(x0), rel_tol=1e-10)
        assert math.isclose(seg2, abs(y0), rel_tol=1e-10)
        # the horizontal segment at height y0 is strictly longer
        E3, _, _ = _induced_metric(g, xs, np.full(n, y0))
        assert float(np.trapezoid(np.sqrt(E3), xs)) > abs(x0)

    def test_lower_bound_positive_and_increasing(self):
        lb = fmp_surface(1.0, 0.0).closed_forms["intrinsic_area_lower_bound"]
        vals = [lb(R) for R in (1.0, 2.0, 4.0, 8.0)]
        assert all(v > 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            fmp_surface(0.0, 0.0)


# A(R) of u = x y (tau = 1) at R = 4, 5, 6.5, 8, 10, 12 from a separate
# implementation of the same reduction (the slope found by bisection), whose
# 64^2- and 128^2-node quadratures agreed to 6e-14
_FMP_RADII = [4.0, 5.0, 6.5, 8.0, 10.0, 12.0]
_FMP_AREAS = [122.0456916888, 223.2966945372, 460.5018408702, 824.0278918435,
              1551.800192365, 2615.954288307]


class TestFmpIntrinsicArea:
    def test_reference_values(self):
        areas = fmp_surface(1.0, 0.0).closed_forms["intrinsic_area"](_FMP_RADII)
        for a, ref in zip(areas, _FMP_AREAS):
            assert math.isclose(a, ref, rel_tol=1e-10)

    def test_only_theta_zero_has_the_closed_form(self):
        assert "intrinsic_area" not in fmp_surface(1.0, 0.5).closed_forms

    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 3e-2, 0.1])
    def test_small_radius_expansion(self, tau, t):
        # Gray's expansion of a small geodesic disk's area, at the origin,
        # where K = -4 tau^2 and Delta K = 64 tau^4:
        # pi R^2 (1 - K R^2 / 12 + (2 K^2 - 3 Delta K) R^4 / 720 + O(R^6));
        # at t = tau R = 1e-3 the curvature term is 3.3e-7, above rounding
        R = t / tau
        (a,) = fmp_intrinsic_area(tau, [R])
        series = 1.0 + t * t / 3.0 - 2.0 * t**4 / 9.0
        assert abs(a / (math.pi * R * R) - series) <= 5.0 * t**6 + 1e-14

    @settings(max_examples=25, deadline=None)
    @given(tau=st.floats(0.05, 20.0), t=st.floats(1e-3, 60.0))
    def test_homothety(self, tau, t):
        # (x, y) -> (tau x, tau y) maps u = tau x y's metric to tau^2 times
        # that of u = x y, so A_tau(R) = A_1(tau R) / tau^2
        (a,) = fmp_intrinsic_area(tau, [t / tau])
        (a1,) = fmp_intrinsic_area(1.0, [t])
        assert math.isclose(a * tau * tau, a1, rel_tol=1e-10)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 30.0])
    def test_lower_bound_holds(self, R):
        surf = fmp_surface(1.0, 0.0)
        (a,) = surf.closed_forms["intrinsic_area"]([R])
        assert a >= surf.closed_forms["intrinsic_area_lower_bound"](R)

    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 0.3, 1.0, 4.0, 12.0, 40.0, 100.0])
    def test_node_doubling_converges(self, t):
        levels = [surfaces._fmp_area_level(1.0, np.array([t]), n)[0] for n in (64, 128)]
        assert math.isclose(levels[0], levels[1], rel_tol=1e-8)
        (a,) = fmp_intrinsic_area(1.0, [t])
        assert math.isclose(a, levels[1], rel_tol=1e-10)

    @pytest.mark.parametrize("t", [300.0, 1e3, 1e4])
    def test_large_radii_converge_or_raise(self, t):
        try:
            (a,) = fmp_intrinsic_area(1.0, [t])
        except ConvergenceError:
            return
        # the distance is at least |x| and at least |y|, so the ball lies over
        # the square |x|, |y| <= R, whose graph has area
        # 2 R (R sqrt(1 + 4 R^2) + asinh(2 R) / 2)
        lb = fmp_surface(1.0, 0.0).closed_forms["intrinsic_area_lower_bound"](t)
        assert lb <= a <= 2.0 * t * (t * math.sqrt(1.0 + 4.0 * t * t)
                                     + 0.5 * math.asinh(2.0 * t))

    def test_unconverged_levels_raise(self, monkeypatch):
        monkeypatch.setattr(surfaces, "FMP_AREA_TOL", 0.0)
        with pytest.raises(ConvergenceError) as info:
            fmp_intrinsic_area(1.0, [4.0, 8.0])
        n = surfaces.FMP_AREA_BASE_N * 2 ** (surfaces.FMP_AREA_LEVELS - 1)
        finest = surfaces._fmp_area_level(1.0, np.array([4.0, 8.0]), n)
        assert np.array_equal(info.value.best, finest)

    def test_shapes_zero_and_tiny_radii(self):
        areas = fmp_intrinsic_area(1.0, [[0.0, 1e-9], [2.0, 3.0]])
        assert areas.shape == (2, 2)
        assert areas[0, 0] == 0.0
        assert math.isclose(areas[0, 1], math.pi * 1e-18, rel_tol=1e-15)
        assert np.array_equal(areas[1], fmp_intrinsic_area(1.0, [2.0, 3.0]))

    @pytest.mark.parametrize("radii", [[float("nan")], [float("inf")], [-1.0], [1.0, -0.5]])
    def test_bad_radii_raise(self, radii):
        with pytest.raises(ValueError, match="finite and >= 0"):
            fmp_intrinsic_area(1.0, radii)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    @pytest.mark.parametrize("c", [0.05, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("y", [0.3, 2.0, 6.0])
    def test_clairaut_endpoint_matches_geodesic_ode(self, tau, c, y):
        # the surface geodesic x'' = -2 (f'/f) x' y', y'' = f f' x'^2 from the
        # origin with unit velocity (c, sqrt(1 - c^2)) is at (X(c, y), y)
        # after the arclength S(c, y)
        ell, U = np.array([math.log1p(-c * c)]), np.array([2.0 * tau * y])
        W, I1, I2, _ = surfaces._clairaut_integrals(ell, U, 128)
        S = float(W[0] + I1[0]) / (2.0 * tau)
        X = c * float(W[0] + I1[0] - I2[0]) / (2.0 * tau)

        def rhs(_s, q):
            x, yy, vx, vy = q
            f2 = 1.0 + 4.0 * tau * tau * yy * yy
            ff = 4.0 * tau * tau * yy  # f f'
            return [vx, vy, -2.0 * ff / f2 * vx * vy, ff * vx * vx]

        sol = solve_ivp(rhs, (0.0, S), [0.0, 0.0, c, math.sqrt(1.0 - c * c)],
                        method="DOP853", rtol=1e-12, atol=1e-12)
        x_end, y_end = sol.y[0, -1], sol.y[1, -1]
        assert math.isclose(x_end, X, rel_tol=1e-8)
        assert math.isclose(y_end, y, rel_tol=1e-8)

    @pytest.mark.parametrize("y", [0.5, 3.0])
    def test_slices_grow_with_the_slope(self, y):
        # S and X increase with c at fixed y, so each slice of B_R is the
        # interval |x| < X(c*, y) that the area integrates
        c = np.linspace(0.0, 0.999999, 200)
        W, I1, I2, _ = surfaces._clairaut_integrals(np.log1p(-c * c), np.full(c.size, 2.0 * y), 64)
        S, X = W + I1, c * (W + I1 - I2)
        assert np.all(np.diff(S) > 0.0) and np.all(np.diff(X) > 0.0)


class TestCatenoid:
    def test_height_zero_at_neck(self):
        assert catenoid_height(1.0, 1.0, 1.0) == 0.0

    def test_height_matches_profile_ode(self):
        tau, E = 1.0, 1.0
        prof = cmc_profile(tau, 0.0, E, 12.0)
        h_quad = catenoid_height(tau, E, prof.r[-1])
        assert math.isclose(prof.h[-1], h_quad, abs_tol=1e-8)

    def test_first_integral_constant(self):
        prof = cmc_profile(1.0, 0.0, 1.0, 10.0)
        fi = prof.first_integral()
        assert np.max(np.abs(fi - fi[0])) < 1e-9
        assert math.isclose(fi[0], 1.0, rel_tol=1e-12)

    def test_cmc_first_integral(self):
        prof = cmc_profile(1.0, 0.3, 1.0, 4.0)
        fi = prof.first_integral()
        assert np.max(np.abs(fi - fi[0])) < 1e-8

    @pytest.mark.parametrize("tau,E", [(1.0, 1.0), (0.5, 2.0)])
    def test_asymptotic_slope(self, tau, E):
        r = 100.0 * E
        slope = catenoid_height(tau, E, r) / r
        assert abs(slope / (E * tau) - 1.0) < 0.05

    def test_graph_is_minimal_away_from_neck(self):
        surf = catenoid(1.0, 1.0)
        for r in (1.5, 3.0, 10.0):
            assert abs(mean_curvature(surf.graph, BasePoint(r, 0.0))) < 1e-9

    def test_domain_has_only_inner_boundary(self):
        surf = catenoid(1.0, 1.0)
        arcs = surf.graph.domain.arcs
        assert len(arcs) == 1
        x, y = arcs[0].curve(np.array([0.0, 0.25]))
        assert np.allclose(np.hypot(x, y), 1.0)

    def test_height_on_the_sweep_grid_matches_full_array_form(self):
        # collin_krust_sweep's grid: 512 circles of 64 points, whose hypot
        # radii repeat; one quadrature per distinct radius must give the
        # per-point quadrature's heights exactly, in place
        tau, E = 1.0, 1.0
        rs = np.linspace(E + 1e-9, 200.0, 512)
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        r = np.hypot(rs[:, None] * np.cos(th), rs[:, None] * np.sin(th))
        wmax = np.arccosh(np.maximum(r / E, 1.0))
        nodes, weights = leggauss(200)
        w = 0.5 * wmax[..., None] * (nodes + 1.0)
        integrand = E * np.sqrt(1.0 + (tau * E * np.cosh(w)) ** 2)
        expected = 0.5 * wmax * np.sum(weights * integrand, axis=-1)
        assert len(np.unique(r)) < r.size
        got = catenoid_height(tau, E, r)
        assert got.shape == r.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("r", [2.5, np.float64(2.5), np.array(2.5)])
    def test_height_of_a_scalar_is_a_float(self, r):
        h = catenoid_height(1.0, 1.0, r)
        assert type(h) is float
        assert h == catenoid_height(1.0, 1.0, np.array([r]))[0]

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 1, 3)])
    def test_height_keeps_the_shape(self, shape):
        r = 1.0 + np.arange(np.prod(shape), dtype=float)[::-1].reshape(shape) % 3
        h = catenoid_height(1.0, 1.0, r)
        assert h.shape == shape
        for idx in np.ndindex(shape):
            assert h[idx] == catenoid_height(1.0, 1.0, float(r[idx]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catenoid(1.0, -1.0)
        with pytest.raises(ValueError):
            catenoid_height(1.0, 2.0, 1.0)

    def test_truncated_area_finite(self):
        surf = catenoid(1.0, 1.0)
        area = graph_area(surf.graph, 10.0).value
        assert 0.0 < area < 1e4


class TestIdealPolygon:
    @pytest.mark.parametrize("kappa", [-1.0, -4.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_closed_form_vs_triangulation(self, kappa, n):
        closed = ideal_polygon_area(kappa, n, 0.0)
        numeric = ideal_polygon_area_numeric(kappa, n)
        assert math.isclose(closed, numeric, rel_tol=1e-8)

    def test_formula_value(self):
        assert math.isclose(ideal_polygon_area(-1.0, 2, 0.0), 2.0 * math.pi,
                            rel_tol=1e-14)

    def test_subcritical_validation(self):
        with pytest.raises(HypothesisViolationError):
            ideal_polygon_area(-1.0, 3, 0.6)  # 4 H^2 + kappa >= 0
        with pytest.raises(ValueError):
            ideal_polygon_area(0.0, 3, 0.0)
        with pytest.raises(ValueError):
            ideal_polygon_area(-1.0, 1, 0.0)
