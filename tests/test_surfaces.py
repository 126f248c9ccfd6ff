"""Tests for the example surfaces and their closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ektau._quadrature import leggauss
from ektau.core import BasePoint, SpaceParams, base_disk_model_radius
from ektau.errors import HypothesisViolationError
from ektau.graphs import graph_area, mean_curvature
from ektau.surfaces import (
    affine_plane,
    catenoid,
    catenoid_height,
    cmc_profile,
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
