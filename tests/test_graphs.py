"""Tests for vertical graphs: fields, mean curvature, areas, identities."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ektau import _quadrature
from ektau.core import BasePoint, SpaceParams, base_disk_model_radius
from ektau.errors import ConvergenceError, HypothesisViolationError, ModelDomainError
from ektau.graphs import (
    BaseDomain,
    BoundaryArc,
    GraphSurface,
    _area_density,
    base_disk_area_weighted,
    calabi_lee_check,
    factorization_identity_residual,
    factorization_lhs,
    gradient_height_bounds,
    graph_area,
    graph_fields,
    lemma41_bound,
    lemma42_bound,
    mean_curvature,
    z_field,
)
from ektau.surfaces import affine_plane, catenoid, fmp_surface, umbrella


def _quadratic_graph(sp):
    return GraphSurface(
        sp,
        BaseDomain.full_plane(),
        lambda x, y: 0.3 * x * x - 0.2 * x * y + 0.5 * y * y,
        lambda x, y: (0.6 * x - 0.2 * y, -0.2 * x + 1.0 * y),
        lambda x, y: (
            np.full(np.shape(x), 0.6),
            np.full(np.shape(x), -0.2),
            np.full(np.shape(x), 1.0),
        ),
    )


def _quadrant(g):
    """g restricted to the open quadrant x > 0, y > 0."""
    return replace(g, domain=BaseDomain(lambda x, y: (x > 0.0) & (y > 0.0)))


def _meshgrid_level(f, r0, r1, n_r, n_theta):
    """One annulus level with a meshgrid and trig at every node: the form
    _quadrature._annulus_level replaces, kept as its bit-for-bit oracle."""
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    if r0 > 0.0:
        h = r1 - r0
        r = r0 + h * s * s
        wr = ws * 2.0 * h * s
    else:
        r = r1 * s
        wr = ws * r1
    wt = 2.0 * math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * wt
    total = 0.0
    step = max(1, _quadrature._CHUNK_POINTS // n_r)
    for i in range(0, n_theta, step):
        T, R = np.meshgrid(theta[i : i + step], r, indexing="ij")
        vals = f(R * np.cos(T), R * np.sin(T)) * R
        total += float(np.sum(vals * wr[None, :]))
    return total * wt


class TestFields:
    def test_z_field_norm(self):
        sp = SpaceParams(0.0, 1.5)
        p = BasePoint(0.6, -0.8)
        Z = z_field(sp, p)
        assert math.isclose(float(np.hypot(*Z)), 1.5 * 1.0, rel_tol=1e-14)

    def test_umbrella_fields(self):
        sp = SpaceParams(0.0, 1.0)
        g = umbrella(sp).graph
        f = graph_fields(g, BasePoint(1.0, 0.0))
        # Gu = Z for u = 0
        assert np.allclose(f.Gu, f.Z)
        assert math.isclose(f.W, math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(f.nu * f.W, 1.0, rel_tol=1e-14)

    def test_outside_model_disk_raises(self):
        # (3, 0) lies outside the model disk of radius 2 of kappa = -1
        sp = SpaceParams(-1.0, 0.0)
        g_fd = GraphSurface(sp, BaseDomain.full_plane(), lambda x, y: 0.3 * x)
        for g in (_quadratic_graph(sp), g_fd):
            with pytest.raises(ModelDomainError):
                graph_fields(g, BasePoint(3.0, 0.0))
            with pytest.raises(ModelDomainError):
                mean_curvature(g, BasePoint(3.0, 0.0))

    def test_fd_gradient_fallback(self):
        sp = SpaceParams(0.0, 1.0)
        g = GraphSurface(sp, BaseDomain.full_plane(), lambda x, y: x * x * y)
        ux, uy = g.grad(0.7, -0.4)
        assert math.isclose(ux, 2 * 0.7 * -0.4, abs_tol=1e-7)
        assert math.isclose(uy, 0.7**2, abs_tol=1e-7)


class TestMeanCurvature:
    def test_analytic_matches_fd(self):
        for sp in (SpaceParams(0.0, 1.0), SpaceParams(-1.0, 0.7)):
            g = _quadratic_graph(sp)
            g_fd = GraphSurface(sp, g.domain, g.u, g.grad_u)  # no hessian: FD path
            for p in (BasePoint(0.3, 0.2), BasePoint(-0.5, 0.6)):
                assert math.isclose(
                    mean_curvature(g, p), mean_curvature(g_fd, p), abs_tol=1e-6
                )

    def test_flux_oracle(self):
        # independent check: the metric divergence of V equals the net
        # metric flux of V through a small coordinate square per unit area
        sp = SpaceParams(-1.0, 0.8)
        g = _quadratic_graph(sp)
        p = BasePoint(0.25, -0.15)
        h = 1e-3
        n_q = 64
        s = np.linspace(-h, h, n_q)

        def lam_v(xs, ys):
            ux, uy = g.grad(xs, ys)
            mu = 1.0 + 0.25 * sp.kappa * (xs * xs + ys * ys)
            g1 = ux * mu + sp.tau * ys
            g2 = uy * mu - sp.tau * xs
            W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
            lam = 1.0 / mu
            return lam * g1 / W, lam * g2 / W

        # flux through the four edges (frame normal, metric line element lam)
        fx_p, _ = lam_v(np.full(n_q, p.x + h), p.y + s)
        fx_m, _ = lam_v(np.full(n_q, p.x - h), p.y + s)
        _, fy_p = lam_v(p.x + s, np.full(n_q, p.y + h))
        _, fy_m = lam_v(p.x + s, np.full(n_q, p.y - h))
        flux = float(
            np.trapezoid(fx_p - fx_m, s) + np.trapezoid(fy_p - fy_m, s)
        )
        X, Y = np.meshgrid(p.x + s, p.y + s, indexing="ij")
        lam2 = (1.0 / (1.0 + 0.25 * sp.kappa * (X * X + Y * Y))) ** 2
        area = float(np.trapezoid(np.trapezoid(lam2, s, axis=1), s))
        oracle = 0.5 * flux / area
        assert math.isclose(mean_curvature(g, p), oracle, abs_tol=1e-4)

    def test_minimal_examples_vanish(self):
        xs = np.linspace(-1.5, 1.5, 12)
        for surf in (
            umbrella(SpaceParams(0.0, 1.0)),
            affine_plane(1.0, 0.7, -0.4),
            fmp_surface(1.0, 0.5),
        ):
            for x in xs[::3]:
                for y in xs[::3]:
                    assert abs(mean_curvature(surf.graph, BasePoint(x, y))) < 1e-12

    def test_nonminimal_graph_detected(self):
        sp = SpaceParams(0.0, 1.0)
        g = _quadratic_graph(sp)
        assert abs(mean_curvature(g, BasePoint(0.0, 0.0))) > 0.1


class TestAreas:
    def test_umbrella_area_euclidean(self):
        g = umbrella(SpaceParams(0.0, 0.0)).graph
        assert math.isclose(graph_area(g, 2.0).value, 4.0 * math.pi, rel_tol=1e-8)

    def test_umbrella_area_nil(self):
        tau, R = 1.0, 2.0
        g = umbrella(SpaceParams(0.0, tau)).graph
        exact = 2.0 * math.pi / (3.0 * tau**2) * ((1.0 + tau**2 * R * R) ** 1.5 - 1.0)
        assert math.isclose(graph_area(g, R).value, exact, rel_tol=1e-8)

    def test_umbrella_area_product(self):
        sp = SpaceParams(-1.0, 0.0)
        R = 1.5
        g = umbrella(sp).graph
        re = base_disk_model_radius(sp, R)
        exact = 4.0 * math.pi * math.sinh(0.5 * R) ** 2
        assert math.isclose(graph_area(g, re).value, exact, rel_tol=1e-8)

    def test_weighted_disk_integrals_nil(self):
        # int_{D_R} 1 = pi R^2 and int_{D_R} |Z| = (2 pi tau / 3) R^3
        tau, R = 1.0, 3.0
        g = umbrella(SpaceParams(0.0, tau)).graph
        assert math.isclose(base_disk_area_weighted(g, R, with_z=False),
                            math.pi * R * R, rel_tol=1e-8)
        assert math.isclose(base_disk_area_weighted(g, R, with_z=True),
                            2.0 * math.pi * tau / 3.0 * R**3, rel_tol=1e-8)

    def test_weighted_disk_integrals_hyperbolic(self):
        # kappa < 0: int_{D_R} 1 = (4 pi / -kappa) sinh^2(sqrt(-kappa) R / 2)
        # and int_{D_R} |Z| = (4 pi tau / -kappa)(sinh(sqrt(-kappa) R)/sqrt(-kappa) - R)
        kappa, tau, R = -1.0, 1.0, 3.0
        g = umbrella(SpaceParams(kappa, tau)).graph
        sk = math.sqrt(-kappa)
        area = (4.0 * math.pi / -kappa) * math.sinh(0.5 * sk * R) ** 2
        z_int = (4.0 * math.pi * tau / -kappa) * (math.sinh(sk * R) / sk - R)
        assert math.isclose(base_disk_area_weighted(g, R, with_z=False),
                            area, rel_tol=1e-7)
        assert math.isclose(base_disk_area_weighted(g, R, with_z=True),
                            z_int, rel_tol=1e-7)


    @pytest.mark.parametrize("R", [2.0, 4.0, 8.0])
    def test_quadrant_is_a_quarter_of_the_plane(self, R):
        # the reflections in the axes (with z -> -z) carry u = tau x y to
        # itself, so each quadrant holds a quarter of every area
        g = fmp_surface(1.0, 0.0).graph
        q = _quadrant(g)
        assert math.isclose(graph_area(q, R).value, 0.25 * graph_area(g, R).value,
                            rel_tol=1e-12)
        for with_z in (False, True):
            assert math.isclose(base_disk_area_weighted(q, R, with_z),
                                0.25 * base_disk_area_weighted(g, R, with_z), rel_tol=1e-12)
        assert math.isclose(lemma41_bound(q, R).area_term, math.pi * R * R / 4.0,
                            rel_tol=1e-12)


class TestAnnulusLevel:
    """_annulus_level takes cos and sin once per angle; every level must
    equal the per-node meshgrid form exactly."""

    @staticmethod
    def _cases():
        hyp = umbrella(SpaceParams(-1.0, 1.0)).graph
        return {
            # not rotational
            "fmp": (_area_density(fmp_surface(1.0, 0.7).graph), 0.0, 5.0),
            # u = tau x y with the quadrant cut masking the integrand
            "quadrant": (_area_density(_quadrant(fmp_surface(1.0, 0.0).graph)), 0.0, 4.0),
            # r0 > 0: the r = r0 + (r1 - r0) s^2 substitution
            "catenoid": (_area_density(catenoid(1.0, 1.0).graph), 1.0, 10.0),
            "umbrella-hyperbolic": (_area_density(hyp), 0.0,
                                    base_disk_model_radius(hyp.sp, 6.0)),
        }

    @pytest.mark.parametrize("case", ["fmp", "quadrant", "catenoid", "umbrella-hyperbolic"])
    @pytest.mark.parametrize("chunk", [None, 1000])
    def test_matches_meshgrid_form(self, case, chunk, monkeypatch):
        # chunk = 1000 splits every level into several angle blocks
        if chunk is not None:
            monkeypatch.setattr(_quadrature, "_CHUNK_POINTS", chunk)
        f, r0, r1 = self._cases()[case]
        for n_r in (32, 64, 128):
            got = _quadrature._annulus_level(f, r0, r1, n_r, 2 * n_r)
            assert got == _meshgrid_level(f, r0, r1, n_r, 2 * n_r)


class TestNonFiniteQuadrature:
    """A level that reads inf or nan stops the refinement at once with a
    ConvergenceError, instead of doubling the grid to its last level."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("from_level", [1, 2])
    def test_raises_after_the_first_bad_level(self, bad, from_level, monkeypatch):
        calls = []
        level = _quadrature._annulus_level

        def counted(*args):
            calls.append(args)
            return level(*args)

        def f(x, y):
            return np.full(np.shape(x), bad if len(calls) >= from_level else 1.0)

        monkeypatch.setattr(_quadrature, "_annulus_level", counted)
        with pytest.raises(ConvergenceError) as info:
            _quadrature.integrate_annulus(f, 0.0, 1.0)
        assert len(calls) == from_level
        assert not math.isfinite(info.value.best)

    def test_catenoid_just_outside_the_neck_fails_fast(self):
        # every node of the annulus 1 < r < 1 + 1e-12 lies within a few
        # thousand ulps of the neck, where the integrand reads inf or nan
        g = catenoid(1.0, 1.0).graph
        t0 = time.perf_counter()
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ConvergenceError):
            graph_area(g, 1.0 + 1e-12)
        assert time.perf_counter() - t0 < 1.0


class TestLemmaBounds:
    def test_umbrella_bounds_dominate_exact_area(self):
        tau = 1.0
        surf = umbrella(SpaceParams(0.0, tau))
        for R in (1.0, 2.0, 4.0):
            area = surf.closed_forms["extrinsic_area"](R)
            b41 = lemma41_bound(surf.graph, R)
            b42 = lemma42_bound(surf.graph, R)
            assert b41.total >= area
            assert b42.total >= area
            assert b41.boundary_value_term == 0.0

    def test_sl2_umbrella_bounds_dominate_closed_form(self):
        surf = umbrella(SpaceParams(-1.0, 1.0))
        for R in (1.0, 2.0, 4.0):
            area = surf.closed_forms["extrinsic_area"](R)
            assert lemma41_bound(surf.graph, R).total >= area
            assert lemma42_bound(surf.graph, R).total >= area

    @pytest.mark.parametrize("surface", ["fmp", "catenoid"])
    def test_bounds_share_their_terms(self, surface):
        # the catenoid's one arc, its neck, has finite values: Lemma 4.2 adds
        # its length to the height term, where Lemma 4.1 integrates |u| = 0
        g = {"fmp": fmp_surface(1.0, 0.0), "catenoid": catenoid(1.0, 1.0)}[surface].graph
        R, h = 4.0, 2.5
        b41, b42 = lemma41_bound(g, R, h=h), lemma42_bound(g, R, h=h)
        assert b42.interior_term == b41.area_term + b41.z_term
        neck = 2.0 * math.pi if surface == "catenoid" else 0.0
        assert math.isclose(b42.height_term, b41.height_term + h * neck, rel_tol=1e-6)
        assert b41.boundary_value_term == pytest.approx(0.0, abs=1e-6)

    def test_bounds_monotone_in_radius(self):
        g = fmp_surface(1.0, 0.0).graph
        totals = [lemma42_bound(g, R).total for R in (1.0, 2.0, 3.0, 4.0)]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_explicit_height_callable(self):
        g = umbrella(SpaceParams(0.0, 1.0)).graph
        b_small = lemma42_bound(g, 2.0, h=0.0)
        b_big = lemma42_bound(g, 2.0, h=10.0)
        assert b_small.height_term == 0.0
        assert b_big.total > b_small.total


grad_component = st.floats(-3.0, 3.0)


class TestFactorization:
    @given(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
        grad_component, grad_component, grad_component, grad_component,
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_and_nonnegativity(self, x, y, ux, uy, vx, vy):
        sp = SpaceParams(0.0, 1.0)
        p = BasePoint(x, y)
        lhs = factorization_lhs(sp, p, (ux, uy), (vx, vy))
        assert lhs >= -1e-15
        assert factorization_identity_residual(sp, p, (ux, uy), (vx, vy)) < 1e-12

    def test_zero_for_equal_gradients(self):
        sp = SpaceParams(-1.0, 0.5)
        p = BasePoint(0.3, 0.4)
        assert factorization_lhs(sp, p, (0.7, -0.2), (0.7, -0.2)) == 0.0


class TestCalabiLee:
    def test_exact_pair(self):
        tau = 1.0
        surf = fmp_surface(tau, 0.0)  # u = tau x y

        def grad_v(x, y):
            q = np.sqrt(1.0 + 4.0 * tau**2 * y * y)
            return np.zeros(np.shape(x)), 2.0 * tau * y / q

        pts = [BasePoint(x, y) for x in (-1.0, 0.0, 2.0) for y in (-0.5, 0.3, 1.5)]
        res = calabi_lee_check(surf.graph, grad_v, pts)
        assert np.max(res) < 1e-12

    def test_non_spacelike_rejected(self):
        surf = fmp_surface(1.0, 0.0)
        with pytest.raises(HypothesisViolationError):
            calabi_lee_check(surf.graph, lambda x, y: (1.0, 0.5), [BasePoint(0, 0)])

    def test_requires_nil(self):
        surf = umbrella(SpaceParams(-1.0, 0.0))
        with pytest.raises(HypothesisViolationError):
            calabi_lee_check(surf.graph, lambda x, y: (0.0, 0.0), [BasePoint(0, 0)])


class TestGradientHeightBounds:
    def test_umbrella_constant(self):
        g = umbrella(SpaceParams(0.0, 1.0)).graph
        B, C = gradient_height_bounds(g, [0.5, 1.0, 2.0, 4.0])
        # |Gu| = tau r <= tau (1 + r^2)/2, so B <= tau/2 and C = 0
        assert B <= 0.5 + 1e-12
        assert C == 0.0

    def test_plane_bounds_finite(self):
        g = affine_plane(1.0, 2.0, -1.0).graph
        B, C = gradient_height_bounds(g, [1.0, 2.0, 4.0, 8.0])
        assert 0.0 < B < math.inf
        assert 0.0 < C < math.inf


class TestDomains:
    def test_arc_kind_validation(self):
        with pytest.raises(ValueError):
            BoundaryArc(lambda s: (s, s), kind="weird")

    def test_annulus_validation(self):
        with pytest.raises(ValueError):
            BaseDomain.annulus(2.0, 1.0)

    def test_disk_membership(self):
        d = BaseDomain.disk(1.0)
        assert d.membership(0.5, 0.5)
        assert not d.membership(1.5, 0.0)
