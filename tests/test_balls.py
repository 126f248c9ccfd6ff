"""Tests for ball volumes: membership, Monte Carlo, brackets, growth fits."""

import math
import os
import queue
import signal
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ektau.core import PointE, SpaceParams
from ektau.errors import ModelDomainError, UnsupportedSpaceError
from ektau import balls
from ektau.balls import (
    MC_CHUNK,
    BallSpec,
    _chunk_rng,
    _nil_membership,
    _sample_cylinder,
    bounding_cylinder,
    comparison_cylinder_volume,
    in_ball,
    mc_volume,
    sl2_volume_bracket,
    volume_growth_fit,
)
from ektau.geodesics import (
    ball_distance,
    distance,
    hyperbolic_distance,
    nil_distance_reduced,
    nil_group_translate,
    nil_max_height,
    nil_sphere_bounds,
)

ORIGIN = PointE(0.0, 0.0, 0.0)


class TestBoundingCylinder:
    def test_euclidean(self):
        ball = BallSpec(SpaceParams(0.0, 0.0), ORIGIN, 2.0)
        assert bounding_cylinder(ball) == (2.0, 2.0)

    def test_nil_height_is_max_height(self):
        ball = BallSpec(SpaceParams(0.0, 1.0), ORIGIN, 4.0)
        disk_r, height = bounding_cylinder(ball)
        assert disk_r == 4.0
        assert height == nil_max_height(1.0, 4.0)

    def test_negative_curvature_disk_radius(self):
        sp = SpaceParams(-1.0, 0.0)
        ball = BallSpec(sp, ORIGIN, 3.0)
        disk_r, height = bounding_cylinder(ball)
        assert math.isclose(disk_r, 2.0 * math.tanh(1.5), rel_tol=1e-14)
        assert height == 3.0

    def test_bad_radius(self):
        for R in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                BallSpec(SpaceParams(0.0, 0.0), ORIGIN, R)

    @pytest.mark.parametrize("space", [(0.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("center", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                        (0.0, 0.0, -math.inf)])
    def test_non_finite_center(self, space, center):
        with pytest.raises(ValueError):
            BallSpec(SpaceParams(*space), PointE(*center), 1.0)

    @pytest.mark.parametrize("center", [(5.0, 0.0, 0.0), (0.0, 2.0, 0.0), (1.5, -1.5, 3.0)])
    def test_center_outside_the_model_disk(self, center):
        for tau in (0.0, 1.0):
            with pytest.raises(ModelDomainError):
                BallSpec(SpaceParams(-1.0, tau), PointE(*center), 1.0)


class TestMembership:
    def test_euclidean_ball(self):
        ball = BallSpec(SpaceParams(0.0, 0.0), ORIGIN, 1.0)
        assert in_ball(ball, PointE(0.5, 0.5, 0.5))
        assert not in_ball(ball, PointE(0.9, 0.9, 0.0))

    def test_nil_membership_matches_distance(self):
        sp = SpaceParams(0.0, 1.0)
        ball = BallSpec(sp, ORIGIN, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = PointE(*rng.uniform(-2.5, 2.5, size=3))
            d = distance(sp, ORIGIN, p)
            if abs(d - 2.0) < 1e-3:
                continue
            assert in_ball(ball, p) == (d < 2.0)

    def test_off_center_ball(self):
        sp = SpaceParams(0.0, 1.0)
        c = PointE(1.0, -0.5, 2.0)
        ball = BallSpec(sp, c, 1.0)
        assert in_ball(ball, PointE(c.x + 0.3, c.y, c.z))
        assert not in_ball(ball, ORIGIN)

    def test_nil_point_near_the_plane(self):
        # the shooting solver behind distance() finds no branch here
        sp = SpaceParams(0.0, 1.2241624854912188)
        ball = BallSpec(sp, ORIGIN, 5.0)
        assert in_ball(ball, PointE(4.675362118938841, 0.0, 1e-5))

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.floats(0.3, 2.0),
        radius=st.floats(0.5, 4.0),
        center=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-5, 5)),
        offset=st.tuples(st.floats(-4, 4), st.floats(-4, 4), st.floats(-8, 8)),
        g=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-5, 5)),
    )
    def test_nil_off_center_ball_is_translated(self, tau, radius, center, offset, g):
        """B_R(c) contains p iff B_R(0) contains c^-1 p, iff B_R(g c) contains g p."""
        sp = SpaceParams(0.0, tau)
        c = PointE(*center)
        g_inv = PointE(-g[0], -g[1], -g[2])
        q = PointE(*offset)
        p = nil_group_translate(tau, PointE(-c.x, -c.y, -c.z), q)  # p = c q
        d = float(nil_distance_reduced(tau, math.hypot(q.x, q.y), q.z))
        if abs(d - radius) <= 1e-9 * radius:
            return
        inside = in_ball(BallSpec(sp, c, radius), p)
        assert inside == (d < radius)
        assert inside == in_ball(BallSpec(sp, ORIGIN, radius), nil_group_translate(tau, c, p))
        moved = BallSpec(sp, nil_group_translate(tau, g_inv, c), radius)
        assert inside == in_ball(moved, nil_group_translate(tau, g_inv, p))

    @settings(max_examples=100, deadline=None)
    @given(
        kappa=st.sampled_from([-1.0, -0.3]),
        radius=st.floats(0.2, 3.0),
        center=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi),
                         st.floats(-3.0, 3.0)),
        point=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi),
                        st.floats(-3.0, 3.0)),
        turn=st.floats(0.0, 2.0 * math.pi),
    )
    def test_product_off_center_ball(self, kappa, radius, center, point, turn):
        """In H^2 x R, p lies in B_R(c) iff hypot(d_H(c, p), dz) < R, and
        rotating c and p together about the z-axis changes nothing."""
        sp = SpaceParams(kappa, 0.0)

        def at(frac, angle, z):
            r = frac * sp.model_radius
            return PointE(r * math.cos(angle), r * math.sin(angle), z)

        c, p = at(*center), at(*point)
        d = math.hypot(hyperbolic_distance(kappa, c, p), p.z - c.z)
        if abs(d - radius) <= 1e-9 * radius:
            return
        inside = in_ball(BallSpec(sp, c, radius), p)
        assert inside == (d < radius)
        turned = [at(frac, angle + turn, z) for frac, angle, z in (center, point)]
        assert in_ball(BallSpec(sp, turned[0], radius), turned[1]) == inside

    @pytest.mark.parametrize("q", [(0.0, 0.0, 0.0), (0.1, 0.0, 0.1), (1.9, 0.0, 0.0),
                                   (0.0, 0.0, 100.0), (-1.0, 1.0, -50.0)])
    def test_sl2_unsupported_for_every_point(self, q):
        ball = BallSpec(SpaceParams(-1.0, 1.0), ORIGIN, 1.0)
        with pytest.raises(UnsupportedSpaceError):
            in_ball(ball, PointE(*q))


class TestBallMembership:
    """ball_distance with a radius (membership) against the distance solver
    and against ball_distance without one, one space at a time."""

    @settings(max_examples=150, deadline=None)
    @given(
        space=st.sampled_from([(0.0, 0.0), (-1.0, 0.0), (-0.3, 0.0), (0.0, 1.0), (0.0, 0.4)]),
        radius=st.floats(0.3, 4.0),
        frac=st.floats(0.0, 0.99),
        angle=st.floats(0.0, 2.0 * math.pi),
        height=st.floats(-1.5, 1.5),
    )
    def test_agrees_with_distance(self, space, radius, frac, angle, height):
        sp = SpaceParams(*space)
        # points inside and outside the ball, all within the model disk
        rho = frac * min(sp.model_radius, 1.5 * radius)
        z = height * radius
        if sp.is_nil and 0.0 < abs(z) < 1e-3:
            # distance()'s shooting solver fails near the plane (the strict xfail
            # TestDistance::test_nil_point_near_the_plane); membership there is
            # checked by TestMembership::test_nil_point_near_the_plane
            return
        d = distance(sp, ORIGIN, PointE(rho * math.cos(angle), rho * math.sin(angle), z))
        d_ball = float(ball_distance(sp, rho, z))
        assert math.isclose(d_ball, d, rel_tol=1e-8, abs_tol=1e-10)
        if abs(d - radius) > 1e-7 * radius:
            assert bool(ball_distance(sp, rho, z, radius=radius)) == (d < radius)
        if abs(d_ball - radius) > 1e-12 * radius:
            assert bool(ball_distance(sp, rho, z, radius=radius)) == (d_ball < radius)
        # the sphere through the point, crossed from both sides, whenever d is a
        # normal float (below that, distance() itself has lost relative precision)
        for R in (d * (1.0 + 1e-6), d * (1.0 - 1e-6)) if d >= sys.float_info.min else ():
            vec = ball_distance(sp, np.array([rho, rho]), np.array([z, -z]), radius=R)
            assert vec.tolist() == [d < R] * 2

    @pytest.mark.parametrize("space", [(0.0, 0.0), (-1.0, 0.0)])
    @pytest.mark.parametrize("rho,z", [
        (2.7e-186, 0.0), (1e-300, 3e-300), (0.0, 1e-200), (0.5, 1e200), (0.0, 1.7e308),
    ])
    def test_radius_whose_square_leaves_the_normal_range(self, space, rho, z):
        sp = SpaceParams(*space)
        d = float(ball_distance(sp, rho, z))
        assert d > 0.0 and math.isfinite(d)
        for R in (d * (1.0 + 1e-6), d * (1.0 - 1e-6)):
            vec = ball_distance(sp, np.array([rho, rho]), np.array([z, -z]), radius=R)
            assert vec.tolist() == [d < R] * 2

    def test_sl2_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            ball_distance(SpaceParams(-1.0, 1.0), np.array([0.1]), np.array([0.0]), radius=1.0)
        with pytest.raises(UnsupportedSpaceError):
            ball_distance(SpaceParams(-1.0, 1.0), np.array([0.1]), np.array([0.0]))


class TestNilProfile:
    """The Nil3 ball as a solid of revolution: exact membership by the
    one-dimensional geodesic reduction, and Monte Carlo membership from the
    sphere's bin bounds (``nil_sphere_bounds``), which settle all but the
    samples next to the sphere and pass those to the reduction."""

    def test_axis_height_is_exact(self):
        # on the axis the ball of radius 4 reaches (16 + pi^2) / (2 pi) = 4.117,
        # below the height 5.878 that its bounding cylinder reaches off the axis
        tau, R = 1.0, 4.0
        axis = (R * R + math.pi**2) / (2.0 * math.pi)
        rho = np.array([0.0, 1e-4, 0.0, 0.0, 0.0])
        z = np.array([5.0, 5.0, 4.1, axis * (1 - 1e-12), axis * (1 + 1e-12)])
        inside = nil_distance_reduced(tau, rho, z, radius=R)
        assert inside.tolist() == [False, False, True, True, False]
        assert nil_max_height(tau, R) > 5.8

    def test_boundary_value_is_zero(self):
        R = 2.0
        got = nil_distance_reduced(1.0, np.array([R * (1 - 1e-12), R, R]),
                                   np.array([0.0, 0.0, 1e-6]), radius=R)
        assert got.tolist() == [True, False, False]

    @pytest.mark.parametrize("tau,R", [(1.0, 2.0), (1.0, 4.0), (0.5, 1.0), (2.0, 3.0)])
    def test_profile_agrees_with_distance_solver(self, tau, R):
        """Random points near and inside the ball classify as the shooting
        solver does, outside a band of its tolerance around the sphere."""
        sp = SpaceParams(0.0, tau)
        rng = np.random.default_rng(int(10 * tau) * 100 + int(R))
        height = nil_max_height(tau, R)
        band = 1e-8 * R
        rho = rng.uniform(0.0, 1.1 * R, 150)
        z = rng.uniform(0.0, 1.1 * height, 150)
        got = nil_distance_reduced(tau, rho, z, radius=R)
        checked = 0
        for r, h, inside in zip(rho, z, got):
            d = distance(sp, ORIGIN, PointE(r, 0.0, h))
            if abs(d - R) < band:
                continue
            assert inside == (d < R), (r, h, d)
            checked += 1
        assert checked > 100

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(0.1, 10.0), tau_r=st.floats(0.1, 40.0), seed=st.integers(0, 2**31))
    def test_chunk_membership_is_ball_distance(self, tau, tau_r, seed):
        """The lookup returns ball_distance's answer for every sample of a
        chunk, and passes fewer than 1 % of them to it."""
        sp, R = SpaceParams(0.0, tau), tau_r / tau
        disk_r, height = bounding_cylinder(BallSpec(sp, ORIGIN, R))
        rho, z = _sample_cylinder(seed, 0, np.empty((2, 20_000)), disk_r, height, False)
        passed = []

        def counting(sp, rho, z, radius=None):
            passed.append(rho.size)
            return ball_distance(sp, rho, z, radius=radius)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balls, "ball_distance", counting)
            hit = _nil_membership(nil_sphere_bounds(tau, R), sp, R, rho, z)
        assert np.array_equal(hit, ball_distance(sp, rho, z, radius=R))
        assert sum(passed) < 0.01 * rho.size

    @pytest.mark.parametrize("tau,R", [(1e-300, 1.0), (1e-150, 1e5), (1.0, 1e50),
                                       (1e150, 1e-150), (1e5, 1e-5), (1e-5, 1e150)])
    def test_extreme_spaces_decide_no_sample_wrongly(self, tau, R):
        sp = SpaceParams(0.0, tau)
        disk_r, height = bounding_cylinder(BallSpec(sp, ORIGIN, R))
        rho, z = _sample_cylinder(3, 0, np.empty((2, 20_000)), disk_r, height, False)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            hit = _nil_membership(nil_sphere_bounds(tau, R), sp, R, rho, z)
            assert np.array_equal(hit, ball_distance(sp, rho, z, radius=R))

    def test_bounds_that_decide_nothing_pass_every_sample_on(self, monkeypatch):
        sp, R = SpaceParams(0.0, 1.0), 2.0
        rho, z = _sample_cylinder(5, 0, np.empty((2, 5000)), R, nil_max_height(1.0, R), False)
        passed = []

        def counting(sp, rho, z, radius=None):
            passed.append(rho.size)
            return ball_distance(sp, rho, z, radius=radius)

        monkeypatch.setattr(balls, "ball_distance", counting)
        hit = _nil_membership((np.zeros(16), np.full(16, np.inf)), sp, R, rho, z)
        assert passed == [rho.size]
        assert np.array_equal(hit, ball_distance(sp, rho, z, radius=R))

    def test_contains_is_vectorized(self):
        out = nil_distance_reduced(1.0, np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.5, 0.0]),
                                   radius=2.0)
        assert out.tolist() == [True, True, False]
        grid = nil_distance_reduced(1.0, np.array([[0.5], [1.5]]), np.array([0.1, 3.0]),
                                    radius=2.0)
        assert grid.shape == (2, 2)
        assert grid.tolist() == [[True, False], [True, False]]


class TestMcVolume:
    def test_euclidean_ball_volume(self):
        ball = BallSpec(SpaceParams(0.0, 0.0), ORIGIN, 1.0)
        est = mc_volume(ball, 400_000, seed=1)
        exact = 4.0 * math.pi / 3.0
        assert abs(est.value - exact) < 4.0 * est.std_error
        assert est.samples == 400_000
        assert est.bounding_volume > exact

    def test_product_ball_volume(self):
        # H^2(-1) x R ball of radius 2; exact value by 1-d quadrature of
        # the slice areas: V = int_{-R}^{R} 2 pi (cosh(sqrt(R^2-z^2)) - 1) dz
        R = 2.0
        z = np.linspace(-R, R, 20001)
        slices = 2.0 * math.pi * (np.cosh(np.sqrt(R * R - z * z)) - 1.0)
        exact = float(np.trapezoid(slices, z))
        ball = BallSpec(SpaceParams(-1.0, 0.0), ORIGIN, R)
        est = mc_volume(ball, 600_000, seed=5)
        assert abs(est.value - exact) < 4.0 * est.std_error

    def test_nil_volume_between_comparison_cylinders(self):
        # for large radii the ball volume is of the order tau R^4 and below
        # the volume of the bounding cylinder
        tau, R = 1.0, 6.0
        ball = BallSpec(SpaceParams(0.0, tau), ORIGIN, R)
        est = mc_volume(ball, 400_000, seed=2)
        assert est.value < est.bounding_volume
        assert est.value > 0.05 * comparison_cylinder_volume(tau, R)
        assert est.value < comparison_cylinder_volume(tau, R)

    @pytest.mark.parametrize("tau,R,seed", [
        (1.0, 0.8, 1), (1.0, 2.0, 2), (1.0, 4.0, 3), (0.5, 7.0, 4), (2.0, 3.0, 5), (3.0, 0.4, 6),
    ])
    def test_nil_volume_matches_the_exact_volume(self, tau, R, seed):
        est = mc_volume(BallSpec(SpaceParams(0.0, tau), ORIGIN, R), 300_000, seed)
        assert abs(est.value - exact_nil_volume(tau, R)) < 4.0 * est.std_error

    def test_exact_nil_volume(self):
        # small balls are Euclidean; large ones approach the sharpness
        # constant V / (2 pi tau R^4) = 0.26994 at tau R = 10 and 0.26296 at 100
        assert exact_nil_volume(1e-4, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-7)
        for tau, R, ratio in ((1.0, 10.0, 0.26994), (2.0, 50.0, 0.26296)):
            v = exact_nil_volume(tau, R) / comparison_cylinder_volume(tau, R)
            assert v == pytest.approx(ratio, abs=6e-6)
        assert exact_nil_volume(0.5, 3.0) == pytest.approx(exact_nil_volume(1.0, 1.5) * 8.0,
                                                           rel=1e-13)

    @pytest.mark.parametrize("space,R", [((0.0, 1.0), 1e100), ((0.0, 0.0), 1e150),
                                         ((-1.0, 0.0), 705.0)])
    def test_bounding_volume_that_overflows_raises(self, space, R):
        with pytest.raises(FloatingPointError):
            mc_volume(BallSpec(SpaceParams(*space), ORIGIN, R), 1000, 0)

    def test_deterministic_and_chunk_layout_independent(self):
        ball = BallSpec(SpaceParams(0.0, 1.0), ORIGIN, 2.0)
        a = mc_volume(ball, 150_000, seed=9)
        b = mc_volume(ball, 150_000, seed=9)
        assert a == b
        c = mc_volume(ball, 150_000, seed=10)
        assert c.value != a.value

    def test_sample_floor(self):
        ball = BallSpec(SpaceParams(0.0, 0.0), ORIGIN, 1.0)
        with pytest.raises(ValueError):
            mc_volume(ball, 10, seed=0)

    def test_sl2_rejected(self):
        ball = BallSpec(SpaceParams(-1.0, 1.0), ORIGIN, 1.0)
        with pytest.raises(UnsupportedSpaceError):
            mc_volume(ball, 10_000, seed=0)


def exact_nil_volume(tau, R, nodes=96):
    """Nil3 ball volume V = 2 pi int z(u) (-d rho^2/du) du over the sphere
    rho(u)^2 = (sin u / u)^2 (R^2 - (u/tau)^2),
    z(u) = u/tau + tau (R^2/u^2 - 1/tau^2) (2u - sin 2u) / 4, u in (0, min(pi, tau R)),
    by Gauss-Legendre quadrature of the solid of revolution."""
    u_max = min(math.pi, tau * R)
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * u_max * (x + 1.0)
    sinc = np.sin(u) / u
    rho2_du = 2.0 * sinc * (np.cos(u) - sinc) / u * (R * R - (u / tau) ** 2) \
        - 2.0 * sinc * sinc * u / (tau * tau)
    z = u / tau + tau * (R * R / (u * u) - 1.0 / (tau * tau)) * (2.0 * u - np.sin(2.0 * u)) / 4.0
    return math.pi * u_max * float(np.sum(w * z * -rho2_du))


def reference_mc_volume(ball, n_samples, seed):
    """Reference chunk loop: every sample drawn as (x, y, z) from the same streams."""
    sp, R = ball.sp, ball.radius
    disk_r, height = bounding_cylinder(ball)
    lebesgue = math.pi * disk_r**2 * 2.0 * height
    total = total_sq = 0.0
    n_done = chunk = 0
    while n_done < n_samples:
        n = min(MC_CHUNK, n_samples - n_done)
        u = _chunk_rng(seed, chunk).random((3, n))
        rho = disk_r * np.sqrt(u[0])
        ang = 2.0 * math.pi * u[1]
        x, y, z = rho * np.cos(ang), rho * np.sin(ang), height * (2.0 * u[2] - 1.0)
        if sp.is_euclidean:
            vals = (x * x + y * y + z * z < R * R).astype(float)
        elif sp.is_nil:
            vals = nil_distance_reduced(sp.tau, np.hypot(x, y), z, radius=R).astype(float)
        else:
            sk = math.sqrt(-sp.kappa)
            dh = (2.0 / sk) * np.arctanh(np.minimum(0.5 * sk * np.hypot(x, y), 1.0 - 1e-16))
            lam = 1.0 / (1.0 + 0.25 * sp.kappa * (x * x + y * y))
            vals = (dh * dh + z * z < R * R) * lam**2
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        n_done += n
        chunk += 1
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return lebesgue * mean, lebesgue * math.sqrt(var / n_samples)


class TestAngleFreeSampling:
    """Balls are rotation-invariant, so only the radius and height draws of
    each sample are read; the results equal the (x, y, z) chunk loop's."""

    @pytest.mark.parametrize("n_samples,seed,R", [
        (1000, 0, 0.5), (5000, 7, 1.0), (50_001, 123, 2.0), (65_536, 3, 3.7),
        (200_000, 42, 1.3), (65_538, 5, 1.7), (131_075, 9, 2.4),
    ])
    @pytest.mark.parametrize("kappa,tau", [(0.0, 0.0), (0.0, 1.0), (0.0, 0.5), (-1.0, 0.0)])
    def test_matches_the_xyz_chunk_loop(self, kappa, tau, n_samples, seed, R):
        ball = BallSpec(SpaceParams(kappa, tau), ORIGIN, R)
        est = mc_volume(ball, n_samples, seed)
        value, std_error = reference_mc_volume(ball, n_samples, seed)
        assert type(est.value) is float and type(est.std_error) is float
        if kappa == 0.0:
            assert (est.value, est.std_error) == (value, std_error)
        else:
            assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


class TestGoldenVolumes:
    """(value, std_error) as computed by the (3, n) chunk draw, pinned bit for
    bit; the last chunks hold n % 4 = 1, 2 and 3 samples."""

    @pytest.mark.parametrize("space,R,n_samples,seed,value,std_error", [
        ((0.0, 0.0), 1.3, 65_537, 3, 9.206282605298279, 0.025414260479496315),
        ((0.0, 0.0), 2.9, 131_074, 4, 102.35603624893646, 0.19933864806761376),
        ((-1.0, 0.0), 2.0, 131_074, 5, 43.510047568405206, 0.09858785267307446),
        ((-1.0, 0.0), 0.7, 65_539, 6, 1.4825401369004605, 0.004030420897755003),
        ((0.0, 1.0), 1.2, 65_539, 7, 7.9022593600706825, 0.018876032317872788),
        ((0.0, 2.0), 0.6, 65_537, 8, 0.992016374480191, 0.002351000797933196),
        ((0.0, 1.0), 2.5, 131_074, 11, 89.67286319949763, 0.11489224100993402),
        ((0.0, 0.5), 5.0, 65_539, 12, 719.6687528514858, 1.29223092135353),
        ((0.0, 1.0), 4.0, 65_537, 13, 491.8403432634901, 0.8624655504912043),
        ((0.0, 2.0), 3.0, 131_074, 14, 286.96210481286823, 0.36014553592779097),
        ((0.0, 0.5), 8.0, 65_539, 15, 3940.229202106304, 6.880429816143697),
    ])
    def test_pinned(self, space, R, n_samples, seed, value, std_error):
        # Nil3 rows: 2 tau R below pi, then above, where the height formula
        # switches, then tau R above pi, where the sphere meets the axis at u = pi
        est = mc_volume(BallSpec(SpaceParams(*space), ORIGIN, R), n_samples, seed)
        assert (est.value, est.std_error) == (value, std_error)


GOLDEN = ((0.0, 1.0), 1.2, 65_539, 7, 7.9022593600706825, 0.018876032317872788)  # a TestGoldenVolumes row


def golden_volume():
    space, R, n_samples, seed, value, std_error = GOLDEN
    est = mc_volume(BallSpec(SpaceParams(*space), ORIGIN, R), n_samples, seed)
    return (est.value, est.std_error), (value, std_error)


class FillFault(Exception):
    """Raised by a stand-in radius row fill."""


def faulty_fill(out):
    raise FillFault("raised where the radius row is drawn")


class TestRowHelper:
    """With two or more CPUs the radius row of each chunk is offered to a
    helper thread, and whichever of it and the caller claims the row first
    draws it; the tests pretend to have two CPUs, except where they say."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(balls, "_cpu_count", lambda: 2)

    @staticmethod
    def radius_threads(monkeypatch, helper_first, fill=None):
        """The threads that draw radius rows, in order.  With helper_first
        the caller draws a height row only once a thread has taken the
        radius row, which the caller then cannot claim; fill(out) replaces
        the radius row's draw."""
        real_rng, real_height_row = balls._chunk_rng, balls._height_row
        threads, taken = [], threading.Semaphore(0)

        def chunk_rng(seed, chunk):
            threads.append(threading.current_thread())
            taken.release()
            return real_rng(seed, chunk) if fill is None else SimpleNamespace(random=fill)

        def height_row(seed, chunk, z):
            assert taken.acquire(timeout=10.0), "no thread took the radius row"
            real_height_row(seed, chunk, z)

        monkeypatch.setattr(balls, "_chunk_rng", chunk_rng)
        if helper_first:
            monkeypatch.setattr(balls, "_height_row", height_row)
        return threads

    @pytest.mark.parametrize("mode", ["helper", "helper asleep", "one cpu"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 65_535, 65_536])
    def test_rows_are_rows_0_and_2_of_the_3n_draw(self, monkeypatch, n, mode):
        seed, chunk, disk_r, height = 17, 3, 1.0, 0.5  # scalings that keep the draws exact
        u = _chunk_rng(seed, chunk).random((3, n))
        if mode == "helper asleep":  # nothing reads the jobs, so the caller claims them
            monkeypatch.setattr(balls, "_helper_jobs", queue.SimpleQueue)
        elif mode == "one cpu":  # no job is offered
            monkeypatch.setattr(balls, "_helper_jobs", None)
        threads = self.radius_threads(monkeypatch, helper_first=mode == "helper")
        out = np.full((2, n), np.nan)
        caller = threading.Thread(target=_sample_cylinder,
                                  args=(seed, chunk, out, disk_r, height, mode != "one cpu"),
                                  daemon=True)
        caller.start()
        caller.join(timeout=10.0)
        assert not caller.is_alive(), "the chunk waits for a helper that never runs"
        assert np.array_equal(out[0], np.sqrt(u[0]))
        assert np.array_equal(out[1], (2.0 * u[2] - 1.0) * height)
        drawer, = threads
        assert (drawer is caller) is (mode != "helper")

    def test_one_cpu_draws_on_the_caller(self, monkeypatch):
        asked = []
        monkeypatch.setattr(balls, "_cpu_count", lambda: asked.append(1) or 1)
        threads = self.radius_threads(monkeypatch, helper_first=False)
        got, pinned = golden_volume()  # two chunks
        assert got == pinned
        assert threads == [threading.current_thread()] * 2
        assert len(asked) == 1  # once per call, not per chunk

    def test_helper_keeps_no_array(self, monkeypatch):
        self.radius_threads(monkeypatch, helper_first=True)
        out = np.empty((2, 1000))
        _sample_cylinder(1, 0, out, 1.0, 1.0, True)
        gone = weakref.ref(out)
        del out
        deadline = time.monotonic() + 10.0
        while gone() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gone() is None

    def test_no_thread_leaks(self):
        before = threading.active_count()
        ball = BallSpec(SpaceParams(0.0, 0.0), ORIGIN, 1.0)
        for i in range(50):
            mc_volume(ball, 1000 + 3000 * i, seed=i)
        assert threading.active_count() <= before + 1

    @pytest.mark.parametrize("fill,error", [
        (lambda out: np.random.default_rng(0).random(out=out.astype(np.float32)), TypeError),
        (faulty_fill, FillFault),
    ], ids=["float32 row", "own class"])
    def test_helper_error_reaches_the_caller(self, monkeypatch, fill, error):
        with monkeypatch.context() as m:
            threads = self.radius_threads(m, helper_first=True, fill=fill)
            ball = BallSpec(SpaceParams(0.0, 1.0), ORIGIN, 1.2)
            with pytest.raises(error) as info:
                mc_volume(ball, 70_000, seed=7)
        assert info.type is error
        assert len(threads) == 1 and threads[0] is not threading.current_thread()
        got, pinned = golden_volume()
        assert got == pinned

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        got, pinned = golden_volume()  # the helper runs in this process now
        assert got == pinned
        threads = self.radius_threads(monkeypatch, helper_first=True)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                got = golden_volume()[0]
                if threading.current_thread() not in threads:
                    os.write(w, repr(got).encode())
            finally:
                os._exit(0)
        os.close(w)
        deadline = time.monotonic() + 30.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(r)
                pytest.fail("mc_volume in the forked child did not finish within 30 s")
            time.sleep(0.01)
        with os.fdopen(r, "rb") as f:
            assert f.read() == repr(pinned).encode()


class TestSl2Bracket:
    def test_bracket_orders(self):
        for R in (0.5, 1.0, 2.0, 4.0):
            lo, hi = sl2_volume_bracket(BallSpec(SpaceParams(-1.0, 1.0), ORIGIN, R))
            assert 0.0 < lo < hi

    def test_lower_bound_contains_product_core(self):
        # the lower-bound region {d_base + |z| <= R} has the closed form
        # 4 pi (sinh R - R) for kappa = -1; spot-check the formula
        R = 2.0
        lo, _ = sl2_volume_bracket(BallSpec(SpaceParams(-1.0, 0.5), ORIGIN, R))
        assert math.isclose(lo, 4.0 * math.pi * (math.sinh(R) - R), rel_tol=1e-12)

    def test_non_sl2_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            sl2_volume_bracket(BallSpec(SpaceParams(0.0, 1.0), ORIGIN, 1.0))


class TestGrowthFit:
    def test_exact_power_data(self):
        radii = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
        fit = volume_growth_fit(radii, 2.5 * radii**4)
        assert math.isclose(fit.power_exponent, 4.0, abs_tol=1e-12)
        assert math.isclose(fit.power_coeff, 2.5, rel_tol=1e-12)
        assert fit.preferred == "power"
        assert fit.power_residual < 1e-12

    def test_exact_exponential_data(self):
        radii = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        fit = volume_growth_fit(radii, 0.7 * np.exp(1.3 * radii))
        assert math.isclose(fit.exp_rate, 1.3, abs_tol=1e-12)
        assert math.isclose(fit.exp_coeff, 0.7, rel_tol=1e-10)
        assert fit.preferred == "exponential"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            volume_growth_fit([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            volume_growth_fit([1, 2, 3, 4, 5, 4.5], np.ones(6))
        with pytest.raises(ValueError):
            volume_growth_fit([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, -1])
