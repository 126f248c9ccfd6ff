"""The benchmark's references agree with the library on fixed points.

Agreement here means the two independent computations check each other;
the benchmark itself only ever compares the library against the oracles.
"""

import math

import numpy as np
import pytest

import oracles as O
from ektau import balls, geodesics, graphs, surfaces
from ektau.core import PointE, SpaceParams

NIL_POINTS = [
    # (tau, x, y, z): generic, near the axis, near the horizontal plane
    (1.0, 1.0, 2.0, 3.0),
    (0.4, -2.5, 0.3, -7.0),
    (1.7, 0.2, -0.9, 12.0),
    (1.0, 1e-3, 0.0, 4.0),
    (2.0, 0.0, 5e-3, -6.0),
    (0.5, 2.0, 1.0, 1e-4),
    (1.3, -1.5, 0.0, -1e-2),
]


@pytest.mark.parametrize("tau,x,y,z", NIL_POINTS)
def test_nil_distance_matches_shooting_solver(tau, x, y, z):
    lib = geodesics.distance(SpaceParams(0.0, tau), PointE(0.0, 0.0, 0.0), PointE(x, y, z))
    assert O.nil_distance_origin(tau, x, y, z) == pytest.approx(lib, rel=1e-9)


def test_nil_distance_is_left_invariant():
    tau, p, q = 0.8, (1.0, -2.0, 0.5), (-0.3, 0.7, 2.0)
    g = (0.4, 1.1, -3.0)
    gp = (g[0] + p[0], g[1] + p[1], g[2] + p[2] + tau * (g[0] * p[1] - g[1] * p[0]))
    gq = (g[0] + q[0], g[1] + q[1], g[2] + q[2] + tau * (g[0] * q[1] - g[1] * q[0]))
    assert O.nil_distance(tau, gp, gq) == pytest.approx(O.nil_distance(tau, p, q), rel=1e-12)


@pytest.mark.parametrize("tau,R", [(1.0, 4.0), (0.5, 1.0), (2.0, 0.6)])
def test_nil_sphere_axis_height(tau, R):
    # the top of the sphere on the axis: R below tau R = pi, else the u = pi limit
    axis = R if tau * R <= math.pi else math.pi / (2 * tau) + tau * R * R / (2 * math.pi)
    assert O.nil_ball_zmax(tau, R, 1e-9 * R) == pytest.approx(axis, rel=1e-6)


def test_nil_sphere_points_are_at_distance_R():
    tau, R = 1.0, 4.0
    for rho in (0.1, 1.0, 2.5, 3.9):
        z = O.nil_ball_zmax(tau, R, rho)
        assert O.nil_distance_origin(tau, rho, 0.0, z) == pytest.approx(R, rel=1e-10)


@pytest.mark.parametrize("tau,R", [(1.0, 4.0), (0.5, 1.0), (2.0, 2.0)])
def test_nil_volume_matches_profile_within_its_binning(tau, R):
    # the tabulated profile stores each bin's maximum height, so it
    # overestimates the volume slightly; about 0.14 % at these sizes
    prof = balls.nil_ball_profile(tau, R)
    rho = np.linspace(0.0, R, 200_001)
    vol = float(np.trapezoid(4 * np.pi * rho * np.interp(rho, prof.rho_grid, prof.zmax), rho))
    ref = O.nil_ball_volume(tau, R)
    assert 0.0 < (vol - ref) / ref < 3e-3


@pytest.mark.parametrize("kappa,tau,R", [(0.0, 0.0, 2.0), (-1.0, 0.0, 3.0), (0.0, 1.0, 2.5)])
def test_ball_volume_matches_monte_carlo(kappa, tau, R):
    ball = balls.BallSpec(SpaceParams(kappa, tau), PointE(0.0, 0.0, 0.0), R)
    est = balls.mc_volume(ball, 400_000, 7)
    assert abs(est.value - O.ball_volume(kappa, tau, R)) <= 5 * est.std_error


@pytest.mark.parametrize("R", [2.0, 4.5, 8.0])
def test_umbrella_and_fmp_closed_forms(R):
    nil = surfaces.umbrella(SpaceParams(0.0, 1.0)).closed_forms["extrinsic_area"]
    hyp = surfaces.umbrella(SpaceParams(-1.0, 1.0)).closed_forms["extrinsic_area"]
    fmp = surfaces.fmp_surface(1.0, 0.0).closed_forms["intrinsic_area_lower_bound"]
    assert O.umbrella_area(0.0, 1.0, R) == pytest.approx(nil(R), rel=1e-12)
    assert O.umbrella_area(-1.0, 1.0, R) == pytest.approx(hyp(R), rel=1e-8)
    assert O.fmp_intrinsic_lower_bound(1.0, R) == pytest.approx(fmp(R), rel=1e-12)


def test_plane_area_and_catenoid_height():
    plane = surfaces.affine_plane(1.0, 1.0, 0.5).graph
    assert O.plane_cylinder_area(1.0, 1.0, 0.5, 7.5) == pytest.approx(
        graphs.graph_area(plane, 7.5).value, rel=1e-9)
    for r in (1.5, 10.0, 200.0):
        assert O.catenoid_height(1.0, 1.0, r) == pytest.approx(
            surfaces.catenoid_height(1.0, 1.0, r), rel=1e-10)


@pytest.mark.parametrize("family,a", [("horizontal", None), ("elliptic", 0.8),
                                      ("parabolic", None), ("hyperbolic", 3.0)])
def test_sl2_closed_forms(family, a):
    sp = SpaceParams(-1.0, 1.0)
    p = geodesics.sl2_geodesic_closed(sp, family, a, 2.3)
    assert O.sl2_geodesic(-1.0, 1.0, family, a, 2.3) == pytest.approx((p.x, p.y, p.z), rel=1e-12)


@pytest.mark.parametrize("phi", [0.3, 1.1, 2.3])
def test_nil_closed_form(phi):
    p = geodesics.nil_geodesic_closed(1.3, phi, 0.4, 3.1)
    assert O.nil_geodesic(1.3, phi, 0.4, 3.1) == pytest.approx((p.x, p.y, p.z), rel=1e-12)


def test_lifted_segment_and_base_distance():
    sp = SpaceParams(-1.0, 0.7)
    p, q = (0.3, 0.2, 0.1), (0.5, -1.4, 1.0)
    lib = geodesics.distance_upper_bound(sp, PointE(*p), PointE(*q))
    assert O.lifted_segment_length(-1.0, 0.7, p, q) == pytest.approx(lib, rel=1e-12)
    assert O.hyperbolic_distance(-1.0, p, q) == pytest.approx(
        geodesics.hyperbolic_distance(-1.0, PointE(*p), PointE(*q)), rel=1e-12)
