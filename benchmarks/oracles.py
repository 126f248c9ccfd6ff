"""Reference values that do not depend on the code under test.

Nothing here imports ektau.  Each reference is either a closed form or a
one-dimensional reduction evaluated with scipy's adaptive routines, so an
error in the library's solvers, tables or quadrature rules cannot cancel
against the same error in its reference.

Conventions follow the library's model of E(kappa, tau): the frame is
E1 = mu dx - tau y dz, E2 = mu dy + tau x dz, E3 = dz with
mu = 1 + kappa (x^2 + y^2) / 4, so the metric is
lambda^2 (dx^2 + dy^2) + (dz + tau lambda (y dx - x dy))^2, lambda = 1/mu.
"""

from __future__ import annotations

import math

from scipy import integrate, optimize, special

_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=400)


def _quad(f, a, b):
    return integrate.quad(f, a, b, **_QUAD)[0]


# ---------------------------------------------------------------------------
# Nil3: exact one-dimensional distance reduction
# ---------------------------------------------------------------------------

def _two_u_minus_sin(u):
    """2u - sin(2u) without cancellation for small u."""
    x = 2.0 * u
    if x > 0.1:
        return x - math.sin(x)
    x2 = x * x
    # x^3/6 - x^5/120 + x^7/5040 - x^9/362880 + x^11/39916800
    return x * x2 * (1.0 / 6 - x2 * (1.0 / 120 - x2 * (1.0 / 5040 - x2 * (
        1.0 / 362880 - x2 / 39916800))))


def _nil_height(tau, rho, u):
    """Height reached at horizontal radius rho by the geodesic with parameter u."""
    return u / tau + tau * rho * rho * _two_u_minus_sin(u) / (4.0 * math.sin(u) ** 2)


def nil_distance_origin(tau: float, x: float, y: float, z: float) -> float:
    """Nil3(tau) distance from the origin to (x, y, z).

    The minimizing geodesic has u in (0, pi], the unique root of
    z = u/tau + tau rho^2 (2u - sin 2u) / (4 sin^2 u); the distance is
    u sqrt(1/tau^2 + rho^2 / sin^2 u).  Points on the axis are the limit
    u = pi (Marenich, Geom. Dedicata 66, 1997).
    """
    rho = math.hypot(x, y)
    z = abs(z)
    if z == 0.0:
        return rho
    if rho == 0.0:
        if tau * z <= math.pi:
            return z
        return math.sqrt(math.pi * (2.0 * tau * z - math.pi)) / tau
    # bracket: F(u) -> 0 as u -> 0 and F -> inf as u -> pi
    lo = min(1e-8, 0.5 * tau * z)
    v = min(0.5, 0.5 * rho * math.sqrt(tau * math.pi / (2.0 * z)))
    while _nil_height(tau, rho, math.pi - v) <= z:
        v *= 0.5
    u = optimize.brentq(lambda s: _nil_height(tau, rho, s) - z, lo, math.pi - v,
                        xtol=1e-15, rtol=1e-15, maxiter=500)
    return u * math.sqrt(1.0 / tau**2 + (rho / math.sin(u)) ** 2)


def nil_translate(tau, p, q):
    """Coordinates of p^-1 * q for the Nil3 group law
    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + tau (x y' - y x'))."""
    return (q[0] - p[0], q[1] - p[1],
            q[2] - p[2] - tau * (p[0] * q[1] - p[1] * q[0]))


def nil_distance(tau, p, q) -> float:
    """Nil3(tau) distance between coordinate triples p and q."""
    return nil_distance_origin(tau, *nil_translate(tau, p, q))


def _nil_sphere(tau, R, u):
    """(rho, z) of the point of the sphere of radius R with parameter u."""
    rho = (math.sin(u) / u) * math.sqrt(max(R * R - (u / tau) ** 2, 0.0))
    z = u / tau + tau * (R * R / (u * u) - 1.0 / tau**2) * _two_u_minus_sin(u) / 4.0
    return rho, z


def nil_ball_zmax(tau: float, R: float, rho: float) -> float:
    """Height of the Nil3 sphere of radius R above horizontal radius rho < R.

    On the sphere, rho(u) = (sin u / u) sqrt(R^2 - u^2/tau^2) decreases
    strictly on (0, min(pi, tau R)), so rho determines u by root finding.
    """
    u_max = min(math.pi, tau * R)
    u = optimize.brentq(lambda s: _nil_sphere(tau, R, s)[0] - rho,
                        1e-12, u_max, xtol=1e-15, rtol=1e-15, maxiter=500)
    return _nil_sphere(tau, R, u)[1]


def nil_ball_volume(tau: float, R: float) -> float:
    """Volume of the Nil3(tau) ball of radius R: integral of 2 pi rho 2 z_max."""
    return 4.0 * math.pi * _quad(lambda r: r * nil_ball_zmax(tau, R, r), 0.0, R)


# ---------------------------------------------------------------------------
# R^3 and H^2 x R
# ---------------------------------------------------------------------------

def euclidean_ball_volume(R: float) -> float:
    return 4.0 / 3.0 * math.pi * R**3


def hyperbolic_disk_area(kappa: float, r: float) -> float:
    """Area of the disk of intrinsic radius r in M^2(kappa), kappa < 0."""
    return 4.0 * math.pi / -kappa * math.sinh(0.5 * math.sqrt(-kappa) * r) ** 2


def product_ball_volume(kappa: float, R: float) -> float:
    """Volume of the ball of radius R in M^2(kappa) x R: slices of base disks."""
    return 2.0 * _quad(
        lambda z: hyperbolic_disk_area(kappa, math.sqrt(max(R * R - z * z, 0.0))),
        0.0, R)


def ball_volume(kappa: float, tau: float, R: float) -> float:
    if kappa == 0.0 and tau == 0.0:
        return euclidean_ball_volume(R)
    if kappa == 0.0:
        return nil_ball_volume(tau, R)
    if tau == 0.0:
        return product_ball_volume(kappa, R)
    raise ValueError("no reference ball volume for kappa < 0, tau > 0")


# ---------------------------------------------------------------------------
# kappa < 0, tau > 0: the lifted segment bounding the distance
# ---------------------------------------------------------------------------

def hyperbolic_distance(kappa: float, p, q) -> float:
    """Distance between base points in the conformal disk model of M^2(kappa)."""
    a = math.sqrt(-kappa)
    d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    mp = 1.0 - 0.25 * -kappa * (p[0] ** 2 + p[1] ** 2)
    mq = 1.0 - 0.25 * -kappa * (q[0] ** 2 + q[1] ** 2)
    return math.acosh(1.0 + 0.5 * -kappa * d2 / (mp * mq)) / a


def lifted_segment_length(kappa: float, tau: float, p, q) -> float:
    """Length of the model straight segment from p to q at constant height,
    plus the fiber segment that closes the height gap."""
    dx, dy = q[0] - p[0], q[1] - p[1]

    def speed(s):
        x, y = p[0] + s * dx, p[1] + s * dy
        lam = 1.0 / (1.0 + 0.25 * kappa * (x * x + y * y))
        return lam * math.sqrt(dx * dx + dy * dy + (tau * (y * dx - x * dy)) ** 2)

    return _quad(speed, 0.0, 1.0) + abs(q[2] - p[2])


# ---------------------------------------------------------------------------
# Closed-form geodesics through the origin
# ---------------------------------------------------------------------------

def nil_geodesic(tau, phi, theta, t):
    """Nil3 geodesic with initial frame velocity
    (-sin phi sin theta, sin phi cos theta, cos phi), phi != pi/2."""
    c = math.cos(phi)
    k = math.tan(phi) / (2.0 * tau)
    w = 2.0 * tau * c
    return (k * (math.cos(w * t + theta) - math.cos(theta)),
            k * (math.sin(w * t + theta) - math.sin(theta)),
            (1.0 + c * c) / (2.0 * c) * t - k * math.tan(phi) / 2.0 * math.sin(w * t))


def sl2_geodesic(kappa, tau, family, a, t):
    """The four closed-form geodesic families through the origin, kappa < 0."""
    sk = math.sqrt(-kappa)
    if family == "horizontal":
        return 0.0, 2.0 / sk * math.tanh(0.5 * sk * t), 0.0
    if family == "elliptic":
        ka2 = kappa * a * a
        S = math.sqrt((4.0 - ka2) ** 2 + 64.0 * (a * tau) ** 2)
        m = 2.0 * (4.0 + ka2) * tau / S
        cm, sm = math.cos(m * t), math.sin(m * t)
        den = 16.0 + ka2 * ka2 + 8.0 * ka2 * cm
        return (4.0 * a * (ka2 - 4.0) * (1.0 - cm) / den,
                4.0 * a * (ka2 + 4.0) * sm / den,
                (4.0 + a * a * (8.0 * tau * tau - kappa)) / S * t
                + 4.0 * tau / kappa * math.atan(-ka2 * sm / (4.0 + ka2 * cm)))
    if family == "parabolic":
        q = math.sqrt(4.0 * tau * tau - kappa)
        den = 4.0 * tau * tau - kappa * (1.0 + (tau * t) ** 2)
        return (-2.0 * sk * (tau * t) ** 2 / den,
                2.0 * tau * q * t / den,
                q / sk * t + 4.0 * tau / kappa * math.atan(tau * sk * t / q))
    if family == "hyperbolic":
        ka2 = kappa * a * a
        root = math.sqrt(-ka2 - 4.0)
        m = tau * root / (2.0 * math.sqrt((a * tau) ** 2 + 1.0))
        den = 4.0 + ka2 * math.cosh(m * t) ** 2
        return (4.0 * a * math.sinh(m * t) ** 2 / den,
                -a * root * math.sinh(2.0 * m * t) / den,
                (4.0 * tau * tau - kappa) / (-kappa * math.sqrt(1.0 + (a * tau) ** 2)) * t
                + 4.0 * tau / kappa * math.atan(2.0 * math.tanh(m * t) / root))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Areas of the growth-table surfaces
# ---------------------------------------------------------------------------

def umbrella_area(kappa: float, tau: float, R: float) -> float:
    """Area of u = 0 over the base disk of intrinsic radius R; its density is
    lambda^2 sqrt(1 + tau^2 r^2)."""
    if kappa == 0.0:
        t2 = tau * tau
        return 2.0 * math.pi / (3.0 * t2) * ((1.0 + t2 * R * R) ** 1.5 - 1.0)
    sk = math.sqrt(-kappa)
    re = 2.0 / sk * math.tanh(0.5 * sk * R)
    return _quad(lambda r: 2.0 * math.pi * r * math.sqrt(1.0 + (tau * r) ** 2)
                 / (1.0 + 0.25 * kappa * r * r) ** 2, 0.0, re)


def plane_cylinder_area(tau: float, a: float, b: float, R: float) -> float:
    """Area of the Nil3 graph u = a x + b y over the disk of radius R.

    The density is sqrt(1 + (a + tau y)^2 + (b - tau x)^2); the affine map
    to w = (b - tau x, a + tau y) turns the disk into one of radius tau R
    centred at distance c = |(a, b)|, and the angular integral of
    sqrt(A + B cos phi) is 4 sqrt(A + B) E(2B / (A + B)).
    """
    c = math.hypot(a, b)

    def ring(r):
        A = 1.0 + c * c + r * r
        B = 2.0 * r * c
        return r * 4.0 * math.sqrt(A + B) * special.ellipe(2.0 * B / (A + B))

    return _quad(ring, 0.0, tau * R) / tau**2


def fmp_intrinsic_lower_bound(tau: float, R: float) -> float:
    """Lower bound on the area of the intrinsic ball of the graph u = tau x y."""
    q = math.sqrt(1.0 + 4.0 * tau**2 * R * R)
    return (1.0 + (2.0 * tau**2 * R * R - 1.0) * q
            + 3.0 * tau * R * math.asinh(2.0 * tau * R)) / (3.0 * tau**2)


def catenoid_height(tau: float, E: float, r: float) -> float:
    """Height of the Nil3 half-catenoid with neck E over radius r >= E:
    the integral of E sqrt(1 + tau^2 s^2) / sqrt(s^2 - E^2) from E to r."""
    wmax = math.acosh(max(r / E, 1.0))
    return _quad(lambda w: E * math.sqrt(1.0 + (tau * E * math.cosh(w)) ** 2), 0.0, wmax)


def catenoid_extrinsic_area(tau: float, E: float, R: float) -> float:
    """Area of the half-catenoid inside the Nil3 ball B_R(0).

    The surface is rotational with density r^2 sqrt(1 + tau^2 r^2) /
    sqrt(r^2 - E^2) per unit angle; its points at distance < R from the
    origin are the radii r in [E, r*) with d(r*, h(r*)) = R.
    """
    if E >= R:
        return 0.0
    r_star = optimize.brentq(
        lambda r: nil_distance_origin(tau, r, 0.0, catenoid_height(tau, E, r)) - R,
        E, R + E, xtol=1e-14, rtol=1e-15)
    w_star = math.acosh(r_star / E)
    return 2.0 * math.pi * _quad(
        lambda w: (E * math.cosh(w)) ** 2 * math.sqrt(1.0 + (tau * E * math.cosh(w)) ** 2),
        0.0, w_star)
