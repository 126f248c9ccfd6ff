"""Geodesics of E(kappa, tau): ODE form, closed forms, heights and distance.

Closed-form families:

* Nil3 (kappa = 0, tau > 0): the (phi, theta) family through the origin,
  phi in [0, pi] the angle from the vertical, theta the horizontal heading.
* kappa < 0, tau > 0: four families according to the projected curve
  (geodesic / circle / horocycle / hypercycle of the hyperbolic base).
* Products (tau = 0): products of base geodesics and the vertical line.

The vertical component a3 of the unit tangent is a first integral; closed
forms are cross-validated against the ODE system in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ._quadrature import leggauss
from .core import FrameVector, PointE, SpaceParams, coord_to_frame
from .errors import ConvergenceError, ModelDomainError, UnsupportedSpaceError

__all__ = [
    "GeodesicSpec",
    "GeodesicSample",
    "geodesic_ode_step",
    "integrate_geodesic",
    "nil_geodesic_closed",
    "nil_geodesic_velocity",
    "sl2_geodesic_closed",
    "sl2_geodesic_velocity",
    "sl2_families",
    "nil_max_height",
    "nil_max_height_inverse",
    "zeta_r",
    "zeta_r_prime",
    "zeta_critical_points",
    "sl2_max_height_bound",
    "ball_height",
    "base_disk_model_radius",
    "delta_alpha",
    "nil_group_translate",
    "hyperbolic_distance",
    "nil_distance_reduced",
    "distance",
    "distance_upper_bound",
    "measure_distance_equivalence",
]

sl2_families = ("horizontal", "elliptic", "parabolic", "hyperbolic")

_VERTICAL_EPS = 1e-14
_REDUCTION_EPS = 4.0 * np.finfo(float).eps  # relative step at which the reduction has converged
_REDUCTION_MAX_ITER = 100
_REDUCTION_TINY = 2.0**-60  # relative size below which a closed form is exact to rounding


@dataclass(frozen=True)
class GeodesicSpec:
    """Initial data of a geodesic: start point and unit frame velocity."""

    start: PointE
    direction: FrameVector

    def __post_init__(self):
        if abs(self.direction.norm() - 1.0) > 1e-10:
            raise ValueError("direction must be a unit frame vector")


@dataclass(frozen=True)
class GeodesicSample:
    """One sample of an integrated geodesic (arclength, point, unit tangent)."""

    t: float
    point: PointE
    velocity: FrameVector


# ---------------------------------------------------------------------------
# ODE form
# ---------------------------------------------------------------------------

def _ode_rhs(sp: SpaceParams, state: np.ndarray) -> np.ndarray:
    """Right-hand side for the 6-dim state (x, y, z, a1, a2, a3)."""
    x, y, z, a1, a2, a3 = state
    mu = 1.0 + 0.25 * sp.kappa * (x * x + y * y)
    if mu <= 0.0:
        raise ModelDomainError(f"geodesic left the model at (x={x}, y={y})")
    k2 = 0.5 * sp.kappa
    t = sp.tau
    return np.array(
        [
            a1 * mu,
            a2 * mu,
            a3 - t * y * a1 + t * x * a2,
            -k2 * x * a2 * a2 + k2 * y * a1 * a2 - 2.0 * t * a2 * a3,
            -k2 * y * a1 * a1 + k2 * x * a1 * a2 + 2.0 * t * a1 * a3,
            0.0,
        ]
    )


def geodesic_ode_step(sp: SpaceParams, state):
    """Derivative of a geodesic state ((point, frame velocity)).

    Returns (coordinate derivative of the point, FrameVector of
    (a1', a2', a3')); a3' is identically zero.
    """
    p, v = state
    rhs = _ode_rhs(sp, np.array([p.x, p.y, p.z, v.a1, v.a2, v.a3]))
    return rhs[:3], FrameVector(rhs[3], rhs[4], rhs[5])


def integrate_geodesic(
    sp: SpaceParams,
    spec: GeodesicSpec,
    t_end: float,
    tol: float = 1e-9,
    n_samples: int = 201,
) -> list[GeodesicSample]:
    """Integrate the geodesic ODE with an adaptive embedded Runge-Kutta pair.

    Samples are equispaced in arclength on [0, t_end]; unit-speed and
    a3 drift stay below roughly 10*tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p0, v0 = spec.start, spec.direction
    y0 = np.array([p0.x, p0.y, p0.z, v0.a1, v0.a2, v0.a3])

    def rhs(_t, y):
        return _ode_rhs(sp, y)

    events = []
    if sp.kappa < 0.0:
        def model_exit(_t, y):
            return 1.0 + 0.25 * sp.kappa * (y[0] ** 2 + y[1] ** 2) - 1e-12
        model_exit.terminal = True
        events.append(model_exit)

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=events or None,
    )
    if sol.status == -1:
        raise ConvergenceError(f"integrator failed: {sol.message}", best=sol.t[-1])
    if sol.status == 1:
        raise ModelDomainError(
            f"geodesic left the model disk at arclength t={sol.t_events[0][0]:.6g}"
        )
    ts = np.linspace(0.0, t_end, n_samples)
    out = []
    for t in ts:
        y = sol.sol(t)
        out.append(
            GeodesicSample(
                float(t),
                PointE(float(y[0]), float(y[1]), float(y[2])),
                FrameVector(float(y[3]), float(y[4]), float(y[5])),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Nil3 closed forms
# ---------------------------------------------------------------------------

def _nil_xyz(tau, phi, theta, t):
    """Vectorized Nil3 closed-form coordinates; broadcasts over all inputs.

    The straight-line branch phi = pi/2 follows the horizontal-line
    convention t -> (cos(theta) t, sin(theta) t, 0); elsewhere the general
    (phi, theta) formula applies, whose phi -> pi/2 limit is the line in the
    rotated direction (-sin(theta), cos(theta)).
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    c = np.cos(phi)
    horizontal = np.abs(c) < _VERTICAL_EPS
    c_safe = np.where(horizontal, 1.0, c)
    tn = np.tan(np.where(horizontal, 0.0, phi))
    w = 2.0 * tau * c_safe
    x = tn / (2.0 * tau) * (np.cos(w * t + theta) - np.cos(theta))
    y = tn / (2.0 * tau) * (np.sin(w * t + theta) - np.sin(theta))
    z = (1.0 + c_safe**2) / (2.0 * c_safe) * t - tn**2 / (4.0 * tau) * np.sin(w * t)
    x = np.where(horizontal, np.cos(theta) * t, x)
    y = np.where(horizontal, np.sin(theta) * t, y)
    z = np.where(horizontal, 0.0, z)
    return x, y, z


def _nil_velocity_xyz(tau, phi, theta, t):
    """Analytic coordinate velocity of the Nil3 closed form."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    c = np.cos(phi)
    s = np.sin(phi)
    horizontal = np.abs(c) < _VERTICAL_EPS
    c_safe = np.where(horizontal, 1.0, c)
    w = 2.0 * tau * c_safe
    xp = -s * np.sin(w * t + theta)
    yp = s * np.cos(w * t + theta)
    zp = (1.0 + c_safe**2) / (2.0 * c_safe) - s**2 / (2.0 * c_safe) * np.cos(w * t)
    xp = np.where(horizontal, np.cos(theta), xp)
    yp = np.where(horizontal, np.sin(theta), yp)
    zp = np.where(horizontal, 0.0, zp)
    return xp, yp, zp


def nil_geodesic_closed(tau: float, phi: float, theta: float, t: float) -> PointE:
    """Point at arclength t on the Nil3(tau) geodesic through the origin.

    phi in [0, pi] is the angle from the vertical; the initial velocity is
    (-sin(theta) sin(phi), cos(theta) sin(phi), cos(phi)).
    """
    if not (0.0 <= phi <= math.pi):
        raise ValueError("phi must lie in [0, pi]")
    x, y, z = _nil_xyz(tau, phi, theta, t)
    return PointE(float(x), float(y), float(z))


def nil_geodesic_velocity(tau: float, phi: float, theta: float, t: float) -> FrameVector:
    """Unit tangent (frame coefficients) of the Nil3 closed form at t."""
    x, y, z = _nil_xyz(tau, phi, theta, t)
    xp, yp, zp = _nil_velocity_xyz(tau, phi, theta, t)
    a3 = zp + tau * (y * xp - x * yp)
    return FrameVector(float(xp), float(yp), float(a3))


# ---------------------------------------------------------------------------
# kappa < 0, tau > 0 closed forms
# ---------------------------------------------------------------------------

def _sl2_xyz(kappa, tau, family, a, t):
    """Closed-form coordinates for the four kappa<0, tau>0 families.

    Supports complex t (for complex-step differentiation).  The hyperbolic
    family carries a sign correction of y and of the linear z-coefficient
    relative to the commonly printed formulas; both are fixed by matching
    the stated initial velocity and the geodesic ODE.
    """
    t = np.asarray(t)
    sk = math.sqrt(-kappa)
    if family == "horizontal":
        y = (2.0 / sk) * np.tanh(0.5 * sk * t)
        return np.zeros_like(y), y, np.zeros_like(y)
    if tau == 0.0:
        raise UnsupportedSpaceError(
            "elliptic/parabolic/hyperbolic closed forms require tau > 0"
        )
    if family == "elliptic":
        ka2 = kappa * a * a
        S = math.sqrt((4.0 - ka2) ** 2 + 64.0 * a * a * tau * tau)
        m = 2.0 * (4.0 + ka2) * tau / S
        den = 16.0 + ka2**2 + 8.0 * ka2 * np.cos(m * t)
        x = 4.0 * a * (ka2 - 4.0) * (1.0 - np.cos(m * t)) / den
        y = 4.0 * a * (ka2 + 4.0) * np.sin(m * t) / den
        z = (4.0 + a * a * (8.0 * tau * tau - kappa)) / S * t + (
            4.0 * tau / kappa
        ) * np.arctan(-ka2 * np.sin(m * t) / (4.0 + ka2 * np.cos(m * t)))
        return x, y, z
    if family == "parabolic":
        q = math.sqrt(4.0 * tau * tau - kappa)
        den = 4.0 * tau * tau - kappa * (1.0 + tau * tau * t * t)
        x = -2.0 * sk * tau * tau * t * t / den
        y = 2.0 * tau * q * t / den
        z = (q / sk) * t + (4.0 * tau / kappa) * np.arctan(tau * sk * t / q)
        return x, y, z
    if family == "hyperbolic":
        ka2 = kappa * a * a
        root = math.sqrt(-ka2 - 4.0)
        m = tau * root / (2.0 * math.sqrt(a * a * tau * tau + 1.0))
        den = 4.0 + ka2 * np.cosh(m * t) ** 2
        x = 4.0 * a * np.sinh(m * t) ** 2 / den
        y = -a * root * np.sinh(2.0 * m * t) / den
        z = (4.0 * tau * tau - kappa) / (-kappa * math.sqrt(1.0 + a * a * tau * tau)) * t + (
            4.0 * tau / kappa
        ) * np.arctan(2.0 * np.tanh(m * t) / root)
        return x, y, z
    raise ValueError(f"unknown family {family!r}")


def _sl2_validate(sp: SpaceParams, family: str, a: float | None):
    if sp.kappa >= 0.0:
        raise UnsupportedSpaceError("sl2 closed forms require kappa < 0")
    lim = 2.0 / math.sqrt(-sp.kappa)
    if family == "elliptic":
        if a is None or not (0.0 <= a < lim):
            raise ValueError(f"elliptic family needs 0 <= a < {lim}")
    elif family == "hyperbolic":
        if a is None or not (a > lim):
            raise ValueError(f"hyperbolic family needs a > {lim}")
    elif family not in ("horizontal", "parabolic"):
        raise ValueError(f"unknown family {family!r}")
    if family != "horizontal" and sp.tau == 0.0:
        raise UnsupportedSpaceError(
            "tau = 0: only the horizontal/product branch is valid"
        )


def sl2_geodesic_closed(
    sp: SpaceParams, family: str, a: float | None, t: float
) -> PointE:
    """Point at arclength t on a kappa<0 geodesic through the origin.

    a parametrizes the elliptic (0 <= a < 2/sqrt(-kappa), a = 0 is the
    fiber) and hyperbolic (a > 2/sqrt(-kappa)) families; it is ignored for
    the horizontal and parabolic ones.
    """
    _sl2_validate(sp, family, a)
    x, y, z = _sl2_xyz(sp.kappa, sp.tau, family, a, float(t))
    return PointE(float(x), float(y), float(z))


def sl2_geodesic_velocity(
    sp: SpaceParams, family: str, a: float | None, t: float
) -> FrameVector:
    """Unit tangent of the closed form at t, via complex-step differentiation."""
    _sl2_validate(sp, family, a)
    h = 1e-30
    x, y, z = _sl2_xyz(sp.kappa, sp.tau, family, a, float(t))
    xc, yc, zc = _sl2_xyz(sp.kappa, sp.tau, family, a, float(t) + 1j * h)
    v = (np.imag(xc) / h, np.imag(yc) / h, np.imag(zc) / h)
    return coord_to_frame(sp, PointE(float(x), float(y), float(z)), v)


# ---------------------------------------------------------------------------
# Heights of geodesic balls
# ---------------------------------------------------------------------------

def nil_max_height(tau: float, R: float) -> float:
    """Maximum |z| over the geodesic ball of radius R in Nil3(tau)."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    if 2.0 * tau * R <= math.pi:
        return R
    return (math.pi**2 + 4.0 * tau**2 * R**2) / (4.0 * tau * math.pi)


def nil_max_height_inverse(tau: float, z: float) -> float:
    """Smallest radius whose Nil3 ball reaches height z (inverse of nil_max_height)."""
    z = abs(z)
    if 2.0 * tau * z <= math.pi:
        return z
    # solve (pi^2 + 4 tau^2 R^2) / (4 tau pi) = z for R
    return math.sqrt(max(4.0 * tau * math.pi * z - math.pi**2, 0.0)) / (2.0 * tau)


def zeta_r(tau: float, R: float, s) -> float:
    """Height z(R) of the Nil3 geodesic reparametrized by s = 2 tau R cos(phi)."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s > 2.0 * tau * R + 1e-12):
        raise ValueError("s must lie in (0, 2 tau R]")
    q = 4.0 * tau**2 * R**2
    val = (s * (s**2 + q) + (s**2 - q) * np.sin(s)) / (4.0 * tau * s**2)
    return float(val) if val.ndim == 0 else val


def zeta_r_prime(tau: float, R: float, s) -> float:
    """Derivative of zeta_r in s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s > 2.0 * tau * R + 1e-12):
        raise ValueError("s must lie in (0, 2 tau R]")
    q = 4.0 * tau**2 * R**2
    val = (s * (s**2 - q) * (1.0 + np.cos(s)) + 2.0 * q * np.sin(s)) / (4.0 * tau * s**3)
    return float(val) if val.ndim == 0 else val


def zeta_critical_points(tau: float, R: float, n_grid: int = 4096) -> np.ndarray:
    """Roots of zeta_r' in (0, 2 tau R) away from the cos(s) = -1 branch.

    These solve tan(s/2) = s (4 tau^2 R^2 - s^2) / (8 tau^2 R^2); the number
    of solutions grows with R.
    """
    s_hi = 2.0 * tau * R
    grid = np.linspace(s_hi * 1e-6, s_hi * (1.0 - 1e-9), n_grid)
    vals = zeta_r_prime(tau, R, grid)
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            r = brentq(lambda s: zeta_r_prime(tau, R, s), grid[i], grid[i + 1],
                       xtol=1e-14, rtol=1e-14)
            roots.append(r)
    roots = np.array(roots)
    if roots.size:
        roots = roots[np.abs(np.cos(roots) + 1.0) > 1e-9]
    return roots


def sl2_max_height_bound(sp: SpaceParams, R: float) -> float:
    """Linear upper bound on the height of the ball B_R(0) for kappa < 0."""
    if sp.kappa >= 0.0:
        raise UnsupportedSpaceError("height bound requires kappa < 0")
    if R <= 0.0:
        raise ValueError("R must be positive")
    if sp.tau == 0.0:
        return R
    k, t = sp.kappa, sp.tau
    elliptic = (1.0 - (8.0 * t * t - k) / k) * R - 2.0 * math.pi * t / k
    parab = math.sqrt(4.0 * t * t - k) / math.sqrt(-k) * R - 2.0 * math.pi * t / k
    return max(elliptic, parab)


def ball_height(sp: SpaceParams, R: float) -> float:
    """Half-height of a cylinder containing the ball B_R(0).

    Sharp (the maximum |z| over the ball) except for kappa < 0, tau > 0,
    where it is the linear upper bound of sl2_max_height_bound.
    """
    if sp.is_nil:
        return nil_max_height(sp.tau, R)
    if sp.is_sl2:
        return sl2_max_height_bound(sp, R)
    return R


def base_disk_model_radius(sp: SpaceParams, R: float) -> float:
    """Model (Euclidean) radius of the base disk of intrinsic radius R."""
    if sp.kappa == 0.0:
        return R
    sk = math.sqrt(-sp.kappa)
    return (2.0 / sk) * math.tanh(0.5 * sk * R)


# ---------------------------------------------------------------------------
# Quasi-distance and distance
# ---------------------------------------------------------------------------

def delta_alpha(alpha: float, p: PointE) -> float:
    """max(sqrt(x^2+y^2), sqrt(|z|)/alpha); degree-1 homogeneous under
    (x, y, z) -> (s x, s y, s^2 z)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return max(math.hypot(p.x, p.y), math.sqrt(abs(p.z)) / alpha)


def nil_group_translate(tau: float, p: PointE, q: PointE) -> PointE:
    """Left-translate q by p^{-1} under the Nil3 group law
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+tau(x y' - y x'))."""
    dx = q.x - p.x
    dy = q.y - p.y
    dz = q.z - p.z - tau * (p.x * q.y - p.y * q.x)
    return PointE(dx, dy, dz)


def hyperbolic_distance(kappa: float, p, q) -> float:
    """Distance in M^2(kappa), kappa < 0, in the conformal disk model."""
    if kappa >= 0.0:
        return math.hypot(q.x - p.x, q.y - p.y)
    s = math.sqrt(-kappa) / 2.0
    w1 = complex(p.x, p.y) * s
    w2 = complex(q.x, q.y) * s
    if abs(w1) >= 1.0 or abs(w2) >= 1.0:
        raise ModelDomainError("point outside the model disk")
    r = abs((w1 - w2) / (1.0 - w1 * w2.conjugate()))
    return (1.0 / math.sqrt(-kappa)) * 2.0 * math.atanh(r)


def _nil_reduction_terms(t, tau, rho):
    """f(u), D(u) and f'(u) du/dt at the half-angle t = tan(u/2).

    t keeps relative precision at both ends of u in (0, pi): t ~ u/2 near 0
    and t ~ 2/(pi - u) near pi, where sin u = 2t / (1 + t^2) stays exact.
    """
    u = 2.0 * np.arctan(t)
    du_dt = 2.0 / (1.0 + t * t)
    s = t * du_dt
    c = du_dt - 1.0
    q = u / s
    x = 2.0 * u
    x2 = x * x
    # g = (2u - sin 2u) / (4 sin^2 u), by its Taylor series where the difference cancels
    series = x * q * q * (1.0 / 6 - x2 * (1.0 / 120 - x2 * (
        1.0 / 5040 - x2 * (1.0 / 362880 - x2 / 39916800))))
    g = np.divide(x - 2.0 * s * c, 4.0 * s * s, out=series, where=x > 0.1)
    r2 = rho * rho
    f = u / tau + tau * r2 * g
    d = np.hypot(u / tau, rho * q)
    df_dt = (1.0 / tau + tau * r2 * (1.0 - 2.0 * g * c / s)) * du_dt
    return f, d, df_dt


def nil_distance_reduced(tau: float, rho, z, radius: float | None = None):
    """Vectorized Nil3(tau) distances from the origin to the points at
    horizontal radius rho and height z, by the exact one-dimensional reduction.

    For rho > 0 the minimizing geodesic to (rho, z) has a parameter u in
    (0, pi), the root of f(u) = |z| with
    f(u) = u/tau + tau rho^2 (2u - sin 2u) / (4 sin^2 u), and the distance
    is D(u) = u sqrt(1/tau^2 + rho^2 / sin^2 u) (Marenich, "Geodesics in
    Heisenberg groups", Geom. Dedicata 66, 1997).  f and D increase with u.
    The root is found by Newton steps in t = tan(u/2) inside a bracket that
    every probe narrows; a step leaving the bracket is replaced by
    bisection.

    With a radius it returns the membership d < radius instead: a sample is
    then dropped as soon as D at one end of its bracket puts the distance on
    one side of the radius, so only samples next to the sphere iterate until
    the reduction converges.  The probes do not depend on the radius, so
    membership agrees with the distance form up to rounding.
    """
    rho, z = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                 np.abs(np.asarray(z, dtype=float)))
    shape = rho.shape
    rho, z = rho.ravel(), z.ravel()
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(z))):
        raise ValueError("rho and z must be finite")
    axis_d = np.where(tau * z <= math.pi, z,
                      np.sqrt(np.maximum(math.pi * (2.0 * tau * z - math.pi), 0.0)) / tau)
    # a horizontal segment of length rho and a fiber segment of length |z|
    # bound |d(rho, z) - d(0, z)| and |d(rho, z) - rho|: below rounding here
    flat = z <= _REDUCTION_TINY * rho
    solve = ~flat & (rho > _REDUCTION_TINY * axis_d)
    trivial_d = np.where(flat, rho, axis_d)
    if radius is None:
        out = np.where(solve, np.nan, trivial_d)
    else:
        out = ~solve & (trivial_d < radius)
        solve &= rho < radius  # D >= rho on (0, pi)
    idx = np.nonzero(solve)[0]
    rr, zz = rho[idx], z[idx]
    r2 = rr * rr

    # first probe: the smaller root of the small-u slope f ~ (1/tau + tau rho^2/3) u
    # and of the near-pi asymptote f ~ pi/tau + tau rho^2 pi / (2 (pi - u)^2)
    with np.errstate(divide="ignore", invalid="ignore"):
        v0 = np.sqrt(tau * math.pi * r2 / (2.0 * (zz - math.pi / tau)))
    u0 = np.minimum(zz / (1.0 / tau + tau * r2 / 3.0),
                    np.where(v0 < math.pi, math.pi - v0, math.pi))
    t = np.tan(0.5 * u0)
    lo, d_lo = np.zeros_like(t), rr
    hi, d_hi = np.full_like(t, np.inf), np.full_like(t, np.inf)
    for _ in range(_REDUCTION_MAX_ITER):
        if idx.size == 0:
            break
        f, d, df_dt = _nil_reduction_terms(t, tau, rr)
        f -= zz
        step = f / df_dt
        below = f < 0.0
        lo, d_lo = np.where(below, t, lo), np.where(below, d, d_lo)
        hi, d_hi = np.where(below, hi, t), np.where(below, d_hi, d)
        done = (np.abs(step) <= _REDUCTION_EPS * t) | (hi - lo <= _REDUCTION_EPS * lo)
        root = np.clip(t[done] - step[done], lo[done], hi[done])
        d_root = _nil_reduction_terms(root, tau, rr[done])[1]
        if radius is None:
            out[idx[done]] = d_root
        else:
            inside, outside = d_hi < radius, d_lo >= radius
            out[idx[done]] = d_root < radius
            out[idx[inside]] = True
            out[idx[outside]] = False
            done |= inside | outside
        nxt = t - step  # else bisect log t, or halve or double while an end is open
        mid = np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * hi)
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, np.where(np.isfinite(hi), mid, 2.0 * lo))
        keep = ~done
        idx, rr, zz, t = idx[keep], rr[keep], zz[keep], nxt[keep]
        lo, d_lo, hi, d_hi = lo[keep], d_lo[keep], hi[keep], d_hi[keep]
    if idx.size:
        raise ConvergenceError(
            f"Nil3 distance reduction did not converge at {idx.size} points, "
            f"e.g. rho={rho[idx[0]]:.17g}, z={z[idx[0]]:.17g}",
            best=float(np.max(d_hi)),
        )
    return out.reshape(shape)


def _nil_distance_origin(tau: float, x: float, y: float, z: float,
                         tol: float = 1e-10, n_seeds: int = 32) -> float:
    """Distance from the origin in Nil3(tau) by multistart Newton shooting.

    Reduces to the (c, t) unknowns (c = cos(phi)) using the rotational
    symmetry; theta only aligns the horizontal direction.  Minimizes t over
    all converged geodesic branches.
    """
    rho = math.hypot(x, y)
    z = abs(z)
    if rho < _VERTICAL_EPS and z < _VERTICAL_EPS:
        return 0.0
    if z < _VERTICAL_EPS:
        return rho  # horizontal straight lines are minimizing
    t_lo = max(rho, nil_max_height_inverse(tau, z))
    t_hi = rho + z  # horizontal segment plus fiber segment
    rho2_target = rho * rho

    cs, ts = np.meshgrid(
        np.linspace(1e-3, 1.0 - 1e-6, n_seeds),
        np.linspace(max(t_lo, 1e-6), t_hi * 1.0001, n_seeds),
        indexing="ij",
    )
    c = cs.ravel().copy()
    t = ts.ravel().copy()
    for _ in range(80):
        s2 = 1.0 - c * c
        u = tau * c * t
        sin_u, cos_u = np.sin(u), np.cos(u)
        sin2u, cos2u = np.sin(2.0 * u), np.cos(2.0 * u)
        f1 = s2 / (tau * c) ** 2 * sin_u**2 - rho2_target
        f2 = (1.0 + c * c) / (2.0 * c) * t - s2 / (4.0 * tau * c * c) * sin2u - z
        j11 = (-2.0 / (tau**2 * c**3)) * sin_u**2 + (
            2.0 * s2 * t / (tau * c**2)
        ) * sin_u * cos_u
        j12 = 2.0 * s2 / (tau * c) * sin_u * cos_u
        j21 = (
            t * (c * c - 1.0) / (2.0 * c * c)
            + sin2u / (2.0 * tau * c**3)
            - s2 * t / (2.0 * c * c) * cos2u
        )
        j22 = (1.0 + c * c) / (2.0 * c) - s2 / (2.0 * c) * cos2u
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dc = (f1 * j22 - f2 * j12) / det
        dt = (j11 * f2 - j21 * f1) / det
        step = np.hypot(dc, dt)
        lim = np.minimum(1.0, 0.25 / np.maximum(step, 1e-300))
        c = np.clip(c - lim * dc, 1e-9, 1.0 - 1e-12)
        t = np.clip(t - lim * dt, 1e-9, 2.0 * t_hi + 1.0)
    s2 = 1.0 - c * c
    u = tau * c * t
    f1 = s2 / (tau * c) ** 2 * np.sin(u) ** 2 - rho2_target
    f2 = (1.0 + c * c) / (2.0 * c) * t - s2 / (4.0 * tau * c * c) * np.sin(2.0 * u) - z
    ok = (
        (np.abs(f1) < tol * max(rho2_target, 1.0))
        & (np.abs(f2) < tol * max(z, 1.0))
        & (t >= t_lo - 1e-6)
        & np.isfinite(t)
    )
    if not np.any(ok):
        raise ConvergenceError(
            f"no geodesic branch converged for rho={rho:.6g}, z={z:.6g}",
            best=t_hi,
        )
    return float(np.min(t[ok]))


def distance(sp: SpaceParams, p: PointE, q: PointE, tol: float = 1e-10) -> float:
    """Geodesic distance between p and q.

    Implemented for R^3, Nil3 (multistart shooting over the closed-form
    family after left-translating q so p is the origin) and the product
    spaces kappa < 0, tau = 0.  For kappa < 0, tau > 0 use
    distance_upper_bound.
    """
    if sp.is_euclidean:
        return math.dist((p.x, p.y, p.z), (q.x, q.y, q.z))
    if sp.is_nil:
        d = nil_group_translate(sp.tau, p, q)
        return _nil_distance_origin(sp.tau, d.x, d.y, d.z, tol=tol)
    if sp.is_product:
        dh = hyperbolic_distance(sp.kappa, p, q)
        return math.hypot(dh, q.z - p.z)
    raise UnsupportedSpaceError(
        "exact distance is not implemented for kappa<0, tau>0; "
        "distance_upper_bound provides a flagged upper bound"
    )


def distance_upper_bound(sp: SpaceParams, p: PointE, q: PointE,
                         n_quad: int = 96) -> float:
    """Upper bound on the distance, exact where distance() is implemented.

    For kappa < 0, tau > 0 it is the length of the model straight segment
    between the base points, lifted at constant height, plus a fiber
    segment; a genuine curve length, hence an upper bound.
    """
    if not sp.is_sl2:
        return distance(sp, p, q)
    nodes, weights = leggauss(n_quad)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xs = p.x + s * (q.x - p.x)
    ys = p.y + s * (q.y - p.y)
    dx, dy = q.x - p.x, q.y - p.y
    mu = 1.0 + 0.25 * sp.kappa * (xs * xs + ys * ys)
    if np.any(mu <= 0.0):
        raise ModelDomainError("segment leaves the model disk")
    lam = 1.0 / mu
    cross = ys * dx - xs * dy
    integrand = np.sqrt(lam**2 * (dx * dx + dy * dy) + sp.tau**2 * lam**2 * cross**2)
    return float(np.sum(w * integrand) + abs(q.z - p.z))


def measure_distance_equivalence(
    tau: float,
    n: int = 1000,
    seed: int = 0,
    alpha: float = 1.0,
    box: float = 8.0,
) -> tuple[float, float]:
    """Empirical constants (m, M) with m*d(p) <= delta_alpha(p) <= M*d(p).

    Sampled over n random points with d(p) > pi/(2 tau); the constants are
    measured, not certified.
    """
    rng = np.random.default_rng(seed)
    cutoff = math.pi / (2.0 * tau)
    lo, hi = math.inf, 0.0
    count = 0
    while count < n:
        x, y = rng.uniform(-box, box, size=2)
        z = rng.uniform(-box * box, box * box)
        p = PointE(float(x), float(y), float(z))
        d = _nil_distance_origin(tau, p.x, p.y, p.z)
        if d <= cutoff:
            continue
        ratio = delta_alpha(alpha, p) / d
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        count += 1
    return lo, hi
