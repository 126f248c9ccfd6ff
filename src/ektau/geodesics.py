"""Geodesics of E(kappa, tau): ODE form, closed forms, heights and distance.

Closed-form families:

* Nil3 (kappa = 0, tau > 0): the (phi, theta) family through the origin,
  phi in [0, pi] the angle from the vertical, theta the horizontal heading.
* kappa < 0, tau > 0: four families according to the projected curve
  (geodesic / circle / horocycle / hypercycle of the hyperbolic base).
* Products (tau = 0): products of base geodesics and the vertical line.

closed_geodesic evaluates them, and R^3's lines, with the velocity from
first integrals; the test-suite checks them against the ODE system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import leggauss
from .core import FrameVector, PointE, SpaceParams, _mu, base_intrinsic_radius
from .errors import ConvergenceError, ModelDomainError, UnsupportedSpaceError

__all__ = [
    "GeodesicSpec",
    "GeodesicSample",
    "geodesic_ode_step",
    "integrate_geodesic",
    "closed_geodesic",
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
    "nil_sphere_bounds",
    "sl2_max_height_bound",
    "ball_height",
    "delta_alpha",
    "nil_group_translate",
    "hyperbolic_distance",
    "nil_distance_reduced",
    "to_origin",
    "ball_distance",
    "distance",
    "distance_upper_bound",
    "measure_distance_equivalence",
]

sl2_families = ("horizontal", "elliptic", "parabolic", "hyperbolic")

_VERTICAL_EPS = 1e-14
_REDUCTION_EPS = 4.0 * np.finfo(float).eps  # relative step at which the reduction has converged
_REDUCTION_MAX_ITER = 100
_REDUCTION_TINY = 2.0**-60  # relative size below which a closed form is exact to rounding
_TAU_FLAT = 1.0 / np.finfo(float).max  # tau below which 1/tau overflows
_SHOOTING_MIN = 1e-3  # rho + |z| below which the shooting solver's absolute tolerance is too coarse
_ZETA_N_GRID = 4096  # grid points bracketing the roots of zeta_r'
_UPPER_BOUND_QUAD = 96  # Gauss-Legendre order of the lifted-segment length
_SPHERE_BINS = 1024  # uniform rho-bins of nil_sphere_bounds
_SPHERE_GRID = 4096  # u-steps bracketing the bin edges before their Newton steps
_SPHERE_NEWTON = 4  # Newton steps, from 2^-12 to full precision
_SPHERE_MARGIN = 1e-9  # relative widening of the bin bounds, far above their rounding


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
    mu = _mu(sp, x, y)
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
    from scipy.integrate import solve_ivp

    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p0, v0 = spec.start, spec.direction
    y0 = np.array([p0.x, p0.y, p0.z, v0.a1, v0.a2, v0.a3])

    def rhs(_t, y):
        return _ode_rhs(sp, y)

    def model_exit(_t, y):
        return _mu(sp, y[0], y[1]) - 1e-12
    model_exit.terminal = True

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=model_exit if sp.kappa < 0.0 else None,
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
# Closed forms through the origin
# ---------------------------------------------------------------------------

def _sin_series(x2):
    """(x - sin x) / x^3 by its Taylor series in x2 = x^2, exact to rounding for |x| <= 0.1."""
    return 1.0 / 6 - x2 * (1.0 / 120 - x2 * (1.0 / 5040 - x2 * (1.0 / 362880 - x2 / 39916800)))


def _nil_xyz(tau, phi, theta, t):
    """Nil3 closed form (x, y, z, a1, a2) at arclength t; broadcasts over all inputs.

    With psi = tau t cos(phi), x = -t sin(phi) sinc(psi) sin(psi + theta),
    y = t sin(phi) sinc(psi) cos(psi + theta) and
    z = t cos(phi) + sin(phi)^2 (2 psi - sin 2 psi) / (4 tau cos(phi)^2),
    the last term by its Taylor series where the difference cancels; and
    (a1, a2) = (x', y') = sin(phi) (-sin(2 psi + theta), cos(2 psi + theta)).
    |cos(phi)| < _VERTICAL_EPS takes the horizontal line of closed_geodesic.
    """
    c, s = np.cos(phi), np.sin(phi)
    psi = tau * t * c
    w = 2.0 * psi
    direct = np.abs(w) > 0.1
    ws = np.where(direct, 0.0, w)
    lift = ws * _sin_series(ws * ws) * tau * t * t + np.divide(
        w - np.sin(w), 4.0 * tau * c * c, out=np.zeros_like(w), where=direct)
    sinc = np.divide(np.sin(psi), psi, out=np.ones_like(psi), where=psi != 0.0)
    horizontal = np.abs(c) < _VERTICAL_EPS
    return (np.where(horizontal, np.cos(theta) * t, -t * s * sinc * np.sin(psi + theta)),
            np.where(horizontal, np.sin(theta) * t, t * s * sinc * np.cos(psi + theta)),
            np.where(horizontal, 0.0, t * c + s * s * lift),
            np.where(horizontal, np.cos(theta), -s * np.sin(w + theta)),
            np.where(horizontal, np.sin(theta), s * np.cos(w + theta)))


def _sl2_xyz(kappa, tau, family, a, t):
    """Closed-form coordinates for the kappa<0 families that _sl2_validate admits.

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
    ka2 = kappa * a * a  # hyperbolic
    root = math.sqrt(-ka2 - 4.0)
    m = tau * root / (2.0 * math.sqrt(a * a * tau * tau + 1.0))
    den = 4.0 + ka2 * np.cosh(m * t) ** 2
    x = 4.0 * a * np.sinh(m * t) ** 2 / den
    y = -a * root * np.sinh(2.0 * m * t) / den
    z = (4.0 * tau * tau - kappa) / (-kappa * math.sqrt(1.0 + a * a * tau * tau)) * t + (
        4.0 * tau / kappa
    ) * np.arctan(2.0 * np.tanh(m * t) / root)
    return x, y, z


def _sl2_validate(sp: SpaceParams, family: str, a: float | None):
    lim = sp.model_radius
    if family not in sl2_families:
        raise ValueError(f"unknown family {family!r}; kappa<0 families: {', '.join(sl2_families)}")
    if family == "elliptic" and (a is None or not (0.0 <= a < lim)):
        raise ValueError(f"elliptic family needs 0 <= a < {lim}")
    if family == "hyperbolic" and (a is None or not (a > lim)):
        raise ValueError(f"hyperbolic family needs a > {lim}")
    if family != "horizontal" and sp.tau == 0.0:
        raise UnsupportedSpaceError(
            "tau = 0: only the horizontal/product branch is valid"
        )


def closed_geodesic(sp: SpaceParams, t, *, phi: float = math.pi / 2, theta: float = 0.0,
                    family: str = "horizontal", a: float | None = None):
    """Closed-form geodesic through the origin at the arclengths t.

    Returns ((x, y, z), (a1, a2, a3)), coordinates and unit frame velocity
    shaped like t.  kappa >= 0 reads the direction from phi and theta: Nil3
    starts at (-sin(theta) sin(phi), cos(theta) sin(phi), cos(phi)) for phi
    in [0, pi], but at (cos(theta), sin(theta), 0) for phi = pi/2, and R^3
    at (cos(theta) sin(phi), sin(theta) sin(phi), cos(phi)).  kappa < 0
    reads one of sl2_families and its a, and raises ModelDomainError where
    the geodesic leaves the model disk.  The velocity comes from first
    integrals: a3 and |(a1, a2)| keep their values at the origin (E3 is
    Killing), and (a1, a2) points along the coordinate velocity (x', y'),
    a complex step for kappa < 0; so no row divides by mu, which loses its
    digits near the model rim.
    """
    t = np.asarray(t, dtype=float)
    if sp.kappa < 0.0:
        _sl2_validate(sp, family, a)
        x, y, z = _sl2_xyz(sp.kappa, sp.tau, family, a, t)
        _mu(sp, x, y)
        h = 1e-30  # complex step: first derivatives exact to rounding
        xp, yp, _ = (np.imag(c) / h for c in _sl2_xyz(sp.kappa, sp.tau, family, a, t + 1j * h))
        v1, v2, a3 = (float(np.imag(c)) / h for c in _sl2_xyz(sp.kappa, sp.tau, family, a, 1j * h))
        norm = np.hypot(xp, yp)
        a1, a2 = (math.hypot(v1, v2) * np.divide(v, norm, out=np.zeros_like(norm), where=norm > 0.0)
                  for v in (xp, yp))
    elif sp.tau == 0.0:
        a3 = math.cos(phi)
        v1, v2 = math.cos(theta) * math.sin(phi), math.sin(theta) * math.sin(phi)
        x, y, z = v1 * t, v2 * t, a3 * t
        a1, a2 = np.full_like(t, v1), np.full_like(t, v2)
    else:
        if not (0.0 <= phi <= math.pi):
            raise ValueError("phi must lie in [0, pi]")
        x, y, z, a1, a2 = _nil_xyz(sp.tau, phi, theta, t)
        a3 = 0.0 if abs(math.cos(phi)) < _VERTICAL_EPS else math.cos(phi)
    return (x, y, z), (a1, a2, np.full_like(t, a3))


def _closed_sample(sp: SpaceParams, t: float, **direction) -> tuple[PointE, FrameVector]:
    (x, y, z), (a1, a2, a3) = closed_geodesic(sp, float(t), **direction)
    return PointE(float(x), float(y), float(z)), FrameVector(float(a1), float(a2), float(a3))


def _sl2_sample(sp: SpaceParams, family: str, a: float | None, t: float):
    if sp.kappa >= 0.0:
        raise UnsupportedSpaceError("sl2 closed forms require kappa < 0")
    return _closed_sample(sp, t, family=family, a=a)


def nil_geodesic_closed(tau: float, phi: float, theta: float, t: float) -> PointE:
    """Point at arclength t on the Nil3(tau) geodesic through the origin.

    phi in [0, pi] is the angle from the vertical; the initial velocity is
    (-sin(theta) sin(phi), cos(theta) sin(phi), cos(phi)).  A scalar view of
    closed_geodesic (tau = 0 gives its R^3 line).
    """
    return _closed_sample(SpaceParams(0.0, tau), t, phi=phi, theta=theta)[0]


def nil_geodesic_velocity(tau: float, phi: float, theta: float, t: float) -> FrameVector:
    """Unit tangent (frame coefficients) of the Nil3 closed form at t."""
    return _closed_sample(SpaceParams(0.0, tau), t, phi=phi, theta=theta)[1]


def sl2_geodesic_closed(
    sp: SpaceParams, family: str, a: float | None, t: float
) -> PointE:
    """Point at arclength t on a kappa<0 geodesic through the origin.

    a parametrizes the elliptic (0 <= a < 2/sqrt(-kappa), a = 0 is the
    fiber) and hyperbolic (a > 2/sqrt(-kappa)) families; it is ignored for
    the horizontal and parabolic ones.  A scalar view of closed_geodesic.
    """
    return _sl2_sample(sp, family, a, t)[0]


def sl2_geodesic_velocity(
    sp: SpaceParams, family: str, a: float | None, t: float
) -> FrameVector:
    """Unit tangent of the closed form at t (see closed_geodesic)."""
    return _sl2_sample(sp, family, a, t)[1]


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
    # (s (s^2 + q) + (s^2 - q) sin s) / (4 tau s^2) with q = 4 tau^2 R^2, in a
    # form that never squares tau R alone, which would overflow first
    val = s / (2.0 * tau) + ((2.0 * tau * R / s) ** 2 - 1.0) * (s - np.sin(s)) / (4.0 * tau)
    return float(val) if val.ndim == 0 else val


def zeta_r_prime(tau: float, R: float, s) -> float:
    """Derivative of zeta_r in s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s > 2.0 * tau * R + 1e-12):
        raise ValueError("s must lie in (0, 2 tau R]")
    q = 4.0 * tau**2 * R**2
    val = (s * (s**2 - q) * (1.0 + np.cos(s)) + 2.0 * q * np.sin(s)) / (4.0 * tau * s**3)
    return float(val) if val.ndim == 0 else val


def zeta_critical_points(tau: float, R: float) -> np.ndarray:
    """Roots of zeta_r' in (0, 2 tau R) away from the cos(s) = -1 branch.

    These solve tan(s/2) = s (4 tau^2 R^2 - s^2) / (8 tau^2 R^2); the number
    of solutions grows with R.
    """
    from scipy.optimize import brentq

    s_hi = 2.0 * tau * R
    grid = np.linspace(s_hi * 1e-6, s_hi * (1.0 - 1e-9), _ZETA_N_GRID)
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


def nil_sphere_bounds(tau: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds of the height of the Nil3(tau) sphere of radius R
    over the _SPHERE_BINS uniform bins of [0, R) in the horizontal radius.

    A point at radius rho in bin k = floor(rho _SPHERE_BINS / R) is in the
    open ball B_R(0) if |z| < lower[k], and outside if |z| >= upper[k].
    The ball is R times the unit ball of Nil3(t), t = tau R, whose sphere is
    rho(u)^2 = (sin u / u)^2 (1 - (u/t)^2), z(u) = zeta_r(t, 1, 2u) for
    u in (0, min(pi, t)) (Marenich 1997).  rho decreases in u, and z rises
    up to u = pi/2, where it reaches nil_max_height, and falls after it; so
    each bin is bounded by the heights at its edges, except the bin of
    rho(pi/2) and its neighbours, whose upper bound is the peak.  Each
    edge's u is bracketed on a uniform grid of u, then refined by Newton
    steps.  The bounds are widened by a relative 1e-9; where they would not
    be finite or would fall below the normal range, lower is 0 and upper
    inf, which decide nothing.
    """
    n = _SPHERE_BINS
    t = tau * R
    u_max = min(math.pi, t)
    undecided = np.zeros(n), np.full(n, np.inf)
    with np.errstate(all="ignore"):
        target = (np.arange(1, n) / n) ** 2  # (rho / R)^2 at the interior edges
        grid = np.linspace(0.0, u_max, _SPHERE_GRID + 1)
        rho2 = (np.sin(grid[1:]) / grid[1:]) ** 2 * (1.0 - (grid[1:] / t) ** 2)
        i = np.searchsorted(-np.append(1.0, rho2), -target)  # rho2 decreases
        lo, hi = grid[i - 1], grid[i]
        u = 0.5 * (lo + hi)
        for _ in range(_SPHERE_NEWTON):
            sinc, w = np.sin(u) / u, 1.0 - (u / t) ** 2
            slope = 2.0 * sinc * ((np.cos(u) - sinc) / u * w - sinc * (u / t) / t)
            u = np.clip(u - (sinc * sinc * w - target) / slope, lo, hi)
        if not np.all(u > 0.0):  # t underflows, or the solve failed
            return undecided
        peak = 2.0 * t > math.pi
        z = R * zeta_r(t, 1.0, 2.0 * np.concatenate(([u_max], u, [0.5 * math.pi] if peak else [])))
        edges = np.append(z[:n], 0.0)  # heights at rho = 0, R/n, ..., R
        lower = np.minimum(edges[:-1], edges[1:]) * (1.0 - _SPHERE_MARGIN)
        upper = np.maximum(edges[:-1], edges[1:]) * (1.0 + _SPHERE_MARGIN)
        if peak:  # rho(pi/2) lies in bin k, the number of interior edges with u >= pi/2
            k = int(np.count_nonzero(u >= 0.5 * math.pi))
            upper[max(k - 1, 0):k + 2] = z[n] * (1.0 + _SPHERE_MARGIN)
    if not (np.all(np.isfinite(upper)) and np.all(lower[:-1] >= np.finfo(float).tiny)):
        return undecided
    return lower, upper


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
    dz = q.z - p.z
    if tau:  # for tau = 0 a plain difference, which cannot overflow in the twist
        dz -= tau * (p.x * q.y - p.y * q.x)
    return PointE(q.x - p.x, q.y - p.y, dz)


def _disk_modulus(kappa: float, p, q) -> float:
    """|phi(q)| for the automorphism phi of the unit disk that takes p to 0.

    p and q are points of the conformal model of M^2(kappa), kappa < 0,
    scaled onto the unit disk; ModelDomainError if either lies outside it,
    or if the modulus rounds to 1, where it no longer tells the distance.
    """
    w1, w2 = _unit_disk(kappa, p), _unit_disk(kappa, q)
    modulus = abs((w1 - w2) / (1.0 - w1 * w2.conjugate()))
    if modulus >= 1.0:
        raise ModelDomainError(f"{p} and {q} are too far apart for the disk automorphism")
    return modulus


def _unit_disk(kappa: float, p) -> complex:
    """The base point of p scaled onto the unit disk; ModelDomainError outside it."""
    w = complex(p.x, p.y) * (math.sqrt(-kappa) / 2.0)
    if abs(w) >= 1.0:
        raise ModelDomainError("point outside the model disk")
    return w


def hyperbolic_distance(kappa: float, p, q) -> float:
    """Distance in M^2(kappa), kappa < 0, in the conformal disk model:
    2 asinh(|w1 - w2| / sqrt((1 - |w1|^2)(1 - |w2|^2))) / sqrt(-kappa) on the
    unit disk, each 1 - |w|^2 taken as (1 - |w|)(1 + |w|), which keeps its
    digits near the rim, where the disk automorphism's modulus rounds to 1."""
    if kappa >= 0.0:
        return math.hypot(q.x - p.x, q.y - p.y)
    w1, w2 = _unit_disk(kappa, p), _unit_disk(kappa, q)
    a1, a2 = abs(w1), abs(w2)
    gap = math.sqrt((1.0 - a1) * (1.0 + a1) * (1.0 - a2) * (1.0 + a2))
    return 2.0 * math.asinh(abs(w1 - w2) / gap) / math.sqrt(-kappa)


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
    series = x * q * q * _sin_series(x2)
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

    With a radius it returns the membership d < radius instead.  Before any
    solve, rho >= radius settles a point as outside (D >= rho) and
    rho + |z| < radius as inside (a horizontal segment and a fiber segment
    are a curve of that length).  A solved point is dropped as soon as D at
    one end of its bracket puts the distance on one side of the radius, so
    only points next to the sphere iterate until the reduction converges.
    The probes do not depend on the radius, so membership agrees with the
    distance form up to rounding.
    Where 1/tau overflows, the metric is Euclidean to rounding (for rho,
    |z| < 1e300), and the distance is hypot(rho, z).
    """
    rho, z = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                 np.abs(np.asarray(z, dtype=float)))
    shape = rho.shape
    rho, z = rho.ravel(), z.ravel()
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(z))):
        raise ValueError("rho and z must be finite")
    if tau < _TAU_FLAT:  # 1/tau overflows
        d = np.hypot(rho, z)
        return (d if radius is None else d < radius).reshape(shape)
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
        inside = solve & (rho + z < radius)  # D <= rho + |z|
        out |= inside
        solve &= ~inside
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


def _nil_distance_origin(tau: float, rho: float, z: float,
                         tol: float = 1e-10, n_seeds: int = 32) -> float:
    """Distance from the origin in Nil3(tau) to the points at horizontal
    radius rho and height z, by multistart Newton shooting.

    Solves for the (c, t) unknowns (c = cos(phi)) of the closed-form
    family and minimizes t over all converged geodesic branches.
    """
    z = abs(z)
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


def to_origin(sp: SpaceParams, c: PointE, p: PointE) -> tuple[float, float]:
    """(model radius, height) of p after the isometry that takes c to the origin.

    Distances from the origin are invariant under the rotations about the
    z-axis, so these two numbers decide the distance from c to p and so
    whether p lies in a ball centred at c.  kappa = 0 left-translates by
    c^-1 in the Nil3 group law (a plain difference for tau = 0); kappa < 0,
    tau = 0 moves the base by the disk automorphism and the height by a
    difference.  ValueError for a non-finite coordinate, ModelDomainError
    for a point outside the model disk; the isometries of kappa < 0,
    tau > 0 are not implemented and raise UnsupportedSpaceError.
    """
    if not all(map(math.isfinite, (c.x, c.y, c.z, p.x, p.y, p.z))):
        raise ValueError(f"points must have finite coordinates, got {c} and {p}")
    if sp.kappa == 0.0:
        q = nil_group_translate(sp.tau, c, p)
        return math.hypot(q.x, q.y), q.z
    if sp.is_sl2:
        raise UnsupportedSpaceError("kappa<0, tau>0 has no exact distance or off-centre "
                                    "ball; distance_upper_bound gives a bound")
    return sp.model_radius * _disk_modulus(sp.kappa, c, p), p.z - c.z


def ball_distance(sp: SpaceParams, rho, z, radius: float | None = None):
    """Vectorized distance from the origin to the points at model radius rho,
    height z; with a radius, the membership d < radius in the ball B_radius(0).

    Nil3 solves the exact one-dimensional geodesic reduction
    (``nil_distance_reduced``, which settles most members from bounds);
    R^3 and H^2 x R give hypot(d_base, z), and membership by
    d_base^2 + z^2 < radius^2, in units of the radius when its square would
    underflow or overflow.  kappa < 0, tau > 0 has no exact distance and
    raises UnsupportedSpaceError.
    """
    if sp.is_nil:
        return nil_distance_reduced(sp.tau, rho, z, radius=radius)
    if sp.is_sl2:
        raise UnsupportedSpaceError("no exact kappa<0, tau>0 distance; use sl2_volume_bracket")
    d_base = base_intrinsic_radius(sp, rho)
    if radius is None:
        return np.hypot(d_base, z)
    if not (np.finfo(float).tiny <= radius * radius < math.inf):
        d_base, z, radius = d_base / radius, z / radius, 1.0
    return d_base * d_base + z * z < radius * radius


def distance(sp: SpaceParams, p: PointE, q: PointE) -> float:
    """Geodesic distance between p and q: ball_distance after to_origin(sp, p, q).

    Implemented for R^3, Nil3 and the product spaces kappa < 0, tau = 0;
    for kappa < 0, tau > 0 use distance_upper_bound.  Finite Nil3 offsets
    with rho + |z| >= 1e-3 go to the multistart shooting solver over the
    closed-form family; nearer, its absolute tolerance (1e-10) is not small
    against the distance.  A Nil3 offset that overflows raises ValueError.
    """
    rho, z = to_origin(sp, p, q)
    if sp.is_nil and _SHOOTING_MIN <= rho + abs(z) < math.inf:
        return _nil_distance_origin(sp.tau, rho, z)
    return float(ball_distance(sp, rho, z))


def distance_upper_bound(sp: SpaceParams, p: PointE, q: PointE) -> float:
    """Upper bound on the distance, exact where distance() is implemented.

    For kappa < 0, tau > 0 it is the length of the model straight segment
    between the base points, lifted at constant height, plus a fiber
    segment; a genuine curve length, hence an upper bound.
    """
    if not sp.is_sl2:
        return distance(sp, p, q)
    nodes, weights = leggauss(_UPPER_BOUND_QUAD)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xs = p.x + s * (q.x - p.x)
    ys = p.y + s * (q.y - p.y)
    dx, dy = q.x - p.x, q.y - p.y
    lam = 1.0 / _mu(sp, xs, ys)
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
        d = float(nil_distance_reduced(tau, math.hypot(p.x, p.y), p.z))
        if d <= cutoff:
            continue
        ratio = delta_alpha(alpha, p) / d
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        count += 1
    return lo, hi
