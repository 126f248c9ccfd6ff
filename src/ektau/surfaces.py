"""Ready-made example surfaces and their closed-form reference quantities.

Each constructor returns an ExampleSurface bundling a GraphSurface with a
dictionary of named closed forms (callables of the radius) used by the
growth harness and the test-suite.  The CLI names the examples it can
build in ``cli._build_example``; this module keeps no registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import leggauss
from .core import SpaceParams, _mu, base_disk_area, base_disk_model_radius
from .errors import ConvergenceError, HypothesisViolationError
from .graphs import BaseDomain, GraphSurface

__all__ = [
    "ExampleSurface",
    "CatenoidProfile",
    "umbrella",
    "affine_plane",
    "fmp_surface",
    "catenoid",
    "catenoid_height",
    "cmc_profile",
    "ideal_polygon_area",
    "ideal_polygon_area_numeric",
]

HEIGHT_QUAD_ORDER = 200  # Gauss-Legendre order of the catenoid height integral
POLYGON_QUAD_ORDER = 64  # Gauss-Legendre order of each ideal-triangle integral
PROFILE_TOL = 1e-10      # relative and absolute ODE tolerance of cmc_profile
PROFILE_SAMPLES = 400    # arclength samples of a cmc_profile


@dataclass(frozen=True)
class ExampleSurface:
    """A named graph surface with closed-form reference quantities.

    closed_forms maps quantity names to callables of the radius;
    extrinsic_equals_base_disk says that the intersection with the ambient
    ball B_R(0) is exactly the graph over the base disk D_R.
    """

    name: str
    graph: GraphSurface
    closed_forms: dict = field(default_factory=dict)
    minimal: bool = True
    extrinsic_equals_base_disk: bool = False


# ---------------------------------------------------------------------------
# Umbrellas and planes
# ---------------------------------------------------------------------------

def _zero(x, y):
    return np.zeros(np.shape(x))


def _umbrella_area(sp: SpaceParams, R: float) -> float:
    """Extrinsic area of the horizontal umbrella inside B_R(0): the integral
    of sqrt(1 + tau^2 r^2) lambda^2 over the base disk D_R, in closed form.

    For kappa < 0, tau > 0 it is pi [F(S) - F(0)], S the squared model
    radius of D_R, with a = tau^2, b = kappa/4, q = sqrt(-b (a - b)) and
    F(s) = (a / (b q)) artanh(q sqrt(1 + a s) / (a - b))
           - sqrt(1 + a s) / (b (1 + b s)),
    regrouped so that no two terms cancel as -b / a tends to 0, with
    artanh(x) - x summed as its series where x is small.
    """
    if sp.tau == 0.0:
        return base_disk_area(sp, R)
    a, b = sp.tau**2, 0.25 * sp.kappa
    if sp.kappa == 0.0:
        return 2.0 * math.pi / (3.0 * a) * ((1.0 + a * R * R) ** 1.5 - 1.0)
    S = base_disk_model_radius(sp, R) ** 2
    W = math.sqrt(1.0 + a * S)
    q = math.sqrt(-b * (a - b))
    x = q * S / (1.0 + W + b * S)
    x2 = x * x
    tail = math.atanh(x) - x if x > 0.1 else x * x2 * sum(
        x2**k / (2 * k + 3) for k in range(9))
    return math.pi * (S / (1.0 + b * S)
                      + a * W * S * S / ((1.0 + W) * (1.0 + W + b * S) * (1.0 + b * S))
                      + a / (b * q) * tail)


def umbrella(sp: SpaceParams) -> ExampleSurface:
    """The horizontal umbrella u = 0 over the full base plane.

    Its intersection with B_R(0) is exactly the graph over the base disk
    D_R (extrinsic_equals_base_disk), so intrinsic, extrinsic and
    cylindrical areas coincide.
    """
    g = GraphSurface(
        sp,
        BaseDomain.full_plane(),
        _zero,
        lambda x, y: (_zero(x, y), _zero(x, y)),
        lambda x, y: (_zero(x, y), _zero(x, y), _zero(x, y)),
    )
    forms = {"extrinsic_area": lambda R: _umbrella_area(sp, R)}
    if sp.kappa < 0.0:
        forms["area_leading_coefficient"] = (
            math.pi
            * math.sqrt(4.0 * sp.tau**2 - sp.kappa)
            / (-sp.kappa * math.sqrt(-sp.kappa))
        )
    return ExampleSurface("umbrella", g, forms, minimal=True, extrinsic_equals_base_disk=True)


def affine_plane(tau: float, a: float, b: float) -> ExampleSurface:
    """The minimal graph u = a x + b y in Nil3(tau) (an umbrella if a=b=0)."""
    sp = SpaceParams(0.0, tau)
    g = GraphSurface(
        sp,
        BaseDomain.full_plane(),
        lambda x, y: a * x + b * y,
        lambda x, y: (np.full(np.shape(x), a), np.full(np.shape(x), b)),
        lambda x, y: (_zero(x, y), _zero(x, y), _zero(x, y)),
    )
    return ExampleSurface("plane", g, {}, minimal=True)


# ---------------------------------------------------------------------------
# The FMP family of entire minimal graphs in Nil3
# ---------------------------------------------------------------------------

def fmp_surface(tau: float, theta: float) -> ExampleSurface:
    """The entire minimal graph u = tau x y + (sinh(theta)/4 tau) [...] in Nil3.

    theta = 0 gives u = tau x y, whose induced metric in (x, y) is
    (1 + 4 tau^2 y^2) dx^2 + dy^2.  The closed form
    intrinsic_area_lower_bound bounds area(B_R of the surface) from below.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    sp = SpaceParams(0.0, tau)
    try:
        sh = math.sinh(theta)
    except OverflowError as exc:
        raise ValueError(f"theta {theta!r} overflows sinh(theta)") from exc

    def u(x, y):
        q = np.sqrt(1.0 + 4.0 * tau**2 * y * y)
        return tau * x * y + sh / (4.0 * tau) * (
            2.0 * tau * y * q + np.arcsinh(2.0 * tau * y)
        )

    def grad(x, y):
        q = np.sqrt(1.0 + 4.0 * tau**2 * y * y)
        return tau * y, tau * x + sh * q

    def hess(x, y):
        q = np.sqrt(1.0 + 4.0 * tau**2 * y * y)
        return _zero(x, y), np.full(np.shape(x), tau), 4.0 * tau**2 * sh * y / q

    def lower_bound(R):
        q = math.sqrt(1.0 + 4.0 * tau**2 * R * R)
        return (
            1.0
            + (2.0 * tau**2 * R * R - 1.0) * q
            + 3.0 * tau * R * math.asinh(2.0 * tau * R)
        ) / (3.0 * tau**2)

    g = GraphSurface(sp, BaseDomain.full_plane(), u, grad, hess)
    return ExampleSurface("fmp", g, {"intrinsic_area_lower_bound": lower_bound}, minimal=True)


# ---------------------------------------------------------------------------
# Catenoids and rotational CMC profiles in Nil3
# ---------------------------------------------------------------------------

def catenoid_height(tau: float, E: float, r) -> np.ndarray:
    """Height h(r) of the Nil3 half-catenoid with neck radius E.

    h(r) = int_E^r E sqrt(1+tau^2 s^2)/sqrt(s^2-E^2) ds; the endpoint
    singularity is removed by s = E cosh(w), giving a smooth integrand
    E sqrt(1 + tau^2 E^2 cosh^2 w) over w in [0, arccosh(r/E)].
    The quadrature runs once per distinct radius (grids of points on a few
    circles repeat their radii) and is indexed back to the shape of r; a
    scalar r gives a float.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < E * (1.0 - 1e-6)):
        raise ValueError("r must be >= E")
    # the inverse is raveled: its shape differs between numpy 1.x and 2.x
    radii, inverse = np.unique(r.ravel(), return_inverse=True)
    wmax = np.arccosh(np.maximum(radii / E, 1.0))
    nodes, weights = leggauss(HEIGHT_QUAD_ORDER)
    w = 0.5 * wmax[:, None] * (nodes + 1.0)
    integrand = E * np.sqrt(1.0 + (tau * E * np.cosh(w)) ** 2)
    heights = 0.5 * wmax * np.sum(weights * integrand, axis=-1)
    out = heights[inverse.ravel()].reshape(r.shape)
    return out if out.ndim else float(out)


def catenoid(tau: float, E: float) -> ExampleSurface:
    """Upper half of the Nil3(tau) catenoid as a graph over the annulus r > E.

    The graph takes the boundary value 0 on the inner circle r = E, its only
    boundary arc; the height grows linearly with slope approaching E tau.
    """
    if E <= 0.0:
        raise ValueError("E must be positive")
    sp = SpaceParams(0.0, tau)

    def u(x, y):
        return catenoid_height(tau, E, np.hypot(x, y))

    def _ur(r):
        return E * np.sqrt(1.0 + tau**2 * r * r) / np.sqrt(r * r - E * E)

    def grad(x, y):
        r = np.hypot(x, y)
        ur = _ur(r)
        return ur * x / r, ur * y / r

    def hess(x, y):
        r = np.hypot(x, y)
        ur = _ur(r)
        q = np.sqrt(1.0 + tau**2 * r * r)
        urr = E * (
            tau**2 * r / (q * np.sqrt(r * r - E * E))
            - q * r / (r * r - E * E) ** 1.5
        )
        c, s = x / r, y / r
        uxx = urr * c * c + ur * s * s / r
        uxy = (urr - ur / r) * c * s
        uyy = urr * s * s + ur * c * c / r
        return uxx, uxy, uyy

    g = GraphSurface(sp, BaseDomain.annulus(E, math.inf), u, grad, hess)
    return ExampleSurface(
        "catenoid",
        g,
        {"height": lambda r: catenoid_height(tau, E, r), "slope_limit": E * tau},
        minimal=True,
    )


@dataclass(frozen=True)
class CatenoidProfile:
    """An integrated rotational CMC profile (arclength samples of r, h, alpha).

    The quantity r cos(alpha) + H r^2 is a first integral; its value E is
    the neck parameter and the constancy drift certifies the integration.
    """

    tau: float
    H: float
    E: float
    t: np.ndarray
    r: np.ndarray
    h: np.ndarray
    alpha: np.ndarray

    def first_integral(self) -> np.ndarray:
        return self.r * np.cos(self.alpha) + self.H * self.r**2


def cmc_profile(tau: float, H: float, E: float, t_end: float) -> CatenoidProfile:
    """Integrate the rotational profile system from the neck r = E, alpha = 0.

    h' = cos(alpha), r' = sin(alpha)/sqrt(1+tau^2 r^2),
    alpha' = (cos(alpha) + 2 H r)/(r sqrt(1+tau^2 r^2)); H = 0 gives the
    catenoid, H != 0 undulary-like profiles.
    """
    from scipy.integrate import solve_ivp

    if E <= 0.0:
        raise ValueError("E must be positive")

    def rhs(_t, y):
        h, r, al = y
        q = math.sqrt(1.0 + tau**2 * r * r)
        return [math.cos(al), math.sin(al) / q, (math.cos(al) + 2.0 * H * r) / (r * q)]

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [0.0, E, 0.0],
        method="DOP853",
        rtol=PROFILE_TOL,
        atol=PROFILE_TOL,
        dense_output=True,
    )
    if sol.status != 0:
        raise ConvergenceError(f"profile integration failed: {sol.message}")
    t = np.linspace(0.0, t_end, PROFILE_SAMPLES)
    h, r, al = sol.sol(t)
    return CatenoidProfile(tau, H, E, t, r, h, al)


# ---------------------------------------------------------------------------
# Ideal polygons
# ---------------------------------------------------------------------------

def ideal_polygon_area(kappa: float, n: int, H: float) -> float:
    """Area 2(n-1) pi / (-kappa - 4 H^2) of the ideal 2n-gon domain.

    Defined for kappa < 0, n >= 2 and subcritical mean curvature
    4 H^2 + kappa < 0.
    """
    if kappa >= 0.0:
        raise ValueError("kappa must be negative")
    if n < 2:
        raise ValueError("n must be at least 2")
    if 4.0 * H * H + kappa >= 0.0:
        raise HypothesisViolationError("requires 4H^2 + kappa < 0")
    return 2.0 * (n - 1) * math.pi / (-kappa - 4.0 * H * H)


def ideal_polygon_area_numeric(kappa: float, n: int) -> float:
    """H = 0 cross-check: the ideal 2n-gon splits into 2n-2 ideal triangles.

    One triangle's area is a quadrature of the conformal factor
    lambda^2 = (1 + kappa r^2 / 4)^-2 over the ideal triangle with vertexes
    at angles pi/3, pi and 5 pi/3 on the boundary r_inf = 2/sqrt(-kappa) of
    the disk model.  By its symmetries the triangle is six copies of
    {0 <= psi <= pi/3, r <= r_e(psi)}: r_e is its edge between the vertexes
    at -pi/3 and pi/3, the circle r^2 - 4 r_inf r cos(psi) + r_inf^2 = 0
    orthogonal to the boundary.  Gauss-Legendre runs in s with
    psi = pi/3 - s^2, which absorbs the inverse square-root growth of the
    inner integral at the ideal vertex, and in w = -log(1 - (r/r_inf)^2),
    in which lambda^2 r dr is smooth up to the edge.
    """
    if kappa >= 0.0:
        raise ValueError("kappa must be negative")
    sp = SpaceParams(kappa, 0.0)
    r_inf = sp.model_radius
    nodes, weights = leggauss(POLYGON_QUAD_ORDER)
    s_max = math.sqrt(math.pi / 3.0)
    s = 0.5 * s_max * (nodes + 1.0)
    psi = math.pi / 3.0 - s * s
    q = np.sqrt(4.0 * np.cos(psi) ** 2 - 1.0)
    # 1 - (r_e/r_inf)^2 = 2 q (r_e/r_inf), free of cancellation at the vertex
    w_edge = -np.log(2.0 * q * (2.0 * np.cos(psi) - q))
    w = 0.5 * w_edge[:, None] * (nodes + 1.0)
    gap = np.exp(-w)  # 1 - (r/r_inf)^2
    r = r_inf * np.sqrt(-np.expm1(-w))
    dr_dw = 0.5 * r_inf * r_inf * gap / r
    lam2 = 1.0 / _mu(sp, r) ** 2
    inner = 0.5 * w_edge * np.sum(weights * lam2 * r * dr_dw, axis=1)
    triangle = 6.0 * 0.5 * s_max * float(np.sum(weights * 2.0 * s * inner))
    return (2 * n - 2) * triangle
