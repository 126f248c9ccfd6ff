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
from scipy.integrate import solve_ivp

from ._quadrature import integrate_annulus, leggauss
from .core import SpaceParams
from .errors import ConvergenceError, HypothesisViolationError
from .geodesics import base_disk_model_radius
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


@dataclass(frozen=True)
class ExampleSurface:
    """A named graph surface with closed-form reference quantities.

    closed_forms maps quantity names to callables of the radius;
    flags carries structural facts (e.g. whether the intersection with the
    ambient ball is exactly the graph over the base disk).
    """

    name: str
    graph: GraphSurface
    closed_forms: dict = field(default_factory=dict)
    minimal: bool = True
    flags: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Umbrellas and planes
# ---------------------------------------------------------------------------

def _zero(x, y):
    return np.zeros(np.shape(x))


def _umbrella_area(sp: SpaceParams, R: float) -> float:
    """Extrinsic area of the horizontal umbrella inside B_R(0)."""
    if sp.kappa == 0.0:
        if sp.tau == 0.0:
            return math.pi * R * R
        t2 = sp.tau**2
        return 2.0 * math.pi / (3.0 * t2) * ((1.0 + t2 * R * R) ** 1.5 - 1.0)
    sk = math.sqrt(-sp.kappa)
    if sp.tau == 0.0:
        return (4.0 * math.pi / -sp.kappa) * math.sinh(0.5 * sk * R) ** 2

    def f(x, y):
        r = np.hypot(x, y)
        lam = 1.0 / (1.0 + 0.25 * sp.kappa * r * r)
        return np.sqrt(1.0 + sp.tau**2 * r * r) * lam * lam

    return integrate_annulus(f, 0.0, base_disk_model_radius(sp, R), rel_tol=1e-9).value


def umbrella(sp: SpaceParams) -> ExampleSurface:
    """The horizontal umbrella u = 0 over the full base plane.

    Its intersection with B_R(0) is exactly the graph over the base disk
    D_R (flag extrinsic_equals_base_disk), so intrinsic, extrinsic and
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
    return ExampleSurface(
        "umbrella", g, forms, minimal=True, flags={"extrinsic_equals_base_disk": True}
    )


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
    sh = math.sinh(theta)

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
    return ExampleSurface(
        "fmp",
        g,
        {"intrinsic_area_lower_bound": lower_bound},
        minimal=True,
        flags={"theta": theta},
    )


# ---------------------------------------------------------------------------
# Catenoids and rotational CMC profiles in Nil3
# ---------------------------------------------------------------------------

def catenoid_height(tau: float, E: float, r) -> np.ndarray:
    """Height h(r) of the Nil3 half-catenoid with neck radius E.

    h(r) = int_E^r E sqrt(1+tau^2 s^2)/sqrt(s^2-E^2) ds; the endpoint
    singularity is removed by s = E cosh(w), giving a smooth integrand
    E sqrt(1 + tau^2 E^2 cosh^2 w) over w in [0, arccosh(r/E)].
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < E * (1.0 - 1e-6)):
        raise ValueError("r must be >= E")
    wmax = np.arccosh(np.maximum(r / E, 1.0))
    nodes, weights = leggauss(HEIGHT_QUAD_ORDER)
    w = 0.5 * wmax[..., None] * (nodes + 1.0)
    integrand = E * np.sqrt(1.0 + (tau * E * np.cosh(w)) ** 2)
    out = 0.5 * wmax * np.sum(weights * integrand, axis=-1)
    return out if out.ndim else float(out)


def catenoid(tau: float, E: float, r_max: float) -> ExampleSurface:
    """Upper half of the Nil3(tau) catenoid as a graph over an annulus.

    The graph takes the boundary value 0 on the inner circle r = E and is
    defined for r in (E, r_max); the height grows linearly with slope
    approaching E tau.
    """
    if E <= 0.0:
        raise ValueError("E must be positive")
    if r_max <= E:
        raise ValueError("r_max must exceed E")
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

    # the domain is conceptually r > E; r_max only truncates quadrature, so
    # the outer circle is not a value boundary and carries no arc
    full = BaseDomain.annulus(E, r_max)
    domain = BaseDomain(full.membership, full.arcs[:1], "annulus", full.params)
    g = GraphSurface(sp, domain, u, grad, hess)
    return ExampleSurface(
        "catenoid",
        g,
        {"height": lambda r: catenoid_height(tau, E, r), "slope_limit": E * tau},
        minimal=True,
        flags={"E": E, "r_max": r_max},
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


def cmc_profile(
    tau: float,
    H: float,
    E: float,
    t_end: float,
    tol: float = 1e-10,
    n_samples: int = 400,
) -> CatenoidProfile:
    """Integrate the rotational profile system from the neck r = E, alpha = 0.

    h' = cos(alpha), r' = sin(alpha)/sqrt(1+tau^2 r^2),
    alpha' = (cos(alpha) + 2 H r)/(r sqrt(1+tau^2 r^2)); H = 0 gives the
    catenoid, H != 0 undulary-like profiles.
    """
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
        rtol=tol,
        atol=tol,
        dense_output=True,
    )
    if sol.status != 0:
        raise ConvergenceError(f"profile integration failed: {sol.message}")
    t = np.linspace(0.0, t_end, n_samples)
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


def ideal_polygon_area_numeric(kappa: float, n: int, n_quad: int = 2000) -> float:
    """H = 0 cross-check by triangulating the ideal 2n-gon into 2n-2 triangles.

    The ideal triangle area is evaluated by quadrature in the curvature
    kappa half-plane model (triangle with vertexes -1, 1, infinity):
    the inner vertical integral of the area density is 1/sqrt(1-x^2),
    integrated over x with the substitution x = sin(t).
    """
    if kappa >= 0.0:
        raise ValueError("kappa must be negative")
    nodes, weights = leggauss(n_quad)
    t = 0.5 * math.pi * nodes
    wt = 0.5 * math.pi * weights
    integrand = np.cos(t) / np.sqrt(1.0 - np.sin(t) ** 2)
    triangle = float(np.sum(wt * integrand)) / -kappa
    return (2 * n - 2) * triangle
