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
    "fmp_intrinsic_area",
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
FMP_AREA_BASE_N = 32     # Gauss-Legendre order of the first level of fmp_intrinsic_area
FMP_AREA_LEVELS = 4      # node-doubling levels before ConvergenceError
FMP_AREA_TOL = 1e-10     # relative agreement of two levels that ends the doubling
FMP_AREA_TAIL = 20.0     # w-length of the tail panel, below which the integrands are under e^-40
FMP_NEWTON_MAX_ITER = 60  # safeguarded Newton steps per height before ConvergenceError
FMP_SERIES_MAX = 1e-7    # tau R below which pi R^2 (1 + (tau R)^2 / 3) is exact to rounding


@dataclass(frozen=True)
class ExampleSurface:
    """A named graph surface with closed-form reference quantities.

    closed_forms maps quantity names to callables of the radius
    ("intrinsic_area" takes a sequence of radii and returns their areas);
    extrinsic_equals_base_disk says that the intersection with the ambient
    ball B_R(0) is exactly the graph over the base disk D_R, whose area the
    closed form "extrinsic_area" must then give; rotational says
    that u depends on the base radius r alone and the domain is an uncut
    disk or annulus.  The rotations about the fiber through the origin are
    isometries that fix the graph and every ball B_R(0) then, so one ray
    measures the area of their intersection.
    """

    name: str
    graph: GraphSurface
    closed_forms: dict = field(default_factory=dict)
    minimal: bool = True
    extrinsic_equals_base_disk: bool = False
    rotational: bool = False


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
    return ExampleSurface("umbrella", g, forms, minimal=True,
                          extrinsic_equals_base_disk=True, rotational=True)


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
    intrinsic_area_lower_bound bounds area(B_R of the surface) from below;
    at theta = 0, intrinsic_area gives it exactly (fmp_intrinsic_area).
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
    forms = {"intrinsic_area_lower_bound": lower_bound}
    if theta == 0.0:
        forms["intrinsic_area"] = lambda radii: fmp_intrinsic_area(tau, radii)
    return ExampleSurface("fmp", g, forms, minimal=True)


def _clairaut_integrals(ell, U, n):
    """(W, I1, I2, D) for the geodesics of u = tau x y from the origin with
    log(1 - c^2) = ell, up to the height y with U = 2 tau y.

    With y = a sinh w, a = sqrt(1 - c^2) / (2 tau), the arclength is
    S = (W + I1) / (2 tau) and the x reached is X = c (2 tau S - I2) / (2 tau),
    where W = asinh(y / a), I1 = int_0^W (g - 1) dw, I2 = int_0^W (g - 1/g) dw
    and g = sqrt(1 + s^2), s = U sinh w / sinh W.  The derivative of 2 tau S
    in ell at fixed y is -(tanh W + D) / 2, D = int_0^W (g - 1) / cosh^2 w dw.
    The integrands are below e^-40 more than FMP_AREA_TAIL + 3 under the
    bend w = W - asinh(U), where s reaches 1, so each integral is n
    Gauss-Legendre nodes from 3 units below the bend up to W, and n more on
    the FMP_AREA_TAIL units below those, all in v = w - W, whose rounding
    does not grow with W.
    """
    nodes, weights = leggauss(n)
    q = np.exp(np.minimum(np.log(U) - 0.5 * ell, 700.0))  # y / a
    W = np.where(q < 1.0, np.arcsinh(q),
                 np.log(U + np.hypot(U, np.exp(0.5 * ell))) - 0.5 * ell)
    bend = np.minimum(W, np.arcsinh(U) + 3.0)
    tail = np.minimum(W, bend + FMP_AREA_TAIL)
    I1 = I2 = D = 0.0
    for v0, v1 in ((-tail, -bend), (-bend, 0.0)):
        half = 0.5 * (v1 - v0)
        v = v0[:, None] + half[:, None] * (nodes + 1.0)
        w = W[:, None] + v
        # sinh w / sinh W = e^v (1 - e^-2w) / (1 - e^-2W)
        s = U[:, None] * np.exp(v) * (np.expm1(-2.0 * w) / np.expm1(-2.0 * W)[:, None])
        g = np.hypot(1.0, s)
        g1 = s * (s / (1.0 + g))  # g - 1
        decay = np.exp(-2.0 * w)
        sech2 = 4.0 * decay / (1.0 + decay) ** 2
        I1 = I1 + half * np.sum(weights * g1, axis=1)
        I2 = I2 + half * np.sum(weights * s * (s / g), axis=1)
        D = D + half * np.sum(weights * g1 * sech2, axis=1)
    return W, I1, I2, D


def _fmp_area_level(tau: float, radii: np.ndarray, n: int) -> np.ndarray:
    """fmp_intrinsic_area at radii with tau R >= FMP_SERIES_MAX, on n
    Gauss-Legendre nodes in theta and n per panel of _clairaut_integrals."""
    nodes, weights = leggauss(n)
    theta = 0.25 * math.pi * (nodes + 1.0)
    t2 = 2.0 * tau * radii[:, None]
    U = (t2 * np.sin(theta) ** 2).ravel()
    target = np.broadcast_to(t2, (radii.size, n)).ravel()
    f = np.hypot(1.0, U)
    # g >= 1, so W >= 2 tau R puts S >= R: the bracket's lower end; c = 0
    # (ell = 0) reaches y at S = y <= R: its upper end
    lo = 2.0 * (np.log(U) - target - np.log(-0.5 * np.expm1(-2.0 * target)))
    hi = np.zeros_like(U)
    # first probe: the root of 2 tau S ~ W + f - 1 - log((1 + f) / 2), the
    # large-W asymptote, or the flat metric's root lo
    ell = np.clip(2.0 * (np.log(2.0 * U) + f - 1.0 - np.log(0.5 * (1.0 + f)) - target),
                  lo, hi)
    root = np.empty_like(U)
    idx = np.arange(U.size)
    for _ in range(FMP_NEWTON_MAX_ITER):
        if idx.size == 0:
            break
        W, I1, _, D = _clairaut_integrals(ell, U[idx], n)
        F = W + I1 - target[idx]  # 2 tau (S - R), decreasing in ell
        lo, hi = np.where(F > 0.0, ell, lo), np.where(F < 0.0, ell, hi)
        nxt = ell + 2.0 * F / (np.tanh(W) + D)
        # Newton converges quadratically: the step left after this one is ~1e-20
        done = np.abs(nxt - ell) <= 1e-10 * (1.0 + np.abs(ell))
        root[idx[done]] = np.clip(nxt[done], lo[done], hi[done])
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        keep = ~done
        idx, ell, lo, hi = idx[keep], nxt[keep], lo[keep], hi[keep]
    if idx.size:
        raise ConvergenceError(
            f"Clairaut slope not found at {idx.size} heights after "
            f"{FMP_NEWTON_MAX_ITER} Newton steps")
    _, _, I2, _ = _clairaut_integrals(root, U, n)
    X = np.sqrt(-np.expm1(root)) * (target - I2) / (2.0 * tau)
    width = (f * X).reshape(radii.size, n)
    return math.pi * radii * np.sum(weights * np.sin(2.0 * theta) * width, axis=1)


def fmp_intrinsic_area(tau: float, radii) -> np.ndarray:
    """Exact areas of the intrinsic balls B_R about the origin of u = tau x y,
    the fmp_surface at theta = 0, for every radius in radii at once.

    The induced metric dy^2 + f(y)^2 dx^2, f = sqrt(1 + 4 tau^2 y^2), has
    curvature -4 tau^2 / f^4 < 0, so no geodesic from the origin has a cut
    point, and Clairaut's integral f^2 x' = c, with |c| <= 1 <= f, keeps y
    monotone along each.  The slice of B_R at height y is then
    |x| < X(c*, y), c* the slope whose geodesic reaches y at arclength R
    (``_clairaut_integrals``), and A(R) = 4 int_0^R f X(c*(y), y) dy.
    The y-integral runs by Gauss-Legendre in theta, y = R sin^2 theta,
    which is smooth at both ends; c* comes from safeguarded Newton steps in
    log(1 - c^2).  The node count doubles from FMP_AREA_BASE_N until two
    levels agree to FMP_AREA_TOL, relative; ConvergenceError, carrying the
    finest areas in ``best``, is raised if FMP_AREA_LEVELS do not.  Radii
    with tau R < FMP_SERIES_MAX take the expansion pi R^2 (1 + tau^2 R^2 / 3),
    which K(0) = -4 tau^2 gives.  Radii must be finite and >= 0.
    """
    shape = np.shape(radii)
    r = np.asarray(radii, dtype=float).ravel()
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError("radii must be finite and >= 0")
    big = tau * r >= FMP_SERIES_MAX
    areas = math.pi * r * r
    areas[~big] *= 1.0 + (tau * r[~big]) ** 2 / 3.0
    if not np.any(big):
        return areas.reshape(shape)
    n = FMP_AREA_BASE_N
    prev = None
    for _ in range(FMP_AREA_LEVELS):
        cur = _fmp_area_level(tau, r[big], n)
        if prev is not None and np.all(np.abs(cur - prev) <= FMP_AREA_TOL * cur):
            areas[big] = cur
            return areas.reshape(shape)
        prev = cur
        n *= 2
    raise ConvergenceError(
        f"fmp intrinsic areas not stable to {FMP_AREA_TOL} after "
        f"{FMP_AREA_LEVELS} node doublings", best=cur)


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
        rotational=True,
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
