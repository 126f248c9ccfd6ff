"""Vertical graphs over domains of M^2(kappa): Gu, W, H(u) and area bounds.

A graph surface is the section z = u(x, y) over a base domain.  Its
geometry is governed by the horizontal field Gu = grad(u) + Z, the area
element W = sqrt(1 + |Gu|^2) and the angle function nu = 1/W; the mean
curvature is the divergence-form operator H(u) = (1/2) div(Gu/W) computed
in the base metric.

Conventions: height callables are vectorized in the model coordinates,
u(x, y); gradients are coordinate partials (u_x, u_y); 2-vector fields
(Z, Gu, grad u) are returned in components along the orthonormal frame
(E1, E2), so Euclidean norms of those components are metric norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import QuadratureResult, integrate_annulus
from .core import BasePoint, SpaceParams
from .errors import HypothesisViolationError
from .geodesics import ball_height, base_disk_model_radius, hyperbolic_distance

__all__ = [
    "BoundaryArc",
    "BaseDomain",
    "GraphSurface",
    "GraphFields",
    "Lemma41Bound",
    "Lemma42Bound",
    "z_field",
    "graph_fields",
    "mean_curvature",
    "graph_area",
    "base_disk_area_weighted",
    "base_circle_length",
    "lemma41_bound",
    "lemma42_bound",
    "factorization_lhs",
    "factorization_identity_residual",
    "calabi_lee_check",
    "gradient_height_bounds",
]

GRAD_FD_STEP = 1e-6  # central-difference step for missing gradients
DIV_FD_STEP = 1e-4   # central-difference step for the divergence


@dataclass(frozen=True)
class BoundaryArc:
    """A parametrized boundary arc of a base domain.

    curve maps s in [0, 1] to (x, y) arrays; kind tags whether the graph
    takes finite or infinite boundary values along the arc.
    """

    curve: object
    kind: str = "finite"

    def __post_init__(self):
        if self.kind not in ("finite", "infinite"):
            raise ValueError("kind must be 'finite' or 'infinite'")


@dataclass(frozen=True)
class BaseDomain:
    """A domain of M^2(kappa) with membership test and boundary arcs.

    description is one of 'full-plane', 'disk', 'annulus', 'halfplane' or a
    free-form tag; 'disk' and 'annulus' carry radii in params for exact
    quadrature limits.
    """

    membership: object
    arcs: tuple = ()
    description: str = "full-plane"
    params: dict = field(default_factory=dict)

    @staticmethod
    def full_plane() -> "BaseDomain":
        return BaseDomain(lambda x, y: np.full(np.shape(x), True), (), "full-plane")

    @staticmethod
    def disk(R: float) -> "BaseDomain":
        def inside(x, y):
            return np.hypot(x, y) < R

        def rim(s):
            ang = 2.0 * math.pi * np.asarray(s)
            return R * np.cos(ang), R * np.sin(ang)

        return BaseDomain(inside, (BoundaryArc(rim),), "disk", {"R": R})

    @staticmethod
    def annulus(r_in: float, r_out: float) -> "BaseDomain":
        if not (0.0 < r_in < r_out):
            raise ValueError("need 0 < r_in < r_out")

        def inside(x, y):
            r = np.hypot(x, y)
            return (r > r_in) & (r < r_out)

        def inner(s):
            ang = 2.0 * math.pi * np.asarray(s)
            return r_in * np.cos(ang), r_in * np.sin(ang)

        def outer(s):
            ang = 2.0 * math.pi * np.asarray(s)
            return r_out * np.cos(ang), r_out * np.sin(ang)

        return BaseDomain(
            inside,
            (BoundaryArc(inner), BoundaryArc(outer)),
            "annulus",
            {"r_in": r_in, "r_out": r_out},
        )


@dataclass(frozen=True)
class GraphSurface:
    """The graph z = u(x, y) over a base domain of E(kappa, tau)."""

    sp: SpaceParams
    domain: BaseDomain
    u: object
    grad_u: object = None
    hess_u: object = None

    def grad(self, x, y):
        """Coordinate partials (u_x, u_y), analytic or central differences."""
        if self.grad_u is not None:
            return self.grad_u(x, y)
        h = GRAD_FD_STEP
        ux = (self.u(x + h, y) - self.u(x - h, y)) / (2.0 * h)
        uy = (self.u(x, y + h) - self.u(x, y - h)) / (2.0 * h)
        return ux, uy


@dataclass(frozen=True)
class GraphFields:
    """Pointwise first-order graph data in frame components."""

    Z: np.ndarray
    Gu: np.ndarray
    W: float
    nu: float


def z_field(sp: SpaceParams, p: BasePoint) -> np.ndarray:
    """Frame components (tau*y, -tau*x) of Z at p; |Z| = tau*sqrt(x^2+y^2)."""
    return np.array([sp.tau * p.y, -sp.tau * p.x])


def _gu_components(sp: SpaceParams, x, y, ux, uy):
    """Frame components of Gu = grad(u) + Z from coordinate partials."""
    mu = 1.0 + 0.25 * sp.kappa * (x * x + y * y)
    return ux * mu + sp.tau * y, uy * mu - sp.tau * x


def graph_fields(g: GraphSurface, p: BasePoint) -> GraphFields:
    """Z, Gu, W and the angle function nu of the graph at p."""
    ux, uy = g.grad(p.x, p.y)
    g1, g2 = _gu_components(g.sp, p.x, p.y, ux, uy)
    W = math.sqrt(1.0 + g1 * g1 + g2 * g2)
    return GraphFields(z_field(g.sp, p), np.array([g1, g2]), W, 1.0 / W)


def _gu_derivatives(sp, x, y, ux, uy, uxx, uxy, uyy):
    """Coordinate partials of the frame components (Gu1, Gu2)."""
    mu = 1.0 + 0.25 * sp.kappa * (x * x + y * y)
    kx, ky = 0.5 * sp.kappa * x, 0.5 * sp.kappa * y
    d1x = uxx * mu + ux * kx
    d1y = uxy * mu + ux * ky + sp.tau
    d2x = uxy * mu + uy * kx - sp.tau
    d2y = uyy * mu + uy * ky
    return d1x, d1y, d2x, d2y


def mean_curvature(g: GraphSurface, p: BasePoint, step: float = DIV_FD_STEP):
    """H(u)(p) = (1/2) div(Gu/W) in the base metric of M^2(kappa).

    The divergence of a field with frame components (v1, v2) is
    lambda^{-2} (d_x(lambda v1) + d_y(lambda v2)).  With analytic second
    derivatives the divergence is exact; otherwise the two outer partials
    are central differences with the given step.
    """
    sp = g.sp
    x, y = np.asarray(p.x, dtype=float), np.asarray(p.y, dtype=float)
    mu = 1.0 + 0.25 * sp.kappa * (x * x + y * y)
    lam = 1.0 / mu
    if g.hess_u is not None and g.grad_u is not None:
        ux, uy = g.grad_u(x, y)
        uxx, uxy, uyy = g.hess_u(x, y)
        g1, g2 = _gu_components(sp, x, y, ux, uy)
        W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        d1x, d1y, d2x, d2y = _gu_derivatives(sp, x, y, ux, uy, uxx, uxy, uyy)
        Wx = (g1 * d1x + g2 * d2x) / W
        Wy = (g1 * d1y + g2 * d2y) / W
        v1x = (d1x * W - g1 * Wx) / (W * W)
        v2y = (d2y * W - g2 * Wy) / (W * W)
        lam_x = -(lam * lam) * 0.5 * sp.kappa * x
        lam_y = -(lam * lam) * 0.5 * sp.kappa * y
        div = mu * mu * (lam_x * g1 / W + lam * v1x + lam_y * g2 / W + lam * v2y)
        out = 0.5 * div
        return float(out) if out.ndim == 0 else out

    def lam_v(xs, ys):
        uxs, uys = g.grad(xs, ys)
        g1, g2 = _gu_components(sp, xs, ys, uxs, uys)
        W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        lams = 1.0 / (1.0 + 0.25 * sp.kappa * (xs * xs + ys * ys))
        return lams * g1 / W, lams * g2 / W

    h = step
    v1p, _ = lam_v(x + h, y)
    v1m, _ = lam_v(x - h, y)
    _, v2p = lam_v(x, y + h)
    _, v2m = lam_v(x, y - h)
    div = mu * mu * ((v1p - v1m) + (v2p - v2m)) / (2.0 * h)
    out = 0.5 * div
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Areas and the Lemma functionals
# ---------------------------------------------------------------------------

def _area_density(g: GraphSurface, mask_fn=None):
    """Vectorized integrand W * lambda^2 (graph area per model dx dy)."""
    sp = g.sp

    def f(x, y):
        ux, uy = g.grad(x, y)
        g1, g2 = _gu_components(sp, x, y, ux, uy)
        W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        lam = 1.0 / (1.0 + 0.25 * sp.kappa * (x * x + y * y))
        out = W * lam * lam
        if mask_fn is not None:
            out = np.where(mask_fn(x, y), out, 0.0)
        return out

    return f


def _quad_limits(g: GraphSurface, r_outer: float):
    """(r_in, r_out) radial quadrature limits for the domain cut at r_outer."""
    d = g.domain
    if d.description == "annulus":
        r_in = d.params["r_in"]
        r_out = min(d.params["r_out"], r_outer)
        if r_out <= r_in:
            raise ValueError("region does not meet the domain")
        return r_in, r_out
    if d.description == "disk":
        return 0.0, min(d.params["R"], r_outer)
    return 0.0, r_outer


def graph_area(g: GraphSurface, r_outer: float, rel_tol: float = 1e-6,
               mask_fn=None) -> QuadratureResult:
    """Area of the graph over its domain cut to the model disk r <= r_outer.

    Disk and annulus domains use exact radial limits; other domains mask
    the integrand with the membership test (accuracy then limited by the
    indicator).  An extra mask_fn restricts the region further.
    """
    r0, r1 = _quad_limits(g, r_outer)
    full_mask = mask_fn
    if g.domain.description not in ("disk", "annulus", "full-plane"):
        member = g.domain.membership
        if mask_fn is None:
            full_mask = member
        else:
            full_mask = lambda x, y: member(x, y) & mask_fn(x, y)
    return integrate_annulus(_area_density(g, full_mask), r0, r1, rel_tol=rel_tol)


def base_circle_length(sp: SpaceParams, R: float) -> float:
    """Length of the base circle of intrinsic radius R in M^2(kappa)."""
    if sp.kappa == 0.0:
        return 2.0 * math.pi * R
    sk = math.sqrt(-sp.kappa)
    return (2.0 * math.pi / sk) * math.sinh(sk * R)


def base_disk_area_weighted(g: GraphSurface, R: float, with_z: bool,
                            rel_tol: float = 1e-6) -> float:
    """integral over Omega(R) of 1 (base area) or of |Z|, in the base metric."""
    sp = g.sp
    re = base_disk_model_radius(sp, R)
    r0, r1 = _quad_limits(g, re)

    def f(x, y):
        lam = 1.0 / (1.0 + 0.25 * sp.kappa * (x * x + y * y))
        out = lam * lam
        if with_z:
            out = out * sp.tau * np.hypot(x, y)
        return out

    return integrate_annulus(f, r0, r1, rel_tol=rel_tol).value


def _arc_samples(arc: BoundaryArc, n: int = 4096):
    s = np.linspace(0.0, 1.0, n)
    x, y = arc.curve(s)
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _arc_length_inside(sp: SpaceParams, arc: BoundaryArc, model_r: float,
                       weight=None) -> float:
    """Metric length of the arc clipped to the model disk r <= model_r.

    weight, if given, is a pointwise factor (e.g. |u|) evaluated at the
    segment midpoints, turning the length into a line integral.
    """
    x, y = _arc_samples(arc)
    xm, ym = 0.5 * (x[:-1] + x[1:]), 0.5 * (y[:-1] + y[1:])
    lam = 1.0 / (1.0 + 0.25 * sp.kappa * (xm * xm + ym * ym))
    seg = lam * np.hypot(np.diff(x), np.diff(y))
    inside = np.hypot(xm, ym) <= model_r + 1e-12
    if weight is not None:
        seg = seg * weight(xm, ym)
    return float(np.sum(seg[inside]))


def _theta_length(g: GraphSurface, R: float) -> float:
    """Length of the part of the circle of intrinsic radius R inside Omega."""
    sp = g.sp
    re = base_disk_model_radius(sp, R)
    d = g.domain
    if d.description == "full-plane":
        frac = 1.0
    elif d.description == "disk":
        frac = 1.0 if re <= d.params["R"] else 0.0
    elif d.description == "annulus":
        frac = 1.0 if d.params["r_in"] < re <= d.params["r_out"] else 0.0
    else:
        ang = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        frac = float(np.mean(d.membership(re * np.cos(ang), re * np.sin(ang))))
    return frac * base_circle_length(sp, R)


@dataclass(frozen=True)
class Lemma41Bound:
    """area(Omega(R)) + int |Z| + h(R) len(Theta u Lambda) + int_Gamma |u|."""

    area_term: float
    z_term: float
    height_term: float
    boundary_value_term: float

    @property
    def total(self) -> float:
        return self.area_term + self.z_term + self.height_term + self.boundary_value_term


@dataclass(frozen=True)
class Lemma42Bound:
    """int over Omega(R) of (1 + |Z|) + h(R) len(boundary of Omega(R))."""

    interior_term: float
    height_term: float

    @property
    def total(self) -> float:
        return self.interior_term + self.height_term


def lemma41_bound(g: GraphSurface, R: float, h=None) -> Lemma41Bound:
    """Upper bound on area(Sigma meet B_R) for graphs with controlled boundary.

    The boundary of Omega(R) splits into the circle part Theta(R), the
    infinite-value arcs Lambda(R) (both weighted by the cylinder height
    h(R)) and the finite-value arcs Gamma(R) (weighted by |u|).
    """
    sp = g.sp
    hR = h(R) if callable(h) else (h if h is not None else ball_height(sp, R))
    re = base_disk_model_radius(sp, R)
    area = base_disk_area_weighted(g, R, with_z=False)
    z_int = base_disk_area_weighted(g, R, with_z=True)
    length = _theta_length(g, R)
    gamma_int = 0.0
    for arc in g.domain.arcs:
        if arc.kind == "infinite":
            length += _arc_length_inside(sp, arc, re)
        else:
            gamma_int += _arc_length_inside(
                sp, arc, re, weight=lambda x, y: np.abs(g.u(x, y))
            )
    return Lemma41Bound(area, z_int, hR * length, gamma_int)


def lemma42_bound(g: GraphSurface, R: float, h=None) -> Lemma42Bound:
    """Coarser area bound using the full boundary length of Omega(R)."""
    sp = g.sp
    hR = h(R) if callable(h) else (h if h is not None else ball_height(sp, R))
    re = base_disk_model_radius(sp, R)
    interior = base_disk_area_weighted(g, R, with_z=False) + base_disk_area_weighted(
        g, R, with_z=True
    )
    length = _theta_length(g, R)
    for arc in g.domain.arcs:
        length += _arc_length_inside(sp, arc, re)
    return Lemma42Bound(interior, hR * length)


# ---------------------------------------------------------------------------
# Pointwise identities
# ---------------------------------------------------------------------------

def _fields_from_grad(sp: SpaceParams, p: BasePoint, grad):
    g1, g2 = _gu_components(sp, p.x, p.y, grad[0], grad[1])
    W = math.sqrt(1.0 + g1 * g1 + g2 * g2)
    return np.array([g1, g2]), W


def factorization_lhs(sp: SpaceParams, p: BasePoint, grad_u, grad_v) -> float:
    """<Gu/Wu - Gv/Wv, Gu - Gv> at p; nonnegative for all gradient pairs."""
    gu, wu = _fields_from_grad(sp, p, grad_u)
    gv, wv = _fields_from_grad(sp, p, grad_v)
    return float(np.dot(gu / wu - gv / wv, gu - gv))


def factorization_identity_residual(sp: SpaceParams, p: BasePoint,
                                    grad_u, grad_v) -> float:
    """|LHS - (1/2)(Wu + Wv) |Nu - Nv|^2| with N_w = (-Gw, 1)/W_w."""
    gu, wu = _fields_from_grad(sp, p, grad_u)
    gv, wv = _fields_from_grad(sp, p, grad_v)
    lhs = float(np.dot(gu / wu - gv / wv, gu - gv))
    nu = np.array([-gu[0] / wu, -gu[1] / wu, 1.0 / wu])
    nv = np.array([-gv[0] / wv, -gv[1] / wv, 1.0 / wv])
    rhs = 0.5 * (wu + wv) * float(np.dot(nu - nv, nu - nv))
    return abs(lhs - rhs)


def calabi_lee_check(g: GraphSurface, grad_v, points) -> np.ndarray:
    """Residuals |(1 - |grad v|^2)(1 + |Gu|^2) - 1| at the given base points.

    grad_v(x, y) returns the coordinate partials of the conjugate potential;
    v must be spacelike, |grad v| < 1 everywhere on the sample.
    """
    if not g.sp.is_nil:
        raise HypothesisViolationError("the correspondence check is for Nil3")
    res = []
    for p in points:
        vx, vy = grad_v(p.x, p.y)
        nv2 = float(vx) ** 2 + float(vy) ** 2
        if nv2 >= 1.0:
            raise HypothesisViolationError(f"|grad v| >= 1 at {p} (not spacelike)")
        ux, uy = g.grad(p.x, p.y)
        g1, g2 = _gu_components(g.sp, p.x, p.y, ux, uy)
        res.append(abs((1.0 - nv2) * (1.0 + g1 * g1 + g2 * g2) - 1.0))
    return np.array(res)


def gradient_height_bounds(g: GraphSurface, radii, n_theta: int = 64):
    """Smallest empirical (B, C) with |Gu| <= B(1+r^2), |u| <= C(1+r^2)^{3/2}.

    Sampled on circles of the given radii (entire graphs only); the
    constants certify nothing beyond the sample.
    """
    sp = g.sp
    B = 0.0
    C = 0.0
    ang = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    for r in radii:
        x, y = r * np.cos(ang), r * np.sin(ang)
        ux, uy = g.grad(x, y)
        g1, g2 = _gu_components(sp, x, y, ux, uy)
        gu = np.sqrt(g1 * g1 + g2 * g2)
        if sp.kappa == 0.0:
            rr = r
        else:
            rr = hyperbolic_distance(sp.kappa, BasePoint(0.0, 0.0), BasePoint(r, 0.0))
        B = max(B, float(np.max(gu)) / (1.0 + rr * rr))
        C = max(C, float(np.max(np.abs(g.u(x, y)))) / (1.0 + rr * rr) ** 1.5)
    return B, C
