"""Vertical graphs over domains of M^2(kappa): Gu, W, H(u) and area bounds.

A graph surface is the section z = u(x, y) over a base domain.  Its
geometry is governed by the horizontal field Gu = grad(u) + Z, the area
element W = sqrt(1 + |Gu|^2) and the angle function nu = 1/W; the mean
curvature is the divergence-form operator H(u) = (1/2) div(Gu/W) computed
in the base metric.

The base domain is one typed value, BaseDomain: the model annulus
r_in < r < r_out (a disk for r_in = 0, the whole plane for r_out = inf)
and an optional vectorized cut.  Areas, the Lemma 4.1/4.2 terms and the
boundary-circle lengths take their radial limits from the radii and mask
their integrands with the cut.

Conventions: height callables are vectorized in the model coordinates,
u(x, y); gradients are coordinate partials (u_x, u_y); 2-vector fields
(Z, Gu, grad u) are returned in components along the orthonormal frame
(E1, E2), so Euclidean norms of those components are metric norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import QuadratureResult, integrate_annulus
from .core import (BasePoint, SpaceParams, _mu, base_circle_length,
                   base_disk_model_radius, base_intrinsic_radius)
from .errors import HypothesisViolationError
from .geodesics import ball_height

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
    "lemma41_bound",
    "lemma42_bound",
    "factorization_lhs",
    "factorization_identity_residual",
    "calabi_lee_check",
    "gradient_height_bounds",
]

GRAD_FD_STEP = 1e-6  # central-difference step for missing gradients
DIV_FD_STEP = 1e-4   # central-difference step for the divergence
BOUNDS_N_THETA = 64  # angles per circle of gradient_height_bounds


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
    """The part of the model annulus r_in < r < r_out that ``cut`` keeps.

    cut(x, y) is an optional vectorized membership test on top of the
    radii; None keeps the whole annulus.  r_in = 0 means no inner hole (the
    origin belongs to the domain) and r_out = inf no outer circle.  Every
    integral and grid over Omega(R) reads the radii as limits and the cut
    as a mask, so a domain cannot be mistaken for the whole plane.
    """

    cut: object = None
    arcs: tuple = ()
    r_in: float = 0.0
    r_out: float = math.inf

    def membership(self, x, y):
        """Whether (x, y) lies in the domain: the radii test, then the cut."""
        r = np.hypot(x, y)
        inside = (r < self.r_out) & ((r > self.r_in) | (self.r_in == 0.0))
        return inside if self.cut is None else inside & self.cut(x, y)

    def masked(self, f):
        """f, zeroed wherever the cut rejects the point (f itself without a cut)."""
        if self.cut is None:
            return f
        return lambda x, y: np.where(self.cut(x, y), f(x, y), 0.0)

    @staticmethod
    def full_plane() -> "BaseDomain":
        return BaseDomain()

    @staticmethod
    def disk(R: float) -> "BaseDomain":
        return BaseDomain(arcs=(_circle_arc(R),), r_out=R)

    @staticmethod
    def annulus(r_in: float, r_out: float) -> "BaseDomain":
        """The annulus r_in < r < r_out; r_out = inf leaves only the inner arc."""
        if not (0.0 < r_in < r_out):
            raise ValueError("need 0 < r_in < r_out")
        arcs = (_circle_arc(r_in),)
        if r_out < math.inf:
            arcs += (_circle_arc(r_out),)
        return BaseDomain(arcs=arcs, r_in=r_in, r_out=r_out)


def _circle_arc(r: float) -> BoundaryArc:
    """The circle of model radius r as a finite-value boundary arc."""
    def curve(s):
        ang = 2.0 * math.pi * np.asarray(s)
        return r * np.cos(ang), r * np.sin(ang)

    return BoundaryArc(curve)


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
    """Frame components (Gu1, Gu2) of Gu = grad(u) + Z from coordinate
    partials, and mu at (x, y) (ModelDomainError outside the model disk)."""
    mu = _mu(sp, x, y)
    return ux * mu + sp.tau * y, uy * mu - sp.tau * x, mu


def _fields_from_grad(sp: SpaceParams, p: BasePoint, grad):
    g1, g2, _ = _gu_components(sp, p.x, p.y, grad[0], grad[1])
    W = math.sqrt(1.0 + g1 * g1 + g2 * g2)
    return np.array([g1, g2]), W


def graph_fields(g: GraphSurface, p: BasePoint) -> GraphFields:
    """Z, Gu, W and the angle function nu of the graph at p."""
    Gu, W = _fields_from_grad(g.sp, p, g.grad(p.x, p.y))
    return GraphFields(z_field(g.sp, p), Gu, W, 1.0 / W)


def _gu_derivatives(sp, mu, x, y, ux, uy, uxx, uxy, uyy):
    """Coordinate partials of the frame components (Gu1, Gu2); mu at (x, y)."""
    kx, ky = 0.5 * sp.kappa * x, 0.5 * sp.kappa * y
    d1x = uxx * mu + ux * kx
    d1y = uxy * mu + ux * ky + sp.tau
    d2x = uxy * mu + uy * kx - sp.tau
    d2y = uyy * mu + uy * ky
    return d1x, d1y, d2x, d2y


def mean_curvature(g: GraphSurface, p: BasePoint):
    """H(u)(p) = (1/2) div(Gu/W) in the base metric of M^2(kappa).

    The divergence of a field with frame components (v1, v2) is
    lambda^{-2} (d_x(lambda v1) + d_y(lambda v2)), which is
    mu (d_x v1 + d_y v2) - (kappa/2)(x v1 + y v2).  With analytic second
    derivatives the divergence is exact; otherwise the two outer partials
    are central differences with step DIV_FD_STEP.
    """
    sp = g.sp
    x, y = np.asarray(p.x, dtype=float), np.asarray(p.y, dtype=float)
    if g.hess_u is not None and g.grad_u is not None:
        ux, uy = g.grad_u(x, y)
        uxx, uxy, uyy = g.hess_u(x, y)
        g1, g2, mu = _gu_components(sp, x, y, ux, uy)
        W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        d1x, d1y, d2x, d2y = _gu_derivatives(sp, mu, x, y, ux, uy, uxx, uxy, uyy)
        Wx = (g1 * d1x + g2 * d2x) / W
        Wy = (g1 * d1y + g2 * d2y) / W
        v1x = (d1x * W - g1 * Wx) / (W * W)
        v2y = (d2y * W - g2 * Wy) / (W * W)
        div = mu * (v1x + v2y) - 0.5 * sp.kappa * (x * g1 + y * g2) / W
    else:
        def lam_v(xs, ys):
            uxs, uys = g.grad(xs, ys)
            g1, g2, mus = _gu_components(sp, xs, ys, uxs, uys)
            W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
            lams = 1.0 / mus
            return lams * g1 / W, lams * g2 / W

        mu = _mu(sp, x, y)
        h = DIV_FD_STEP
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

def _area_density(g: GraphSurface):
    """Vectorized integrand W * lambda^2 (graph area per model dx dy), masked
    by the domain's cut."""
    sp = g.sp

    def f(x, y):
        ux, uy = g.grad(x, y)
        g1, g2, mu = _gu_components(sp, x, y, ux, uy)
        W = np.sqrt(1.0 + g1 * g1 + g2 * g2)
        lam = 1.0 / mu
        return W * lam * lam

    return g.domain.masked(f)


def _quad_limits(g: GraphSurface, r_outer: float):
    """(r_in, r_out) radial quadrature limits for the domain cut at r_outer;
    r_out <= r_in when the disk r <= r_outer misses the domain."""
    return g.domain.r_in, min(g.domain.r_out, r_outer)


def graph_area(g: GraphSurface, r_outer: float) -> QuadratureResult:
    """Area of the graph over its domain cut to the model disk r <= r_outer.

    The domain's radii are the radial limits and its cut masks the
    integrand (accuracy then limited by the indicator).  A disk that misses
    the domain (r_outer <= r_in) has area 0, with no quadrature level.
    """
    r0, r1 = _quad_limits(g, r_outer)
    if r1 <= r0:
        return QuadratureResult(0.0, 0.0, 0)
    return integrate_annulus(_area_density(g), r0, r1)


def base_disk_area_weighted(g: GraphSurface, R: float, with_z: bool) -> float:
    """integral over Omega(R) of 1 (base area) or of |Z|, in the base metric;
    0 when Omega(R) is empty."""
    sp = g.sp
    re = base_disk_model_radius(sp, R)
    r0, r1 = _quad_limits(g, re)
    if r1 <= r0:
        return 0.0

    def f(x, y):
        lam = 1.0 / _mu(sp, x, y)
        out = lam * lam
        if with_z:
            out = out * sp.tau * np.hypot(x, y)
        return out

    return integrate_annulus(g.domain.masked(f), r0, r1).value


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
    lam = 1.0 / _mu(sp, xm, ym)
    seg = lam * np.hypot(np.diff(x), np.diff(y))
    inside = np.hypot(xm, ym) <= model_r + 1e-12
    if weight is not None:
        seg = seg * weight(xm, ym)
    return float(np.sum(seg[inside]))


def _theta_length(g: GraphSurface, R: float) -> float:
    """Length of the part of the circle of intrinsic radius R inside Omega:
    the radii decide whether the circle meets Omega at all, and the fraction
    of midpoint angles the cut keeps scales it."""
    sp = g.sp
    re = base_disk_model_radius(sp, R)
    d = g.domain
    frac = 1.0 if d.r_in < re <= d.r_out else 0.0
    if frac and d.cut is not None:
        ang = (np.arange(4096) + 0.5) * (2.0 * math.pi / 4096)
        frac = float(np.mean(d.cut(re * np.cos(ang), re * np.sin(ang))))
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


def _lemma_terms(g: GraphSurface, R: float, h):
    """The terms of both Lemma bounds: h(R) (ball_height unless given), the
    area and |Z| integrals over Omega(R), the length of Theta(R), and each
    boundary arc with its length inside D_R."""
    sp = g.sp
    re = base_disk_model_radius(sp, R)
    arcs = [(arc, _arc_length_inside(sp, arc, re)) for arc in g.domain.arcs]
    return (ball_height(sp, R) if h is None else h,
            base_disk_area_weighted(g, R, with_z=False),
            base_disk_area_weighted(g, R, with_z=True),
            _theta_length(g, R), arcs)


def lemma41_bound(g: GraphSurface, R: float, h: float | None = None) -> Lemma41Bound:
    """Upper bound on area(Sigma meet B_R) for graphs with controlled boundary.

    The boundary of Omega(R) splits into the circle part Theta(R), the
    infinite-value arcs Lambda(R) (both weighted by the cylinder height
    h(R)) and the finite-value arcs Gamma(R) (weighted by |u|).
    """
    hR, area, z_int, length, arcs = _lemma_terms(g, R, h)
    re = base_disk_model_radius(g.sp, R)
    gamma_int = 0.0
    for arc, arc_length in arcs:
        if arc.kind == "infinite":
            length += arc_length
        else:
            gamma_int += _arc_length_inside(
                g.sp, arc, re, weight=lambda x, y: np.abs(g.u(x, y))
            )
    return Lemma41Bound(area, z_int, hR * length, gamma_int)


def lemma42_bound(g: GraphSurface, R: float, h: float | None = None) -> Lemma42Bound:
    """Coarser area bound using the full boundary length of Omega(R)."""
    hR, area, z_int, length, arcs = _lemma_terms(g, R, h)
    for _, arc_length in arcs:
        length += arc_length
    return Lemma42Bound(area + z_int, hR * length)


# ---------------------------------------------------------------------------
# Pointwise identities
# ---------------------------------------------------------------------------

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
        g1, g2, _ = _gu_components(g.sp, p.x, p.y, ux, uy)
        res.append(abs((1.0 - nv2) * (1.0 + g1 * g1 + g2 * g2) - 1.0))
    return np.array(res)


def gradient_height_bounds(g: GraphSurface, radii):
    """Smallest empirical (B, C) with |Gu| <= B(1+r^2), |u| <= C(1+r^2)^{3/2}.

    Sampled at BOUNDS_N_THETA angles on circles of the given radii (entire
    graphs only); the constants certify nothing beyond the sample.
    """
    sp = g.sp
    B = 0.0
    C = 0.0
    ang = np.linspace(0.0, 2.0 * math.pi, BOUNDS_N_THETA, endpoint=False)
    for r in radii:
        x, y = r * np.cos(ang), r * np.sin(ang)
        ux, uy = g.grad(x, y)
        g1, g2, _ = _gu_components(sp, x, y, ux, uy)
        gu = np.sqrt(g1 * g1 + g2 * g2)
        rr = base_intrinsic_radius(sp, r)
        B = max(B, float(np.max(gu)) / (1.0 + rr * rr))
        C = max(C, float(np.max(np.abs(g.u(x, y)))) / (1.0 + rr * rr) ** 1.5)
    return B, C
