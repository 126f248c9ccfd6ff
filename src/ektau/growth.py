"""Area-growth measurement: region areas, growth fits, verdicts and sweeps.

Areas of the intersection of a graph surface with three region families
(solid cylinders, ambient geodesic balls, surface geodesic balls) are
measured at finite radii and fitted against power or exponential growth
models.  All verdicts are finite-radius checks standing in for asymptotic
statements and say so via their tolerances, never certifying a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from ._quadrature import leggauss
from .core import SpaceParams
from .errors import ConvergenceError, HypothesisViolationError
from .balls import GrowthFit, ball_membership, volume_growth_fit
from .geodesics import base_disk_model_radius
from .graphs import GraphSurface, _area_density, _gu_components, _quad_limits, graph_area
from .surfaces import ExampleSurface, catenoid, fmp_surface, umbrella, affine_plane

__all__ = [
    "RegionFamily",
    "GrowthReport",
    "region_area",
    "intrinsic_area_table",
    "growth_verdict",
    "fit_with_stderr",
    "calibration_check",
    "collin_krust_sweep",
    "table1_suite",
]

INTRINSIC_BASE_N = 121          # starting grid resolution for surface Dijkstra
INTRINSIC_STABILITY = 0.01      # relative per-radius stability target
VERDICT_EXACT_TOL = 0.4         # power-exponent window for "exactly" claims
VERDICT_RATE_TOL = 0.10         # relative window for exponential rates
VERDICT_RESIDUAL_MAX = 0.2      # rms log-residual beyond which fits are inconclusive

# family names of the CLI and the table rows, and the region-family tags they select
FAMILY_TAGS = {"extrinsic": "extrinsic_ball", "intrinsic": "intrinsic_ball",
               "cylinder": "cylinder"}


@dataclass(frozen=True)
class RegionFamily:
    """One of the three region families cut against the surface."""

    tag: str

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS.values():
            raise ValueError(f"unknown family tag {self.tag!r}")


@dataclass(frozen=True)
class GrowthReport:
    """Measured areas, fitted model and verdict for one Table-style row."""

    surface: str
    family: str
    samples: tuple
    fit: GrowthFit
    expected: dict
    verdict: str


# ---------------------------------------------------------------------------
# Region areas
# ---------------------------------------------------------------------------

def _graph(g) -> GraphSurface:
    return g.graph if isinstance(g, ExampleSurface) else g


def _ray_stop(member, theta, r_lo, r_hi, n_bisect: int = 48):
    """Per-angle outer radius of {member} along rays, by vectorized bisection.

    Assumes the region cut by each ray is an interval starting at r_lo
    (valid for the star-shaped regions the examples produce).
    """
    lo = np.full_like(theta, r_lo)
    hi = np.full_like(theta, r_hi)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    inside_hi = member(r_hi * cos_t, r_hi * sin_t)
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        inside = member(mid * cos_t, mid * sin_t)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.where(inside_hi, r_hi, lo)


def _extrinsic_area(g: GraphSurface, R: float, n_theta: int = 256,
                    n_r: int = 96) -> float:
    """Area of the graph inside B_R(0) by per-ray radial quadrature."""
    member = lambda x, y: ball_membership(g.sp, np.hypot(x, y), g.u(x, y), R)
    re = base_disk_model_radius(g.sp, R)
    r_lo, r_cap = _quad_limits(g, re)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    eps = r_lo + 1e-9 * max(r_cap, 1.0)
    on_ray = member(eps * np.cos(theta), eps * np.sin(theta))
    stop = np.where(on_ray, _ray_stop(member, theta, eps, r_cap), eps)
    nodes, weights = leggauss(n_r)
    half = 0.5 * (stop - eps)
    r = eps + half[:, None] * (nodes + 1.0)
    w = half[:, None] * weights
    dens = _area_density(g)(r * np.cos(theta)[:, None], r * np.sin(theta)[:, None])
    return float(np.sum(w * dens * r) * (2.0 * math.pi / n_theta))


def _induced_metric(g: GraphSurface, x, y):
    """First-fundamental-form coefficients (E, F, G) in model coordinates."""
    sp = g.sp
    ux, uy = g.grad(x, y)
    g1, g2 = _gu_components(sp, x, y, ux, uy)
    lam2 = (1.0 / (1.0 + 0.25 * sp.kappa * (x * x + y * y))) ** 2
    return lam2 * (1.0 + g1 * g1), lam2 * g1 * g2, lam2 * (1.0 + g2 * g2)


_STENCIL = [
    (1, 0), (0, 1), (1, 1), (1, -1),
    (2, 1), (2, -1), (1, 2), (-1, 2),
    (3, 1), (3, -1), (1, 3), (-1, 3),
    (3, 2), (3, -2), (2, 3), (-2, 3),
]


def _intrinsic_distances(g: GraphSurface, L: float, n: int):
    """Surface distance field from the point over the origin, on an n x n grid.

    16-connected Dijkstra with first-fundamental-form edge lengths; returns
    (distance field, area weight field, cell area).
    """
    xs = np.linspace(-L, L, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    E, F, G = _induced_metric(g, X, Y)

    rows, cols, lens = [], [], []
    idx = np.arange(n * n).reshape(n, n)
    for di, dj in _STENCIL:
        si = slice(max(di, 0), n + min(di, 0))
        sj = slice(max(dj, 0), n + min(dj, 0))
        ti = slice(max(-di, 0), n + min(-di, 0))
        tj = slice(max(-dj, 0), n + min(-dj, 0))
        dx, dy = di * h, dj * h
        q_src = E[si, sj] * dx * dx + 2 * F[si, sj] * dx * dy + G[si, sj] * dy * dy
        q_dst = E[ti, tj] * dx * dx + 2 * F[ti, tj] * dx * dy + G[ti, tj] * dy * dy
        seg = 0.5 * (np.sqrt(q_src) + np.sqrt(q_dst))
        rows.append(idx[si, sj].ravel())
        cols.append(idx[ti, tj].ravel())
        lens.append(seg.ravel())
    graph_m = coo_matrix(
        (np.concatenate(lens), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    )
    source = idx[n // 2, n // 2]
    dist = dijkstra(graph_m.tocsr(), directed=False, indices=source).reshape(n, n)
    area_w = np.sqrt(np.maximum(E * G - F * F, 0.0))
    return dist, area_w, h * h


def intrinsic_area_table(g: GraphSurface, radii, n0: int = INTRINSIC_BASE_N,
                         stability: float = INTRINSIC_STABILITY):
    """Areas of the surface geodesic balls B_R for all radii at once.

    The Dijkstra distance field is refined (grid doubling) until every
    radius is stable to the requested relative tolerance; ConvergenceError,
    carrying the finest areas in ``best``, is raised if four levels do not
    reach it.
    """
    radii = np.asarray(radii, dtype=float)
    L = base_disk_model_radius(g.sp, float(np.max(radii)))
    n = n0
    prev = None
    for _ in range(4):
        dist, area_w, cell = _intrinsic_distances(g, L, n)
        areas = np.array([float(np.sum(area_w[dist <= R]) * cell) for R in radii])
        if prev is not None and np.all(
            np.abs(areas - prev) <= stability * np.maximum(areas, 1e-300)
        ):
            return areas
        prev = areas
        n = 2 * n - 1
    raise ConvergenceError(
        f"intrinsic areas not stable to {stability} after 4 grid levels", best=areas
    )


def region_area(g, fam: RegionFamily, R: float) -> float:
    """Area of the surface piece cut by the family's region of size R.

    ExampleSurface inputs use their structural flags (umbrellas intersect
    B_R exactly in the graph over D_R, so all families agree there).
    """
    flags = g.flags if isinstance(g, ExampleSurface) else {}
    gg = _graph(g)
    if fam.tag == "cylinder" or flags.get("extrinsic_equals_base_disk"):
        re = base_disk_model_radius(gg.sp, R)
        return graph_area(gg, re).value
    if fam.tag == "extrinsic_ball":
        return _extrinsic_area(gg, R)
    return float(intrinsic_area_table(gg, [R])[0])


# ---------------------------------------------------------------------------
# Fits and verdicts
# ---------------------------------------------------------------------------

def fit_with_stderr(radii, values, model: str):
    """(slope, stderr, rms residual) of log v against log R or R."""
    radii = np.asarray(radii, dtype=float)
    x = np.log(radii) if model == "power" else radii
    y = np.log(np.asarray(values, dtype=float))
    coef, cov = np.polyfit(x, y, 1, cov=True)
    resid = y - np.polyval(coef, x)
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0))), rms


def growth_verdict(radii, areas, expected: dict) -> tuple[str, GrowthFit]:
    """Compare measured growth against an expected model.

    expected = {'model': 'power'|'exponential', 'value': order or rate,
    'comparison': 'exact'|'at_most'|'at_least'}.  Verdicts are
    'consistent', 'violated' or 'inconclusive' (noisy fit).  One-sided
    comparisons combine the 2-sigma fit interval with the exponent window,
    absorbing the finite-radius bias of asymptotic statements.
    """
    fit = volume_growth_fit(radii, areas)
    model = expected["model"]
    slope, se, rms = fit_with_stderr(radii, areas, model)
    if rms > VERDICT_RESIDUAL_MAX:
        return "inconclusive", fit
    target = expected["value"]
    cmp = expected.get("comparison", "exact")
    if model == "exponential":
        ok = abs(slope - target) <= VERDICT_RATE_TOL * abs(target)
    elif cmp == "exact":
        ok = abs(slope - target) <= VERDICT_EXACT_TOL
    elif cmp == "at_most":
        ok = slope - 2.0 * se <= target + VERDICT_EXACT_TOL
    else:  # at_least
        ok = slope + 2.0 * se >= target - VERDICT_EXACT_TOL
    return ("consistent" if ok else "violated"), fit


# ---------------------------------------------------------------------------
# Calibration and Collin-Krust
# ---------------------------------------------------------------------------

def calibration_check(g: GraphSurface, n_grid: int = 400):
    """(area of g, area of the umbrella over the same disk, margin).

    The graph must live over a disk domain; the umbrella over that disk
    minimizes area in its vertical-translation class, so the margin is
    nonnegative up to quadrature error, vanishing only for constant u.
    """
    if g.domain.description != "disk":
        raise HypothesisViolationError("calibration compares graphs over a disk")
    R = g.domain.params["R"]
    area_g = graph_area(g, R).value
    umb = GraphSurface(
        g.sp, g.domain,
        lambda x, y: np.zeros(np.shape(x)),
        lambda x, y: (np.zeros(np.shape(x)), np.zeros(np.shape(x))),
    )
    area_u = graph_area(umb, R).value
    return area_g, area_u, area_g - area_u


@dataclass(frozen=True)
class CollinKrustSweep:
    """Sup-height table M(r) with its linear and quadratic slope estimates."""

    radii: np.ndarray
    M: np.ndarray
    liminf_linear: float
    liminf_quadratic: float | None = None


def collin_krust_sweep(g: GraphSurface, radii, n_grid: int = 512,
                       boundary_tol: float = 1e-6) -> CollinKrustSweep:
    """M(r) = sup |u| over Omega meet D_r, with liminf M(r)/r estimated.

    Requires zero boundary values on the finite-value arcs and a
    non-constant u; the linear liminf is taken over the upper half of the
    radii (and M(r)/r^2 is reported when the domain is an annulus, whose
    circle cut has bounded length).
    """
    radii = np.asarray(radii, dtype=float)
    for arc in g.domain.arcs:
        s = np.linspace(0.0, 1.0, 512)
        bx, by = arc.curve(s)
        if arc.kind == "finite" and np.max(np.abs(g.u(bx, by))) > boundary_tol:
            raise HypothesisViolationError("nonzero boundary values on a finite arc")
    r_max = float(np.max(radii))
    r_lo, _ = _quad_limits(g, r_max)
    rs = np.linspace(r_lo + 1e-9, r_max, n_grid)
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    Rg, Tg = np.meshgrid(rs, th, indexing="ij")
    vals = np.abs(g.u(Rg * np.cos(Tg), Rg * np.sin(Tg)))
    vals = np.where(g.domain.membership(Rg * np.cos(Tg), Rg * np.sin(Tg)), vals, 0.0)
    running = np.maximum.accumulate(np.max(vals, axis=1))
    M = np.array([float(running[np.searchsorted(rs, r, side="right") - 1])
                  for r in radii])
    if np.max(M) <= boundary_tol:
        raise HypothesisViolationError("u is (numerically) identically zero")
    upper = radii >= 0.5 * r_max
    liminf_lin = float(np.min(M[upper] / radii[upper]))
    liminf_quad = None
    if g.domain.description == "annulus":
        liminf_quad = float(np.min(M[upper] / radii[upper] ** 2))
    return CollinKrustSweep(radii, M, liminf_lin, liminf_quad)


# ---------------------------------------------------------------------------
# Table suite
# ---------------------------------------------------------------------------

def table1_suite(selection=None) -> list[GrowthReport]:
    """Run the growth rows (all five by default, or the named selection).

    Only rows with printed surface formulas are listed; ideal Scherk
    graphs, k-noids and entire CMC graphs with subcritical curvature have
    none and are not rows.
    """
    rows = {
        "umbrella-nil": lambda: _row(
            umbrella(SpaceParams(0.0, 1.0)), "extrinsic",
            [2, 3, 4.5, 6.75, 10, 15],
            {"model": "power", "value": 3.0, "comparison": "exact"},
        ),
        "umbrella-hyperbolic": lambda: _row(
            umbrella(SpaceParams(-1.0, 1.0)), "extrinsic",
            [3, 4, 5, 6, 7, 8],
            {"model": "exponential", "value": 1.0, "comparison": "exact"},
        ),
        "fmp-intrinsic": lambda: _row(
            fmp_surface(1.0, 0.0), "intrinsic",
            [4, 5, 6.5, 8, 10, 12],
            {"model": "power", "value": 3.0, "comparison": "exact"},
        ),
        "entire-cylinder-lower": lambda: _row(
            affine_plane(1.0, 1.0, 0.5), "cylinder",
            [5, 7.5, 11, 17, 25, 40],
            {"model": "power", "value": 3.0, "comparison": "at_least"},
        ),
        "catenoid-extrinsic": lambda: _row(
            catenoid(1.0, 1.0, 1e4), "extrinsic",
            [2, 3, 4.5, 6.75, 10, 15],
            {"model": "power", "value": 3.0, "comparison": "at_most"},
        ),
    }
    names = selection or list(rows)
    return [rows[name]() for name in names]


def _row(surface, family, radii, expected) -> GrowthReport:
    fam = RegionFamily(FAMILY_TAGS[family])
    samples = [(float(R), region_area(surface, fam, R), 0.0) for R in radii]
    verdict, fit = growth_verdict(
        [s[0] for s in samples], [s[1] for s in samples], expected
    )
    return GrowthReport(surface.name, fam.tag, tuple(samples), fit, expected, verdict)
