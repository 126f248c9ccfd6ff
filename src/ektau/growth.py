"""Area-growth measurement: region areas, growth fits, verdicts and sweeps.

Areas of the intersection of a graph surface with three region families,
named by plain strings ("cylinder": solid cylinders, "extrinsic": ambient
geodesic balls, "intrinsic": surface geodesic balls), are measured at
finite radii by the one entry point ``region_areas`` and fitted against
power or exponential growth models.  All verdicts are finite-radius checks
standing in for asymptotic statements and say so via their tolerances,
never certifying a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import leggauss
from .core import SpaceParams, base_disk_model_radius
from .errors import ConvergenceError, HypothesisViolationError
from .balls import GrowthFit, volume_growth_fit
from .geodesics import ball_distance
from .graphs import GraphSurface, _area_density, _gu_components, _quad_limits, graph_area
from .surfaces import ExampleSurface, catenoid, fmp_surface, umbrella, affine_plane

__all__ = [
    "GrowthReport",
    "region_areas",
    "intrinsic_area_table",
    "growth_verdict",
    "calibration_check",
    "collin_krust_sweep",
    "table1_suite",
]

INTRINSIC_BASE_N = 121          # starting grid resolution for surface Dijkstra
INTRINSIC_STABILITY = 0.01      # relative per-radius stability target
VERDICT_EXACT_TOL = 0.4         # power-exponent window for "exactly" claims
VERDICT_RATE_TOL = 0.10         # relative window for exponential rates
VERDICT_RESIDUAL_MAX = 0.2      # rms log-residual beyond which fits are inconclusive
RAY_MAX_ITER = 100              # root-solver probes per ray before ConvergenceError
RAY_REL_WIDTH = 4.0 * np.finfo(float).eps  # final ray-stop bracket width, relative to r
EXTRINSIC_N_THETA = 256         # rays of the extrinsic-ball area
EXTRINSIC_N_R = 96              # Gauss-Legendre nodes per ray
SWEEP_N_GRID = 512              # sample circles of a Collin-Krust sweep
SWEEP_BOUNDARY_TOL = 1e-6       # |u| below which a boundary value or a sweep reads zero


@dataclass(frozen=True)
class GrowthReport:
    """Measured areas, fitted model and verdict for one Table-style row;
    family is the region family's name, as ``region_areas`` takes it."""

    surface: str
    family: str
    samples: tuple
    fit: GrowthFit
    expected: dict
    verdict: str


# ---------------------------------------------------------------------------
# Region areas
# ---------------------------------------------------------------------------

def _ray_stop(dist, theta, r_lo, r_hi, R):
    """Radius in [r_lo, r_hi] at which dist along the ray at angle theta
    reaches R, for every ray of the four arguments broadcast together.

    ``dist(x, y)`` is the vectorized ambient distance of the graph points
    over (x, y).  A ray already at distance >= R at r_lo stops there, and one
    still inside at r_hi stops there.  On every other ray d(r) - R changes
    sign, and Illinois regula falsi narrows the bracket (a step that leaves
    it becomes a bisection) until it is at most 4 ulps of r wide, or a probe
    lands on the root.  A probe whose distance is nan moves neither end.
    Every ray, whatever its radius, is probed in the same dist call, and
    each ray's probes are those of a solve of that ray alone.
    Assumes the region cut by each ray is an interval starting at r_lo
    (valid for the star-shaped regions the examples produce).
    ConvergenceError, carrying the stops found so far (nan on the open
    rays) in ``best``, in the broadcast shape, is raised after RAY_MAX_ITER
    probes.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (theta, r_lo, r_hi, R)))
    shape = arrays[0].shape
    theta, r_lo, r_hi, R = (a.ravel() for a in arrays)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    ends = np.array([r_lo, r_hi])
    f_lo, f_hi = dist(ends * cos_t, ends * sin_t) - R
    inside_lo = f_lo < 0.0
    stop = np.where(inside_lo, r_hi, r_lo)
    idx = np.nonzero(inside_lo & ~(f_hi < 0.0))[0]
    stop[idx] = np.nan
    f_lo, f_hi = f_lo[idx], f_hi[idx]
    lo, hi, target = r_lo[idx], r_hi[idx], R[idx]
    moved = np.zeros(idx.size)  # the end the last probe replaced: -1 lo, +1 hi
    for _ in range(RAY_MAX_ITER):
        if idx.size == 0:
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        f = dist(x * cos_t[idx], x * sin_t[idx]) - target
        below, above = f < 0.0, f >= 0.0
        # Illinois: an end kept through two probes in a row has its value halved
        f_lo = np.where(above & (moved > 0.0), 0.5 * f_lo, f_lo)
        f_hi = np.where(below & (moved < 0.0), 0.5 * f_hi, f_hi)
        lo, f_lo = np.where(below, x, lo), np.where(below, f, f_lo)
        hi, f_hi = np.where(above, x, hi), np.where(above, f, f_hi)
        moved = np.where(below, -1.0, np.where(above, 1.0, moved))
        done = (hi - lo <= RAY_REL_WIDTH * hi) | (f == 0.0)
        stop[idx[done]] = hi[done]
        keep = ~done
        idx, lo, hi, f_lo, f_hi, moved, target = (
            idx[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep], moved[keep], target[keep])
    if idx.size:
        raise ConvergenceError(
            f"ray stops not bracketed to {RAY_REL_WIDTH:.1e} after {RAY_MAX_ITER} "
            f"probes on {idx.size} rays, e.g. R={R[idx[0]]:.17g}, "
            f"theta={theta[idx[0]]:.17g}",
            best=stop.reshape(shape),
        )
    return stop.reshape(shape)


def _extrinsic_areas(g: GraphSurface, radii, n_theta: int = EXTRINSIC_N_THETA) -> np.ndarray:
    """Areas of the graph inside B_R(0) for every R in radii, by radial
    quadrature on n_theta rays, EXTRINSIC_N_R Gauss-Legendre nodes each.

    Each ray is cut where the ambient distance of the graph point,
    ``geodesics.ball_distance``, reaches R, and the area density is
    integrated up to there by Gauss-Legendre in r.  One ``_ray_stop`` solve
    cuts the rays of all radii.  The ball projects into the base disk D_R,
    so a radius whose D_R misses the domain gives area 0.  A graph whose
    balls about the origin meet it in rotation-invariant sets (u of r alone
    over an uncut disk or annulus) is measured exactly on n_theta = 1.
    """
    radii = np.asarray(radii, dtype=float)
    limits = np.array([_quad_limits(g, base_disk_model_radius(g.sp, R))
                       for R in radii]).reshape(-1, 2)
    meets = np.nonzero(limits[:, 1] > limits[:, 0])[0]
    areas = np.zeros(radii.size)
    if meets.size == 0:
        return areas
    r_lo, r_cap = limits[meets, 0, None], limits[meets, 1, None]
    eps = r_lo + 1e-9 * np.maximum(r_cap, 1.0)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    dist = lambda x, y: ball_distance(g.sp, np.hypot(x, y), g.u(x, y))
    stops = _ray_stop(dist, theta, eps, r_cap, radii[meets, None])
    nodes, weights = leggauss(EXTRINSIC_N_R)
    density = _area_density(g)
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]
    # one radius at a time, so the nodes never outgrow one ball's
    for k, start, stop in zip(meets, eps[:, 0], stops):
        half = 0.5 * (stop - start)
        r = start + half[:, None] * (nodes + 1.0)
        w = half[:, None] * weights
        areas[k] = np.sum(w * density(r * cos_t, r * sin_t) * r) * (2.0 * math.pi / n_theta)
    return areas


def _induced_metric(g: GraphSurface, x, y):
    """First-fundamental-form coefficients (E, F, G) in model coordinates."""
    ux, uy = g.grad(x, y)
    g1, g2, mu = _gu_components(g.sp, x, y, ux, uy)
    lam2 = (1.0 / mu) ** 2
    return lam2 * (1.0 + g1 * g1), lam2 * g1 * g2, lam2 * (1.0 + g2 * g2)


_STENCIL = [
    (1, 0), (0, 1), (1, 1), (1, -1),
    (2, 1), (2, -1), (1, 2), (-1, 2),
    (3, 1), (3, -1), (1, 3), (-1, 3),
    (3, 2), (3, -2), (2, 3), (-2, 3),
]


# both directions of every stencil vector: the 32 edges of a node's CSR row
_STEPS = np.array([v for di, dj in _STENCIL for v in ((di, dj), (-di, -dj))])
_HALO = int(np.max(np.abs(_STEPS)))
_ROW_BLOCK = 16  # grid rows whose CSR rows are assembled at a time, in cache


def _intrinsic_distances(g: GraphSurface, L: float, n: int, limit: float = np.inf):
    """Surface distance field from the point over the origin, on an n x n grid.

    Dijkstra on the 32-neighbour grid graph (both directions of every
    ``_STENCIL`` vector) with first-fundamental-form edge lengths
    0.5 (sqrt(q_p) + sqrt(q_q)), q the quadratic form of the step at either
    end; a step and its reverse have the same q, so both directions of an
    edge get the same length.  The graph is built straight into CSR arrays:
    one row per grid node, in node order, holding its 32 edges in ``_STEPS``
    order.  A neighbour off the grid becomes an inf-weight self-loop, so the
    graph has exactly n^2 nodes.  Nodes outside the model disk (grid corners
    for kappa < 0) or outside the domain get no metric and, as the halo
    does, inf step lengths.
    Dijkstra stops at ``limit``: distances up to it are exactly those of the
    unlimited solve, and every farther node reads inf.  Returns (distance
    field, area weight field, cell area).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    xs = np.linspace(-L, L, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = (X * X + Y * Y < g.sp.model_radius**2) & g.domain.membership(X, Y)
    E, F, G = np.zeros((3, n, n))
    E[inside], F[inside], G[inside] = _induced_metric(g, X[inside], Y[inside])

    # step lengths sqrt(q) per stencil vector, inf on a halo around the grid
    P = _HALO
    s = np.full((len(_STENCIL), n + 2 * P, n + 2 * P), np.inf)
    for k, (di, dj) in enumerate(_STENCIL):
        dx, dy = di * h, dj * h
        s[k, P:-P, P:-P] = np.sqrt(E * dx * dx + 2 * F * dx * dy + G * dy * dy)
    s[:, P:-P, P:-P][:, ~inside] = np.inf
    # edge lengths in node order; a block of grid rows is filled one step
    # direction at a time, then transposed into its nodes' CSR rows
    lens = np.empty((n, n, len(_STEPS)))
    block = np.empty((len(_STEPS), _ROW_BLOCK, n))
    for i0 in range(0, n, _ROW_BLOCK):
        m = min(_ROW_BLOCK, n - i0)
        for col, (a, b) in enumerate(_STEPS):
            here = s[col // 2, P + i0:P + i0 + m, P:P + n]
            there = s[col // 2, P + i0 + a:P + i0 + a + m, P + b:P + b + n]
            np.add(here, there, out=block[col, :m])
        np.multiply(block[:, :m].transpose(1, 2, 0), 0.5, out=lens[i0:i0 + m])

    idx = np.arange(n * n, dtype=np.int32).reshape(n, n)
    ii = np.arange(n)[:, None] + _STEPS[:, 0]
    jj = np.arange(n)[:, None] + _STEPS[:, 1]
    off_grid = ((ii < 0) | (ii >= n))[:, None, :] | ((jj < 0) | (jj >= n))[None, :, :]
    nbrs = idx[:, :, None] + (_STEPS[:, 0] * n + _STEPS[:, 1]).astype(np.int32)
    np.copyto(nbrs, idx[:, :, None], where=off_grid)
    graph_m = csr_matrix(
        (lens.ravel(), nbrs.ravel(),
         np.arange(0, lens.size + 1, len(_STEPS), dtype=np.int32)),
        shape=(n * n, n * n),
    )
    dist = dijkstra(graph_m, directed=True, indices=idx[n // 2, n // 2],
                    limit=limit).reshape(n, n)
    area_w = np.sqrt(np.maximum(E * G - F * F, 0.0))
    return dist, area_w, h * h


def intrinsic_area_table(g: GraphSurface, radii):
    """Areas of the surface geodesic balls B_R for all radii at once.

    Every radius is read from one distance field per grid level.  The grid
    covers the base disk that holds the largest ball, and Dijkstra stops at
    the largest radius, since no area counts a farther node.  The field is
    refined (grid doubling, from INTRINSIC_BASE_N) until every radius is
    stable to INTRINSIC_STABILITY, relative; ConvergenceError, carrying the
    finest areas in ``best``, is raised if four levels do not reach it.
    A domain that excludes the origin, where the balls are centred, raises
    HypothesisViolationError before any grid is solved.
    """
    if not g.domain.membership(0.0, 0.0):
        raise HypothesisViolationError("the domain excludes the origin, the balls' centre")
    radii = np.asarray(radii, dtype=float)
    r_max = float(np.max(radii))
    L = base_disk_model_radius(g.sp, r_max)
    n = INTRINSIC_BASE_N
    prev = None
    for _ in range(4):
        dist, area_w, cell = _intrinsic_distances(g, L, n, limit=r_max)
        areas = np.array([float(np.sum(area_w[dist <= R]) * cell) for R in radii])
        if prev is not None and np.all(
            np.abs(areas - prev) <= INTRINSIC_STABILITY * np.maximum(areas, 1e-300)
        ):
            return areas
        prev = areas
        n = 2 * n - 1
    raise ConvergenceError(
        f"intrinsic areas not stable to {INTRINSIC_STABILITY} after 4 grid levels",
        best=areas,
    )


def region_areas(g, family: str, radii) -> list[float]:
    """Areas of the graph cut by the family's regions, at every radius in the
    order given.

    family is "extrinsic" (ambient geodesic balls B_R(0)), "intrinsic"
    (surface geodesic balls about the point over the origin) or "cylinder"
    (solid cylinders over the base disk D_R); any other name raises
    ValueError, as does a radius that is not finite or is negative, before
    anything is solved; no radii give [].  Every family on an ExampleSurface
    whose extrinsic_equals_base_disk says so (the umbrellas) cuts the graph
    over D_R, and its closed form "extrinsic_area" gives the area.  Cylinders
    cut the graph over D_R.  Extrinsic balls of all radii come from one
    ``_extrinsic_areas`` solve, on a single ray when the ExampleSurface is
    rotational.  Intrinsic balls of all radii come from the
    ExampleSurface's closed form "intrinsic_area" where it has one (the fmp
    graph u = tau x y), else from one intrinsic_area_table.
    """
    if family not in ("extrinsic", "intrinsic", "cylinder"):
        raise ValueError(
            f"family must be extrinsic, intrinsic or cylinder, got {family!r}")
    radii = [float(R) for R in radii]
    bad = [R for R in radii if not (math.isfinite(R) and R >= 0.0)]
    if bad:
        raise ValueError(f"radii must be finite and >= 0, got {bad[0]!r}")
    if not radii:
        return []
    example = isinstance(g, ExampleSurface)
    gg = g.graph if example else g
    if example and g.extrinsic_equals_base_disk:
        return [float(g.closed_forms["extrinsic_area"](R)) for R in radii]
    if family == "cylinder":
        return [graph_area(gg, base_disk_model_radius(gg.sp, R)).value for R in radii]
    if family == "extrinsic":
        n_theta = 1 if example and g.rotational else EXTRINSIC_N_THETA
        return [float(a) for a in _extrinsic_areas(gg, radii, n_theta)]
    exact = g.closed_forms.get("intrinsic_area") if example else None
    table = exact(radii) if exact else intrinsic_area_table(gg, radii)
    return [float(a) for a in table]


# ---------------------------------------------------------------------------
# Fits and verdicts
# ---------------------------------------------------------------------------

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
    if model == "power":
        slope, se, rms = fit.power_exponent, fit.power_stderr, fit.power_residual
    else:
        slope, se, rms = fit.exp_rate, fit.exp_stderr, fit.exp_residual
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

def calibration_check(g: GraphSurface):
    """(area of g, area of the umbrella over the same disk, margin).

    The graph must live over a disk domain; the umbrella over that disk
    minimizes area in its vertical-translation class, so the margin is
    nonnegative up to quadrature error, vanishing only for constant u.
    """
    d = g.domain
    if not (d.r_in == 0.0 and d.r_out < math.inf and d.cut is None):
        raise HypothesisViolationError("calibration compares graphs over a disk")
    R = d.r_out
    area_g = graph_area(g, R).value
    area_u = graph_area(replace(umbrella(g.sp).graph, domain=g.domain), R).value
    return area_g, area_u, area_g - area_u


@dataclass(frozen=True)
class CollinKrustSweep:
    """Sup-height table M(r) with its linear and quadratic slope estimates."""

    radii: np.ndarray
    M: np.ndarray
    liminf_linear: float
    liminf_quadratic: float | None = None


def collin_krust_sweep(g: GraphSurface, radii) -> CollinKrustSweep:
    """M(r) = sup |u| over Omega meet D_r, with liminf M(r)/r estimated.

    Requires zero boundary values (to SWEEP_BOUNDARY_TOL) on the finite-value
    arcs and a non-constant u, sampled on SWEEP_N_GRID circles; the linear
    liminf is taken over the upper half of the radii (and M(r)/r^2 is
    reported when the domain is an uncut annulus r > r_in > 0, whose circle
    cut has bounded length).
    """
    radii = np.asarray(radii, dtype=float)
    for arc in g.domain.arcs:
        s = np.linspace(0.0, 1.0, 512)
        bx, by = arc.curve(s)
        if arc.kind == "finite" and np.max(np.abs(g.u(bx, by))) > SWEEP_BOUNDARY_TOL:
            raise HypothesisViolationError("nonzero boundary values on a finite arc")
    r_max = float(np.max(radii))
    r_lo, r_hi = _quad_limits(g, r_max)
    if r_hi <= r_lo:
        raise ValueError("region does not meet the domain")
    rs = np.linspace(r_lo + 1e-9, r_max, SWEEP_N_GRID)
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    x, y = rs[:, None] * np.cos(th), rs[:, None] * np.sin(th)
    vals = np.where(g.domain.membership(x, y), np.abs(g.u(x, y)), 0.0)
    # running[i] is the sup over the first i sample circles (0 over none)
    running = np.concatenate(([0.0], np.maximum.accumulate(np.max(vals, axis=1))))
    M = running[np.searchsorted(rs, radii, side="right")]
    if np.max(M) <= SWEEP_BOUNDARY_TOL:
        raise HypothesisViolationError("u is (numerically) identically zero")
    upper = radii >= 0.5 * r_max
    liminf_lin = float(np.min(M[upper] / radii[upper]))
    liminf_quad = None
    if g.domain.r_in > 0.0 and g.domain.cut is None:
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
        # The areas are exact (fmp_intrinsic_area), and their fitted exponent,
        # 2.791, is below 3 at these finite radii: the gap is a finite-radius
        # effect, not a solver's.  The Dijkstra grid reads 2.2-3.4 % low here
        # and fits 2.80.
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
            catenoid(1.0, 1.0), "extrinsic",
            [2, 3, 4.5, 6.75, 10, 15],
            {"model": "power", "value": 3.0, "comparison": "at_most"},
        ),
    }
    names = selection or list(rows)
    return [rows[name]() for name in names]


def _row(surface, family, radii, expected) -> GrowthReport:
    areas = region_areas(surface, family, radii)
    samples = [(float(R), a, 0.0) for R, a in zip(radii, areas)]
    verdict, fit = growth_verdict(radii, areas, expected)
    return GrowthReport(surface.name, family, tuple(samples), fit, expected, verdict)
