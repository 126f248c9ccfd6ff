"""The three workloads: seeded job lists and the checks on every job's output.

A job is a timed call into ektau plus an untimed check of what it
returned.  Checks compare against the references in ``oracles``, which are
computed lazily (after the timed passes) and memoized.

* ball-volumes: Monte Carlo ball volumes through ``ektau ball-volume``.
  Sampling and membership in ``balls`` dominate; the Nil3 profile is a
  fixed cost per request and sampling scales with the sample count.
  ``graphs``, ``surfaces``, ``growth`` and ``_quadrature`` are bypassed.
* growth-table: the instantiable rows of ``growth.table1_suite``, one row
  per job, plus ``ektau collin-krust --example catenoid``.  Dominated by
  the Dijkstra refinement, the catenoid height quadrature inside the ray
  bisection and the per-radius Nil3 profile.  No randomness.
* point-queries: many small independent requests (Nil3 distances, ball
  membership, kappa < 0 distance bounds, geodesic CLI requests), so
  per-call overhead and state rebuilt on every call are not amortised.

Job counts per pass are fixed for every seed; the seed draws radii, points
and Monte Carlo seeds, and the order of the jobs.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import oracles as O

Z_MAX = 5.0  # a Monte Carlo estimate passes within this many standard errors


@dataclass
class Checks:
    """Deviations of one job's outputs from their references."""

    rel_errs: list = field(default_factory=list)
    zs: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def close(self, label, value, ref, tol):
        """Deterministic output: relative deviation at most tol."""
        scale = abs(ref) if ref != 0.0 else 1.0
        self.relative(f"{label}: {value!r} vs reference {ref!r}", abs(value - ref) / scale, tol)

    def relative(self, label, rel_err, tol):
        self.rel_errs.append(rel_err)
        self.zs.append(rel_err / tol)
        if not rel_err <= tol:
            self.failures.append(f"{label} (relative error {rel_err:.3g} > {tol:g})")

    def mc(self, label, value, std_err, ref):
        """Monte Carlo output: within Z_MAX standard errors of the reference."""
        dev = abs(value - ref)
        self.rel_errs.append(dev / abs(ref))
        z = dev / std_err if std_err > 0.0 else math.inf
        self.zs.append(z)
        if not z <= Z_MAX:
            self.failures.append(
                f"{label}: {value!r} +- {std_err!r} vs reference {ref!r} (z = {z:.2f})")

    def truth(self, label, ok):
        if not ok:
            self.failures.append(label)


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]                        # timed
    check: Callable[[Any], Checks]                 # untimed
    collect: Callable[[Any], Any] = lambda v: v   # untimed, right after call


@dataclass
class Workload:
    jobs: list
    known_defects: list = field(default_factory=list)  # CLI requests run once, untimed


memo = functools.lru_cache(maxsize=None)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _cli_job(ektau, kind, argv, out_path, check_doc):
    argv = list(argv) + ["--format", "json", "--out", str(out_path)]

    def call():
        return ektau.cli.main(argv)

    def collect(code):
        if code != 0:
            return code, None
        with open(out_path, encoding="utf-8") as fh:
            return code, fh.read()

    def check(got):
        code, text = got
        c = Checks()
        if code != 0:
            c.failures.append(f"{kind}: exit code {code}")
            return c
        check_doc(c, json.loads(text))
        return c

    return Job(kind, call, check, collect)


# ---------------------------------------------------------------------------
# ball-volumes
# ---------------------------------------------------------------------------

NIL_TAUS = (0.5, 1.0, 2.0)
SMALL, LARGE_R3, LARGE_H2R, NIL_SAMPLES = 50_000, 500_000, 200_000, (5000, 200_000)
N_SMALL, N_LARGE_R3, N_LARGE_H2R = 124, 36, 4
SL2_REQUEST = ["ball-volume", "--kappa", "-1", "--tau", "1", "--radii", "2",
             "--samples", "10000", "--seed", "1"]


@memo
def _ball_ref(kappa, tau, R):
    return O.ball_volume(kappa, tau, R)


def ball_volumes(ektau, seed, out_path) -> Workload:
    """Mix of small and large Monte Carlo requests in R^3, H^2 x R and Nil3.

    Each Nil3 tau has one radius on each side of 2 tau R = pi, where the
    maximal height switches formula, one with few samples and one with
    many.  The 36 large R^3 requests put the 90th latency percentile in
    the middle of one homogeneous block of jobs.
    """
    rng = random.Random(seed)
    reqs = []
    for i, tau in enumerate(NIL_TAUS):
        half = math.pi / (2.0 * tau)
        for j, (lo, hi) in enumerate(((0.5, 0.95), (1.1, 2.5))):
            reqs.append((0.0, tau, half * rng.uniform(lo, hi), NIL_SAMPLES[(i + j) % 2]))
    reqs += [(0.0, 0.0, rng.uniform(0.5, 4.0), LARGE_R3) for _ in range(N_LARGE_R3)]
    reqs += [(-1.0, 0.0, rng.uniform(0.5, 4.0), LARGE_H2R) for _ in range(N_LARGE_H2R)]
    reqs += [(0.0, 0.0, rng.uniform(0.5, 4.0), SMALL) for _ in range(N_SMALL)]
    reqs += [(-1.0, 0.0, rng.uniform(0.5, 4.0), SMALL) for _ in range(N_SMALL)]
    rng.shuffle(reqs)

    jobs = []
    for kappa, tau, R, n in reqs:
        mc_seed = rng.randrange(2**31)

        def check_doc(c, doc, kappa=kappa, tau=tau, R=R, n=n, mc_seed=mc_seed):
            c.truth("ball-volume: command", doc["command"] == "ball-volume")
            c.truth("ball-volume: params echo",
                    doc["params"]["samples"] == n and doc["params"]["seed"] == mc_seed)
            rows = doc["rows"]
            c.truth("ball-volume: one row per radius", len(rows) == 1 and rows[0][0] == R)
            _, value, std_err, bounding = rows[0]
            ref = _ball_ref(kappa, tau, R)
            c.mc(f"ball-volume kappa={kappa} tau={tau} R={R!r} n={n}", value, std_err, ref)
            c.truth("ball-volume: bounding volume below the ball volume", bounding >= ref)

        argv = ["ball-volume", "--kappa", repr(kappa), "--tau", repr(tau),
                "--radii", repr(R), "--samples", str(n), "--seed", str(mc_seed)]
        jobs.append(_cli_job(ektau, "ball-volume", argv, out_path, check_doc))
    return Workload(jobs, known_defects=[SL2_REQUEST])


# ---------------------------------------------------------------------------
# growth-table
# ---------------------------------------------------------------------------

# Surfaces of the instantiable rows of growth.table1_suite, as that table
# defines them, with the reference each measured area is checked against.
GROWTH_ROWS = {
    "umbrella-nil": ("close", lambda R: O.umbrella_area(0.0, 1.0, R), 1e-5),
    "umbrella-hyperbolic": ("close", lambda R: O.umbrella_area(-1.0, 1.0, R), 1e-5),
    "fmp-intrinsic": ("at_least", lambda R: O.fmp_intrinsic_lower_bound(1.0, R), None),
    "entire-cylinder-lower": ("close", lambda R: O.plane_cylinder_area(1.0, 1.0, 0.5, R), 1e-5),
    "catenoid-extrinsic": ("close", lambda R: O.catenoid_extrinsic_area(1.0, 1.0, R), 1e-2),
}
CK_TOL = 2e-2  # M(r) is a running maximum over a radial grid of spacing r_max / 512


@memo
def _row_ref(row, R):
    return GROWTH_ROWS[row][1](R)


@memo
def _catenoid_height(r):
    return O.catenoid_height(1.0, 1.0, r)


def _growth_row_job(ektau, row):
    kind, _, tol = GROWTH_ROWS[row]

    def call():
        return ektau.growth.table1_suite(selection=[row])

    def check(reports):
        c = Checks()
        c.truth(f"{row}: one report", len(reports) == 1)
        rep = reports[0]
        c.truth(f"{row}: verdict {rep.verdict!r}", rep.verdict == "consistent")
        c.truth(f"{row}: six radii", len(rep.samples) == 6)
        for R, area, _ in rep.samples:
            ref = _row_ref(row, R)
            if kind == "close":
                c.close(f"{row} R={R}", area, ref, tol)
            else:
                c.truth(f"{row} R={R}: area {area!r} below the lower bound {ref!r}",
                        area >= ref)
        return c

    return Job("growth-row", call, check)


def growth_table(ektau, seed, out_path) -> Workload:
    """Seed-independent: the five instantiable rows and one Collin-Krust sweep."""

    def check_ck(c, doc):
        c.truth("collin-krust: columns", doc["columns"] == ["r", "M", "M_over_r"])
        rows = doc["rows"]
        for r, M, ratio in rows:
            c.close(f"collin-krust M({r})", M, _catenoid_height(r), CK_TOL)
            c.truth(f"collin-krust M/r at {r}", abs(ratio - M / r) <= 1e-12 * abs(ratio))
        r_max = max(r for r, _, _ in rows)
        liminf = min(M / r for r, M, _ in rows if r >= 0.5 * r_max)
        c.truth("collin-krust liminf_linear",
                abs(doc["extras"]["liminf_linear"] - liminf) <= 1e-12 * liminf)

    jobs = [_growth_row_job(ektau, row) for row in GROWTH_ROWS]
    jobs.append(_cli_job(ektau, "collin-krust", ["collin-krust", "--example", "catenoid"],
                         out_path, check_ck))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

N_DIST = 16        # per distance class: generic, near the axis, near the plane
N_IN_BALL_NIL = 16
N_OUT_CYL_NIL = 8
N_IN_BALL_H2R = 8
N_UPPER = 24
DIST_TOL, UPPER_TOL, GEO_TOL = 1e-8, 1e-8, 1e-8

# Geodesic requests are fixed, so that the integrator's endpoint error,
# which dominates this workload's accuracy figure, is the same for every seed.
NIL_GEODESICS = [(0.5, 0.6, 0.3), (1.0, 1.1, 2.0), (2.0, 2.3, -1.0), (1.0, 0.3, 0.7)]
SL2_GEODESICS = [
    (-1.0, 1.0, "horizontal", None), (-1.0, 1.0, "elliptic", 0.8),
    (-1.0, 1.0, "parabolic", None), (-1.0, 1.0, "hyperbolic", 3.0),
    (-0.5, 0.7, "horizontal", None), (-0.5, 0.7, "elliptic", 1.5),
    (-0.5, 0.7, "parabolic", None), (-0.5, 0.7, "hyperbolic", 4.0),
]
GEO_T_END, GEO_STEPS = 3.0, 40


def _nil_mul(tau, p, r):
    """p * r under the Nil3 group law."""
    return (p[0] + r[0], p[1] + r[1], p[2] + r[2] + tau * (p[0] * r[1] - p[1] * r[0]))


def _polar(rng, rho, z):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return (rho * math.cos(a), rho * math.sin(a), z)


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _distance_job(ektau, kind, sp, p, q, ref_fn, tol):
    P, Q = ektau.core.PointE(*p), ektau.core.PointE(*q)
    geod = ektau.geodesics

    if kind == "distance":
        def call():
            return geod.distance(sp, P, Q)
    else:
        def call():
            return geod.distance_upper_bound(sp, P, Q)

    def check(d):
        c = Checks()
        c.close(f"{kind} tau={sp.tau!r} p={p!r} q={q!r}", d, ref_fn(), tol)
        if kind == "upper-bound":
            c.truth("upper bound below the base distance",
                    d >= O.hyperbolic_distance(sp.kappa, p, q) * (1.0 - 1e-12))
        return c

    return Job(kind, call, check)


def _in_ball_job(ektau, sp, center, R, q, inside):
    ball = ektau.balls.BallSpec(sp, ektau.core.PointE(*center), R)
    Q = ektau.core.PointE(*q)

    def call():
        return ektau.balls.in_ball(ball, Q)

    def check(got):
        c = Checks()
        c.truth(f"in_ball kappa={sp.kappa} tau={sp.tau!r} R={R!r} center={center!r} "
                f"q={q!r}: got {got}, reference {inside}", bool(got) == inside)
        return c

    return Job("in-ball", call, check)


def _geodesic_job(ektau, out_path, kappa, tau, extra, ref_fn):
    argv = ["geodesic", "--kappa", repr(kappa), "--tau", repr(tau),
            "--t-end", repr(GEO_T_END), "--steps", str(GEO_STEPS)] + extra

    def check_doc(c, doc):
        rows = doc["rows"]
        c.truth("geodesic: sample count", len(rows) == GEO_STEPS + 1)
        t, x, y, z = rows[-1][:4]
        c.truth("geodesic: last sample at t_end", t == GEO_T_END)
        ref = ref_fn()
        c.relative(f"geodesic endpoint {' '.join(extra)} kappa={kappa} tau={tau}",
                   math.dist((x, y, z), ref) / max(math.hypot(*ref), 1.0), GEO_TOL)
        c.truth("geodesic: unit speed", max(row[7] for row in rows) <= 1e-6)

    return _cli_job(ektau, "geodesic", argv, out_path, check_doc)


def point_queries(ektau, seed, out_path) -> Workload:
    rng = random.Random(seed)
    SP = ektau.core.SpaceParams
    jobs = []

    for cls in ("generic", "axis", "plane"):
        for _ in range(N_DIST):
            tau = rng.uniform(0.3, 2.0)
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-4, 4))
            if cls == "generic":
                r = _polar(rng, rng.uniform(0.1, 3.0), rng.uniform(-8.0, 8.0))
            elif cls == "axis":
                r = _polar(rng, rng.uniform(1e-3, 1e-2), _sign(rng) * rng.uniform(0.5, 8.0))
            else:
                r = _polar(rng, rng.uniform(0.5, 3.0), _sign(rng) * rng.uniform(1e-4, 1e-2))
            q = _nil_mul(tau, p, r)
            jobs.append(_distance_job(
                ektau, "distance", SP(0.0, tau), p, q,
                memo(lambda tau=tau, p=p, q=q: O.nil_distance(tau, p, q)), DIST_TOL))

    def nil_point(tau, R, inside_cyl):
        while True:
            center = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-4, 4))
            if inside_cyl:  # |z| < R <= the ball's height: in_ball must solve for the distance
                r = _polar(rng, R * rng.uniform(0.05, 0.98), R * rng.uniform(-0.98, 0.98))
            else:
                r = _polar(rng, R * rng.uniform(1.05, 2.0), R * rng.uniform(-1.0, 1.0))
            d = O.nil_distance_origin(tau, *r)
            if abs(d - R) > 1e-6 * R:  # membership is decided, not a rounding tie
                return center, _nil_mul(tau, center, r), d < R

    for n, inside_cyl in ((N_IN_BALL_NIL, True), (N_OUT_CYL_NIL, False)):
        for _ in range(n):
            tau, R = rng.uniform(0.3, 2.0), rng.uniform(1.0, 4.0)
            center, q, inside = nil_point(tau, R, inside_cyl)
            jobs.append(_in_ball_job(ektau, SP(0.0, tau), center, R, q, inside))

    for _ in range(N_IN_BALL_H2R):
        while True:
            R = rng.uniform(0.5, 2.0)
            center = _polar(rng, rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
            q = _polar(rng, rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0))
            d = math.hypot(O.hyperbolic_distance(-1.0, center, q), q[2] - center[2])
            if abs(d - R) > 1e-6 * R:
                break
        jobs.append(_in_ball_job(ektau, SP(-1.0, 0.0), center, R, q, d < R))

    for _ in range(N_UPPER):
        tau = rng.uniform(0.3, 2.0)
        p = _polar(rng, rng.uniform(0.0, 1.6), rng.uniform(-3.0, 3.0))
        q = _polar(rng, rng.uniform(0.0, 1.6), rng.uniform(-3.0, 3.0))
        jobs.append(_distance_job(
            ektau, "upper-bound", SP(-1.0, tau), p, q,
            memo(lambda tau=tau, p=p, q=q: O.lifted_segment_length(-1.0, tau, p, q)),
            UPPER_TOL))

    for tau, phi, theta in NIL_GEODESICS:
        jobs.append(_geodesic_job(
            ektau, out_path, 0.0, tau, ["--phi", repr(phi), "--theta", repr(theta)],
            lambda tau=tau, phi=phi, theta=theta: O.nil_geodesic(tau, phi, theta, GEO_T_END)))
    for kappa, tau, family, a in SL2_GEODESICS:
        extra = ["--family", family] + (["--a", repr(a)] if a is not None else [])
        jobs.append(_geodesic_job(
            ektau, out_path, kappa, tau, extra,
            lambda kappa=kappa, tau=tau, family=family, a=a:
                O.sl2_geodesic(kappa, tau, family, a, GEO_T_END)))

    rng.shuffle(jobs)
    return Workload(jobs)


WORKLOADS = {
    "ball-volumes": ball_volumes,
    "growth-table": growth_table,
    "point-queries": point_queries,
}
