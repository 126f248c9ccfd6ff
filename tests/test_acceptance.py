"""Acceptance suite: fourteen end-to-end criteria, one printed line each.

Each test prints exactly one `criterion NN: PASS/FAIL` line (written
through the capture-proof stream so the lines always appear in the pytest
output) and asserts the criterion.  Asymptotic statements are checked as
finite-radius properties with the stated tolerances.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ektau
from ektau.core import BasePoint, PointE, SpaceParams, coord_to_frame
from ektau.balls import BallSpec, mc_volume, volume_growth_fit
from ektau.geodesics import (
    _nil_velocity_xyz,
    _nil_xyz,
    _sl2_xyz,
    nil_max_height,
    sl2_families,
    zeta_r,
)
from ektau.graphs import (
    BaseDomain,
    GraphSurface,
    factorization_identity_residual,
    factorization_lhs,
    graph_area,
    lemma41_bound,
    lemma42_bound,
    mean_curvature,
)
from ektau.growth import (
    RegionFamily,
    _extrinsic_area,
    calibration_check,
    collin_krust_sweep,
    fit_with_stderr,
    intrinsic_area_table,
    region_area,
)
from ektau.surfaces import (
    affine_plane,
    catenoid,
    catenoid_height,
    cmc_profile,
    fmp_surface,
    ideal_polygon_area,
    ideal_polygon_area_numeric,
    umbrella,
)

ORIGIN = PointE(0.0, 0.0, 0.0)

_CAP = None


@pytest.fixture(autouse=True)
def _criterion_output(capsys):
    """Expose the capture handle so pass/fail lines reach the terminal."""
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAP is not None:
        with _CAP.disabled():
            print("\n" + line, flush=True)
    else:  # pragma: no cover - direct invocation outside pytest
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. closed-form geodesics satisfy the ODE; unit speed; a3 first integral
# ---------------------------------------------------------------------------

def _nil_state(tau, phi, theta, t):
    """(position, frame velocity) arrays of the Nil3 closed form."""
    x, y, z = _nil_xyz(tau, phi, theta, t)
    xp, yp, zp = _nil_velocity_xyz(tau, phi, theta, t)
    a3 = zp + tau * (y * xp - x * yp)
    return np.stack([x, y, z, xp, yp, a3])


def _nil_rhs(tau, state):
    x, y, z, a1, a2, a3 = state
    return np.stack([
        a1, a2, a3 - tau * y * a1 + tau * x * a2,
        -2.0 * tau * a2 * a3, 2.0 * tau * a1 * a3, np.zeros_like(a1),
    ])


def test_criterion_01_closed_form_geodesics():
    rng = np.random.default_rng(101)
    n = 1000
    h = 1e-6

    tau = rng.uniform(0.2, 2.0, n)
    phi = rng.uniform(0.0, math.pi, n)
    phi = np.where(np.abs(phi - 0.5 * math.pi) < 1e-6, 0.25 * math.pi, phi)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    t = rng.uniform(0.0, 10.0, n)

    num = (_nil_state(tau, phi, theta, t + h) - _nil_state(tau, phi, theta, t - h)) / (
        2.0 * h
    )
    state = _nil_state(tau, phi, theta, t)
    res_nil = float(np.max(np.abs(num - _nil_rhs(tau, state))))
    speed = np.sqrt(state[3] ** 2 + state[4] ** 2 + state[5] ** 2)
    drift_speed = float(np.max(np.abs(speed - 1.0)))
    a3_0 = _nil_state(tau, phi, theta, np.zeros(n))[5]
    drift_a3 = float(np.max(np.abs(state[5] - a3_0)))

    res_sl2 = 0.0
    for family in sl2_families:
        for _ in range(250):
            kappa = rng.uniform(-4.0, -0.25)
            tau_s = rng.uniform(0.2, 2.0)
            lim = 2.0 / math.sqrt(-kappa)
            a = {
                "elliptic": rng.uniform(0.0, 0.98 * lim),
                "hyperbolic": lim * (1.0 + rng.uniform(0.05, 2.0)),
            }.get(family)
            sp = SpaceParams(kappa, tau_s)
            ts = rng.uniform(0.1, 10.0)
            # keep the sample inside the numerically resolvable chart: frame
            # components divide by the conformal factor, whose cancellation
            # noise dominates the finite differences near the model boundary
            while ts > 0.2:
                x, y, _ = _sl2_xyz(kappa, tau_s, family, a, ts)
                if 1.0 + 0.25 * kappa * (float(x) ** 2 + float(y) ** 2) >= 1e-2:
                    break
                ts *= 0.7

            def state_at(s):
                x, y, z = _sl2_xyz(kappa, tau_s, family, a, s)
                xc, yc, zc = _sl2_xyz(kappa, tau_s, family, a, s + 1e-30j)
                p = PointE(float(x), float(y), float(z))
                v = coord_to_frame(
                    sp, p, (np.imag(xc) * 1e30, np.imag(yc) * 1e30, np.imag(zc) * 1e30)
                )
                return np.array([p.x, p.y, p.z, v.a1, v.a2, v.a3])

            sm, s0, sp_ = state_at(ts - h), state_at(ts), state_at(ts + h)
            x, y, z, a1, a2, a3 = s0
            mu = 1.0 + 0.25 * kappa * (x * x + y * y)
            k2 = 0.5 * kappa
            rhs = np.array([
                a1 * mu, a2 * mu, a3 - tau_s * y * a1 + tau_s * x * a2,
                -k2 * x * a2 * a2 + k2 * y * a1 * a2 - 2.0 * tau_s * a2 * a3,
                -k2 * y * a1 * a1 + k2 * x * a1 * a2 + 2.0 * tau_s * a1 * a3,
                0.0,
            ])
            res_sl2 = max(res_sl2, float(np.max(np.abs((sp_ - sm) / (2.0 * h) - rhs))))
            drift_speed = max(drift_speed, abs(math.hypot(a1, math.hypot(a2, a3)) - 1.0))
            a3_start = state_at(0.0)[5]
            drift_a3 = max(drift_a3, abs(a3 - a3_start))

    ok = res_nil < 1e-5 and res_sl2 < 1e-5 and drift_speed < 1e-8 and drift_a3 < 1e-8
    _report(
        1, ok,
        f"closed-form ODE residuals nil={res_nil:.2e} sl2={res_sl2:.2e} "
        f"(<1e-5), speed drift={drift_speed:.2e}, a3 drift={drift_a3:.2e} (<1e-8)",
    )


# ---------------------------------------------------------------------------
# 2. ball height vs brute-force maximization; branch switch at 2 tau R = pi
# ---------------------------------------------------------------------------

def test_criterion_02_ball_height():
    worst = 0.0
    switches_ok = True
    for tau in (0.5, 1.0, 2.0):
        for R in (0.5, 1.0, 2.0, 4.0, 8.0):
            s_hi = 2.0 * tau * R
            grid = np.linspace(s_hi * 1e-7, s_hi, 400_001)
            vals = zeta_r(tau, R, grid)
            worst = max(worst, abs(float(np.max(vals)) - nil_max_height(tau, R)))
            s_star = float(grid[np.argmax(vals)])
            step = float(grid[1] - grid[0])
            if s_hi > math.pi:
                switches_ok &= abs(s_star - math.pi) < 2.0 * step
            else:
                switches_ok &= abs(s_star - s_hi) < 2.0 * step
    ok = worst < 1e-4 and switches_ok
    _report(
        2, ok,
        f"nil_max_height vs grid max err={worst:.2e} (<1e-4), "
        f"branch switch at 2*tau*R=pi: {'yes' if switches_ok else 'no'}",
    )


# ---------------------------------------------------------------------------
# 3. quartic Nil3 volume growth; cubic Euclidean control
# ---------------------------------------------------------------------------

def test_criterion_03_quartic_volume():
    radii = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0]
    nil_vols = [
        mc_volume(BallSpec(SpaceParams(0.0, 1.0), ORIGIN, R), 10**6, seed=33).value
        for R in radii
    ]
    eu_vols = [
        mc_volume(BallSpec(SpaceParams(0.0, 0.0), ORIGIN, R), 10**6, seed=33).value
        for R in radii
    ]
    e_nil = volume_growth_fit(radii, nil_vols).power_exponent
    e_eu = volume_growth_fit(radii, eu_vols).power_exponent
    ok = 3.6 <= e_nil <= 4.4 and 2.9 <= e_eu <= 3.1
    _report(
        3, ok,
        f"Nil3 volume exponent {e_nil:.3f} in [3.6,4.4], "
        f"R^3 control {e_eu:.3f} in [2.9,3.1]",
    )


# ---------------------------------------------------------------------------
# 4. umbrella areas: Nil closed form; hyperbolic exponential leading term
# ---------------------------------------------------------------------------

def test_criterion_04_umbrella_areas():
    tau = 1.0
    surf = umbrella(SpaceParams(0.0, tau))
    fam = RegionFamily("extrinsic_ball")
    rel = 0.0
    for R in (1.0, 2.0, 4.0):
        exact = 2.0 * math.pi / (3.0 * tau**2) * ((1.0 + tau**2 * R * R) ** 1.5 - 1.0)
        rel = max(rel, abs(region_area(surf, fam, R) / exact - 1.0))

    surf_h = umbrella(SpaceParams(-1.0, 1.0))
    radii = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    areas = [region_area(surf_h, fam, R) for R in radii]
    fit = volume_growth_fit(radii, areas)
    rate_err = abs(fit.exp_rate - 1.0)
    # leading coefficient at the largest measured radius, using the
    # theoretical rate sqrt(-kappa) = 1
    prefactor = areas[-1] * math.exp(-radii[-1])
    prefactor_err = abs(prefactor / (math.pi * math.sqrt(5.0)) - 1.0)
    ok = rel < 1e-3 and rate_err < 0.10 and prefactor_err < 0.15
    _report(
        4, ok,
        f"Nil umbrella rel err={rel:.2e} (<1e-3); hyperbolic rate "
        f"{fit.exp_rate:.3f} (|err|<0.1), prefactor ratio err={prefactor_err:.3f} (<0.15)",
    )


# ---------------------------------------------------------------------------
# 5. minimality of the examples on 50 x 50 grids
# ---------------------------------------------------------------------------

def test_criterion_05_minimality():
    worst = 0.0

    def grid_max(g, xs, ys):
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        H = mean_curvature(g, BasePoint(X, Y))
        return float(np.max(np.abs(H)))

    lin = np.linspace(-2.0, 2.0, 50)
    worst = max(worst, grid_max(umbrella(SpaceParams(0.0, 1.0)).graph, lin, lin))
    for a, b in ((1.0, 0.0), (0.7, -1.3)):
        worst = max(worst, grid_max(affine_plane(1.0, a, b).graph, lin, lin))
    for theta in (-1.0, 0.0, 1.0):
        worst = max(worst, grid_max(fmp_surface(1.0, theta).graph, lin, lin))
    cat = catenoid(1.0, 1.0, 1e4).graph
    rs = np.linspace(1.5, 8.0, 50)
    X = np.concatenate([rs, -rs[:25], np.zeros(25)])
    Y = np.concatenate([np.zeros(50), rs[:25], rs[:25]])
    ang = np.linspace(0.0, 2 * math.pi, 50, endpoint=False)
    R_, A_ = np.meshgrid(rs, ang, indexing="ij")
    worst = max(
        worst,
        float(np.max(np.abs(
            mean_curvature(cat, BasePoint(R_ * np.cos(A_), R_ * np.sin(A_)))
        ))),
    )
    ok = worst < 1e-6
    _report(5, ok, f"max |H| over example grids = {worst:.2e} (<1e-6)")


# ---------------------------------------------------------------------------
# 6. catenoid: first integral, asymptotic slope, Collin-Krust liminf
# ---------------------------------------------------------------------------

def test_criterion_06_catenoid():
    drift = 0.0
    for tau, H, E in ((1.0, 0.0, 1.0), (0.5, 0.0, 2.0), (1.0, 0.3, 1.0)):
        prof = cmc_profile(tau, H, E, 10.0)
        fi = prof.first_integral()
        drift = max(drift, float(np.max(np.abs(fi - fi[0]))))

    slope_err = 0.0
    liminf_ok = True
    liminfs = []
    for E, tau in ((1.0, 1.0), (2.0, 0.5)):
        r = 100.0 * E
        slope_err = max(slope_err, abs(catenoid_height(tau, E, r) / r / (E * tau) - 1.0))
        surf = catenoid(tau, E, 1e4)
        sweep = collin_krust_sweep(surf.graph, np.linspace(50.0 * E, 200.0 * E, 7))
        liminfs.append(sweep.liminf_linear)
        liminf_ok &= sweep.liminf_linear > 0.5 * E * tau
    ok = drift < 1e-8 and slope_err < 0.05 and liminf_ok
    _report(
        6, ok,
        f"first-integral drift={drift:.2e} (<1e-8), slope err={slope_err:.3f} "
        f"(<0.05), CK liminf slopes {liminfs[0]:.3f}/{liminfs[1]:.3f} (> 0.5 E tau)",
    )


# ---------------------------------------------------------------------------
# 7. FMP surface: intrinsic lower bound and cubic growth
# ---------------------------------------------------------------------------

def test_criterion_07_fmp_growth():
    surf = fmp_surface(1.0, 0.0)
    lb = surf.closed_forms["intrinsic_area_lower_bound"]
    radii = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]
    intr = intrinsic_area_table(surf.graph, radii)
    bound_ok = all(a >= lb(R) for R, a in zip(radii, intr))
    margin = min(a / lb(R) for R, a in zip(radii, intr))
    e_intr = volume_growth_fit(radii, intr).power_exponent
    extr = [_extrinsic_area(surf.graph, R) for R in radii]
    e_extr = volume_growth_fit(radii, extr).power_exponent
    ok = bound_ok and 2.6 <= e_intr <= 3.4 and e_extr <= 3.4
    _report(
        7, ok,
        f"intrinsic >= closed-form bound (min ratio {margin:.3f}), intrinsic "
        f"exponent {e_intr:.3f} in [2.6,3.4], extrinsic exponent {e_extr:.3f} <= 3.4",
    )


# ---------------------------------------------------------------------------
# 8. lemma area functionals dominate measured extrinsic areas
# ---------------------------------------------------------------------------

def test_criterion_08_lemma_bounds():
    surfaces = {
        "umbrella": umbrella(SpaceParams(0.0, 1.0)),
        "plane": affine_plane(1.0, 1.0, 0.5),
        "fmp": fmp_surface(1.0, 0.0),
        "catenoid": catenoid(1.0, 1.0, 1e4),
    }
    ok = True
    worst = math.inf
    for name, surf in surfaces.items():
        for R in (2.0, 4.0, 8.0):
            area = region_area(surf, RegionFamily("extrinsic_ball"), R)
            b41 = lemma41_bound(surf.graph, R).total
            b42 = lemma42_bound(surf.graph, R).total
            ok &= b41 >= area and b42 >= area
            worst = min(worst, b41 / area, b42 / area)
    _report(
        8, ok,
        f"lemma bounds dominate extrinsic areas at R=2,4,8 "
        f"(min bound/area ratio {worst:.3f})",
    )


# ---------------------------------------------------------------------------
# 9. calibration margin of random polynomial graphs over D_2
# ---------------------------------------------------------------------------

def test_criterion_09_calibration():
    sp = SpaceParams(0.0, 1.0)
    rng = np.random.default_rng(909)
    dom = BaseDomain.disk(2.0)
    min_margin = math.inf
    for _ in range(100):
        c = rng.uniform(-1.0, 1.0, (3, 3))
        cx = np.polynomial.polynomial.polyder(c, axis=0)
        cy = np.polynomial.polynomial.polyder(c, axis=1)
        g = GraphSurface(
            sp, dom,
            lambda x, y, c=c: np.polynomial.polynomial.polyval2d(x, y, c),
            lambda x, y, cx=cx, cy=cy: (
                np.polynomial.polynomial.polyval2d(x, y, cx),
                np.polynomial.polynomial.polyval2d(x, y, cy),
            ),
        )
        _, _, margin = calibration_check(g)
        min_margin = min(min_margin, margin)
    g_const = GraphSurface(
        sp, dom,
        lambda x, y: np.full(np.shape(x), 0.37),
        lambda x, y: (np.zeros(np.shape(x)), np.zeros(np.shape(x))),
    )
    _, _, const_margin = calibration_check(g_const)
    ok = min_margin >= -1e-8 and min_margin > 1e-8 and abs(const_margin) < 1e-8
    _report(
        9, ok,
        f"min margin over 100 random graphs {min_margin:.3e} (>=-1e-8, "
        f">1e-8 since nonconstant); constant-graph margin {const_margin:.1e}",
    )


# ---------------------------------------------------------------------------
# 10. factorization identity
# ---------------------------------------------------------------------------

def test_criterion_10_factorization():
    rng = np.random.default_rng(1010)
    worst_res = 0.0
    min_lhs = math.inf
    for _ in range(1000):
        sp = SpaceParams(rng.uniform(-2.0, 0.0), rng.uniform(0.0, 2.0))
        scale = 1.0 if sp.kappa == 0.0 else 0.4 * sp.model_radius
        p = BasePoint(*(scale * rng.uniform(-1.0, 1.0, 2)))
        gu = tuple(rng.uniform(-3.0, 3.0, 2))
        gv = tuple(rng.uniform(-3.0, 3.0, 2))
        worst_res = max(worst_res, factorization_identity_residual(sp, p, gu, gv))
        min_lhs = min(min_lhs, factorization_lhs(sp, p, gu, gv))
    ok = worst_res < 1e-12 and min_lhs >= 0.0
    _report(
        10, ok,
        f"factorization residual max={worst_res:.2e} (<1e-12), min LHS="
        f"{min_lhs:.2e} (>=0)",
    )


# ---------------------------------------------------------------------------
# 11. ideal polygon closed form vs triangulated numeric area
# ---------------------------------------------------------------------------

def test_criterion_11_ideal_polygon():
    worst = 0.0
    for kappa in (-1.0, -4.0):
        for n in (2, 3, 5):
            closed = ideal_polygon_area(kappa, n, 0.0)
            numeric = ideal_polygon_area_numeric(kappa, n)
            worst = max(worst, abs(closed / numeric - 1.0))
    ok = worst < 1e-6
    _report(11, ok, f"ideal polygon closed vs numeric rel err={worst:.2e} (<1e-6)")


# ---------------------------------------------------------------------------
# 12. ordering invariant: intrinsic <= extrinsic <= cylindrical
# ---------------------------------------------------------------------------

def test_criterion_12_ordering():
    slack = 1.02  # combined quadrature + grid-Dijkstra error allowance
    ok = True
    rows = []
    for surf in (umbrella(SpaceParams(0.0, 1.0)), fmp_surface(1.0, 0.0)):
        g = surf.graph
        radii = [2.0, 4.0, 6.0]
        intr = intrinsic_area_table(g, radii)
        for R, a_i in zip(radii, intr):
            a_e = _extrinsic_area(g, R)
            a_c = graph_area(g, R).value
            ok &= a_i <= a_e * slack and a_e <= a_c * slack
            rows.append((surf.name, R, a_i, a_e, a_c))
    detail = "; ".join(
        f"{n} R={R:g}: {ai:.1f}<={ae:.1f}<={ac:.1f}" for n, R, ai, ae, ac in rows[2::3]
    )
    _report(12, ok, f"intrinsic<=extrinsic<=cylinder within 2% ({detail})")


# ---------------------------------------------------------------------------
# 13. at-least-cubic cylindrical growth of entire Nil3 graphs
# ---------------------------------------------------------------------------

def test_criterion_13_cylindrical_lower_bound():
    tau = 1.0
    radii = [5.0, 7.5, 11.0, 17.0, 25.0, 40.0]
    exps = {}
    for name, surf in (
        ("u=0", umbrella(SpaceParams(0.0, tau))),
        ("u=tau*x*y", fmp_surface(tau, 0.0)),
        ("u=ax+by", affine_plane(tau, 1.0, 0.5)),
    ):
        areas = [graph_area(surf.graph, R).value for R in radii]
        exps[name] = volume_growth_fit(radii, areas).power_exponent
    ok = all(e >= 2.6 for e in exps.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in exps.items())
    _report(13, ok, f"cylinder exponents >= 2.6 ({detail})")


# ---------------------------------------------------------------------------
# 14. bit-identical CLI output across runs, config files and interpreters
# ---------------------------------------------------------------------------

def test_criterion_14_cli_determinism(tmp_path, capsys):
    from ektau.cli import main

    params = {"tau": "1", "radii": "1,2,3", "samples": "50000", "seed": "77"}
    flags = [f for key, value in params.items() for f in (f"--{key}", value)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in params.items()))
    src = str(pathlib.Path(ektau.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def out(label):
        return ["ball-volume", "--format", "json", "--out", str(tmp_path / f"{label}.json")]

    assert main(out("flags") + flags) == 0
    assert main(out("config") + ["--config", str(cfg)]) == 0
    capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "ektau.cli", *out("fresh"), *flags],
                           env=env, capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    outputs = [(tmp_path / f"{label}.json").read_bytes()
               for label in ("flags", "config", "fresh")]
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        14, ok,
        f"seeded CLI output bit-identical from flags, from --config and in a fresh "
        f"interpreter ({len(outputs[0])} bytes each)",
    )
