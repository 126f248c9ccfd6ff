"""Command-line front end: deterministic CSV/JSON tables for the library.

Subcommands: geodesic, ball-volume, growth, collin-krust.  Parameters come
from flags, optionally seeded by a flat key=value config file (flags win);
unknown config keys are rejected.  Output is RFC-4180-style CSV (LF line
endings, '.' decimal) or JSON with stable key order validating against the
schema shipped in ektau/schemas/output.schema.json.

Exit codes: 0 success, 2 usage/validation error (including a nan or
infinite numeric flag, and geodesic --family or --a for kappa >= 0, where
they select nothing) or a space the command does not support,
3 hypothesis violation, 4 numerical failure.  All work runs in the calling
thread, and output is bit-identical for identical parameters and seed.

The argument parser is built once per process, on first use, and never
mutated; config values are applied on a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .core import FrameVector, PointE, SpaceParams
from .errors import (
    ConvergenceError,
    HypothesisViolationError,
    ModelDomainError,
    UnsupportedSpaceError,
)
from .balls import BallSpec, mc_volume, volume_growth_fit
from .geodesics import (
    GeodesicSpec,
    integrate_geodesic,
    nil_geodesic_velocity,
    sl2_geodesic_velocity,
    sl2_families,
)
from .growth import (
    FAMILY_TAGS,
    RegionFamily,
    collin_krust_sweep,
    growth_verdict,
    region_area,
)
from .surfaces import catenoid, fmp_surface, umbrella, affine_plane

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    """Validation failure mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Config and output plumbing
# ---------------------------------------------------------------------------

def read_config(path: str, known_keys) -> dict:
    """Parse a flat key=value file; unknown keys are rejected."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known_keys:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(args, command: str, params: dict, columns, rows, extras=None) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt_cell(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "command": command,
            "params": params,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        if extras is not None:
            doc["extras"] = extras
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_radii(spec: str):
    try:
        radii = [float(x) for x in spec.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad radii list {spec!r}") from exc
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise CliError("radii must be positive and finite")
    return radii


def _space(args) -> SpaceParams:
    try:
        return SpaceParams(args.kappa, args.tau)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_geodesic(args) -> None:
    sp = _space(args)
    if args.steps < 1:
        raise CliError("steps must be at least 1")
    family = args.family
    if sp.kappa >= 0.0 and (family is not None or args.a is not None):
        raise CliError("--family and --a select kappa<0 families only")
    if sp.kappa == 0.0 and sp.tau > 0.0:
        if not (0.0 <= args.phi <= math.pi):
            raise CliError("phi must lie in [0, pi]")
        v0 = nil_geodesic_velocity(sp.tau, args.phi, args.theta, 0.0)
    elif sp.kappa < 0.0:
        family = "horizontal" if family is None else family
        if family not in sl2_families:
            raise CliError(f"family must be one of {sl2_families}")
        try:
            v0 = sl2_geodesic_velocity(sp, family, args.a, 0.0)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        c, s = math.cos(args.theta), math.sin(args.theta)
        ph = args.phi
        v0 = FrameVector(c * math.sin(ph), s * math.sin(ph), math.cos(ph))
    spec = GeodesicSpec(PointE(0.0, 0.0, 0.0), v0)
    samples = integrate_geodesic(sp, spec, args.t_end, n_samples=args.steps + 1)
    rows = []
    for s_ in samples:
        p, v = s_.point, s_.velocity
        rows.append(
            (s_.t, p.x, p.y, p.z, v.a1, v.a2, v.a3, abs(v.norm() - 1.0))
        )
    params = {
        "kappa": args.kappa, "tau": args.tau, "phi": args.phi,
        "theta": args.theta, "family": family, "a": args.a,
        "t_end": args.t_end, "steps": args.steps,
    }
    emit(args, "geodesic", params,
         ["t", "x", "y", "z", "a1", "a2", "a3", "speed_drift"], rows)


def cmd_ball_volume(args) -> None:
    sp = _space(args)
    if args.samples < 1000:
        raise CliError("samples must be at least 1000")
    radii = _parse_radii(args.radii)
    rows = []
    for R in radii:
        est = mc_volume(BallSpec(sp, PointE(0.0, 0.0, 0.0), R), args.samples, args.seed)
        rows.append((R, est.value, est.std_error, est.bounding_volume))
    extras = {}
    if len(radii) >= 6:
        fit = volume_growth_fit(radii, [r[1] for r in rows])
        extras = {
            "fit_power_exponent": fit.power_exponent,
            "fit_exp_rate": fit.exp_rate,
            "fit_preferred": fit.preferred,
        }
        rows.append(("fit_power_exponent", fit.power_exponent, "", ""))
    params = {"kappa": args.kappa, "tau": args.tau, "radii": args.radii,
              "samples": args.samples, "seed": args.seed}
    emit(args, "ball-volume", params,
         ["R", "volume", "std_err", "bounding_volume"], rows, extras)


def _build_example(args, sp: SpaceParams):
    name = args.example
    if name == "umbrella":
        return umbrella(sp)
    nil_only = {
        "plane": lambda: affine_plane(sp.tau, args.a_coef, args.b_coef),
        "fmp": lambda: fmp_surface(sp.tau, args.theta_param),
        "catenoid": lambda: catenoid(sp.tau, args.neck, args.r_max),
    }
    if name not in nil_only:
        raise CliError(f"unknown example {name!r}")
    if sp.kappa != 0.0:
        raise UnsupportedSpaceError(f"example {name!r} is defined for kappa = 0 only")
    try:
        return nil_only[name]()
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_growth(args) -> None:
    sp = _space(args)
    surface = _build_example(args, sp)
    fam_tag = FAMILY_TAGS.get(args.family)
    if fam_tag is None:
        raise CliError("family must be intrinsic, extrinsic or cylinder")
    radii = _parse_radii(args.radii)
    rows = [(R, region_area(surface, RegionFamily(fam_tag), R)) for R in radii]
    extras = {}
    if len(radii) >= 6:
        expected = {"model": "power", "value": 3.0, "comparison": "exact"}
        if sp.kappa < 0.0:
            expected = {"model": "exponential", "value": math.sqrt(-sp.kappa),
                        "comparison": "exact"}
        verdict, fit = growth_verdict(radii, [r[1] for r in rows], expected)
        extras = {
            "fit_power_exponent": fit.power_exponent,
            "fit_exp_rate": fit.exp_rate,
            "fit_preferred": fit.preferred,
            "expected": expected,
            "verdict": verdict,
        }
    params = {"kappa": args.kappa, "tau": args.tau, "example": args.example,
              "family": args.family, "radii": args.radii}
    emit(args, "growth", params, ["R", "area"], rows, extras)


def cmd_collin_krust(args) -> None:
    sp = _space(args)
    surface = _build_example(args, sp)
    radii = _parse_radii(args.radii)
    sweep = collin_krust_sweep(surface.graph, radii)
    rows = [
        (float(r), float(m), float(m / r))
        for r, m in zip(sweep.radii, sweep.M)
    ]
    extras = {"liminf_linear": sweep.liminf_linear}
    if sweep.liminf_quadratic is not None:
        extras["liminf_quadratic"] = sweep.liminf_quadratic
    params = {"kappa": args.kappa, "tau": args.tau, "example": args.example,
              "radii": args.radii}
    emit(args, "collin-krust", params, ["r", "M", "M_over_r"], rows, extras)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ektau",
        description="Geometry of E(kappa, tau): geodesics, ball volumes, "
        "area growth of minimal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesic", help="sample a geodesic through the origin")
    _add_common(p)
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--family", default=None,
                   help="kappa<0 family (default horizontal); rejected for kappa>=0")
    p.add_argument("--a", type=float, default=None, help="kappa<0 family parameter")
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(run=cmd_geodesic)

    p = sub.add_parser("ball-volume", help="Monte Carlo geodesic-ball volumes")
    _add_common(p)
    p.add_argument("--radii", default="1", help="comma-separated radii")
    p.add_argument("--samples", type=int, default=10**5)
    p.set_defaults(run=cmd_ball_volume)

    p = sub.add_parser("growth", help="area of an example surface vs radius")
    _add_common(p)
    p.add_argument("--example", default="umbrella")
    p.add_argument("--family", default="extrinsic")
    p.add_argument("--radii", default="1,2,4")
    p.add_argument("--theta-param", type=float, default=0.0, help="fmp parameter")
    p.add_argument("--a-coef", type=float, default=1.0, help="plane slope in x")
    p.add_argument("--b-coef", type=float, default=0.0, help="plane slope in y")
    p.add_argument("--neck", type=float, default=1.0, help="catenoid neck radius")
    p.add_argument("--r-max", type=float, default=1e4)
    p.set_defaults(run=cmd_growth)

    p = sub.add_parser("collin-krust", help="sup-height sweep M(r) of a graph")
    _add_common(p)
    p.add_argument("--example", default="catenoid")
    p.add_argument("--radii", default="50,75,100,150,200")
    p.add_argument("--neck", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=1e4)
    p.add_argument("--theta-param", type=float, default=0.0)
    p.add_argument("--a-coef", type=float, default=1.0)
    p.add_argument("--b-coef", type=float, default=0.0)
    p.set_defaults(run=cmd_collin_krust)

    return parser


_shared_parser = functools.cache(build_parser)


def _apply_config(args, argv):
    """Overlay config-file values under explicit flags.

    The values become the subcommand's defaults on a fresh parser, which
    re-parses argv, so explicit flags win and the shared parser is never
    changed.
    """
    if not args.config:
        return args
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    defaults = {}
    for key, raw in read_config(args.config, actions).items():
        action = actions[key]
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise CliError(f"config key {key!r}: bad value {raw!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise CliError(f"config key {key!r}: {raw!r} is not one of {action.choices}")
        defaults[key] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _check_finite(args) -> None:
    """Reject nan and infinite float flags; --r-max may be +inf (no truncation)."""
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            if key == "r_max" and value == math.inf:
                continue
            raise CliError(f"--{key.replace('_', '-')} must be finite, got {value!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
        args = _apply_config(args, argv)
        _check_finite(args)
        args.run(args)
    except (CliError, UnsupportedSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConvergenceError, ModelDomainError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
