"""Command-line front end: deterministic CSV/JSON tables for the library.

Subcommands: geodesic, ball-volume, growth, collin-krust.  Parameters come
from flags, optionally seeded by a flat key=value config file (flags win);
unknown config keys are rejected.  Output is RFC-4180-style CSV (LF line
endings, '.' decimal) or JSON with stable key order validating against the
schema shipped in ektau/schemas/output.schema.json.

geodesic samples geodesics.closed_geodesic, the closed form through the
origin, so its rows carry no integration error.  growth and collin-krust
build the examples umbrella, plane, fmp and catenoid; the catenoid is the
upper half-catenoid over the whole annulus r > --neck, so no flag
truncates its domain.

Exit codes: 0 success, 2 usage/validation error (including a nan or
infinite numeric flag, geodesic --family or --a for kappa >= 0 and
geodesic --phi or --theta for kappa < 0, where they select nothing, an
argument the library rejects with ValueError, and a config or output file
that cannot be opened) or a space the command does not support,
3 hypothesis violation, 4 numerical failure (floating-point overflow,
division by zero, invalid operations and a kappa < 0 geodesic that
reaches the model rim included).  All work runs in the
calling thread, except that with two or more CPUs one helper thread draws
the radius rows of Monte Carlo samples; output is bit-identical for
identical parameters and seed, whatever the number of CPUs.

The argument parser is built once per process, on first use, and never
mutated; config values are applied on a fresh parser.  Importing this
module loads numpy and ektau only: scipy is imported by the functions
that call it, so only growth --family intrinsic loads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .core import PointE, SpaceParams
from .errors import (
    ConvergenceError,
    HypothesisViolationError,
    ModelDomainError,
    UnsupportedSpaceError,
)
from .balls import BallSpec, mc_volume, volume_growth_fit
from .geodesics import closed_geodesic
from .growth import collin_krust_sweep, growth_verdict, region_areas
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
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc.strerror}") from exc
    with fh:
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
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc.strerror}") from exc
        with fh:
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_geodesic(args) -> None:
    sp = SpaceParams(args.kappa, args.tau)
    if args.steps < 1:
        raise CliError("steps must be at least 1")
    if sp.kappa < 0.0:
        if args.phi is not None or args.theta is not None:
            raise CliError("--phi and --theta select kappa>=0 directions only")
        direction = {"family": "horizontal" if args.family is None else args.family, "a": args.a}
    else:
        if args.family is not None or args.a is not None:
            raise CliError("--family and --a select kappa<0 families only")
        direction = {"phi": math.pi / 2 if args.phi is None else args.phi,
                     "theta": 0.0 if args.theta is None else args.theta}
    t = np.linspace(0.0, args.t_end, args.steps + 1)
    (x, y, z), (a1, a2, a3) = closed_geodesic(sp, t, **direction)
    drift = np.abs(np.sqrt(a1**2 + a2**2 + a3**2) - 1.0)
    # + 0.0 turns the -0.0 that a closed form can give at t = 0 into 0.0
    rows = (np.column_stack([t, x, y, z, a1, a2, a3, drift]) + 0.0).tolist()
    params = {
        "kappa": args.kappa, "tau": args.tau, "phi": None, "theta": None,
        "family": None, "a": args.a, **direction,
        "t_end": args.t_end, "steps": args.steps,
    }
    emit(args, "geodesic", params,
         ["t", "x", "y", "z", "a1", "a2", "a3", "speed_drift"], rows)


def cmd_ball_volume(args) -> None:
    sp = SpaceParams(args.kappa, args.tau)
    if args.samples < 1000:
        raise CliError("samples must be at least 1000")
    if not -(2**63) <= args.seed < 2**63:
        raise CliError("seed must fit in a signed 64-bit integer")
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


# example name -> ((description, test) of the spaces it is defined in, builder)
_EVERY_SPACE = ("every E(kappa, tau)", lambda sp: True)
_KAPPA_ZERO = ("kappa = 0", lambda sp: sp.kappa == 0.0)
EXAMPLES = {
    "umbrella": (_EVERY_SPACE, lambda sp, args: umbrella(sp)),
    "plane": (_KAPPA_ZERO, lambda sp, args: affine_plane(sp.tau, args.a_coef, args.b_coef)),
    "fmp": (_KAPPA_ZERO, lambda sp, args: fmp_surface(sp.tau, args.theta_param)),
    "catenoid": (_KAPPA_ZERO, lambda sp, args: catenoid(sp.tau, args.neck)),
}


def _build_example(args):
    sp = SpaceParams(args.kappa, args.tau)
    if args.example not in EXAMPLES:
        raise CliError(f"unknown example {args.example!r}")
    (spaces, supports), build = EXAMPLES[args.example]
    if not supports(sp):
        raise UnsupportedSpaceError(f"example {args.example!r} is defined for {spaces} only")
    return build(sp, args)


def cmd_growth(args) -> None:
    surface = _build_example(args)
    radii = _parse_radii(args.radii)
    rows = list(zip(radii, region_areas(surface, args.family, radii)))
    extras = {}
    if len(radii) >= 6:
        expected = {"model": "power", "value": 3.0, "comparison": "exact"}
        if args.kappa < 0.0:
            expected = {"model": "exponential", "value": math.sqrt(-args.kappa),
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
    surface = _build_example(args)
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
    p.add_argument("--phi", type=float, default=None,
                   help="polar angle for kappa>=0 (default pi/2); rejected for kappa<0")
    p.add_argument("--theta", type=float, default=None,
                   help="azimuth for kappa>=0 (default 0); rejected for kappa<0")
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
    p.set_defaults(run=cmd_growth)

    p = sub.add_parser("collin-krust", help="sup-height sweep M(r) of a graph")
    _add_common(p)
    p.add_argument("--example", default="catenoid")
    p.add_argument("--radii", default="50,75,100,150,200")
    p.add_argument("--neck", type=float, default=1.0)
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
    """Reject nan and infinite float flags."""
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"--{key.replace('_', '-')} must be finite, got {value!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
        args = _apply_config(args, argv)
        _check_finite(args)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.run(args)
    except (CliError, UnsupportedSpaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConvergenceError, ModelDomainError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
