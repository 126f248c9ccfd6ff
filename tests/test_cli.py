"""Tests for the command-line interface: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import ektau
from ektau import growth
from ektau.core import FrameVector, PointE, SpaceParams
from ektau.graphs import graph_area
from ektau.geodesics import (
    GeodesicSpec,
    integrate_geodesic,
    nil_geodesic_closed,
    nil_geodesic_velocity,
    sl2_families,
    sl2_geodesic_closed,
    sl2_geodesic_velocity,
)
from ektau.surfaces import umbrella
from ektau.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture(scope="module")
def schema():
    import importlib.resources as res

    with res.files("ektau").joinpath("schemas/output.schema.json").open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGeodesic:
    def test_csv_table(self, capsys):
        code, out, err = run_cli(
            capsys, "geodesic", "--tau", "1", "--phi", str(math.pi / 3),
            "--t-end", "2", "--steps", "10",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "t,x,y,z,a1,a2,a3,speed_drift"
        assert len(lines) == 12
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == sorted(ts)
        drift = max(float(line.split(",")[-1]) for line in lines[1:])
        assert drift < 1e-5

    def test_json_validates(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "geodesic", "--format", "json", "--t-end", "1", "--steps", "5"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["command"] == "geodesic"

    def test_invalid_phi_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "geodesic", "--tau", "1", "--phi", "7.0")
        assert code == EXIT_USAGE
        assert "phi" in err

    def test_sl2_family_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "geodesic", "--kappa", "-1", "--family", "spiral"
        )
        assert code == EXIT_USAGE
        assert "spiral" in err and all(family in err for family in sl2_families)

    @pytest.mark.parametrize("argv", [
        *(f"--tau {tau} --phi 1 --theta 0.3" for tau in ("1e-9", "1e-3", "1", "10")),
        "--tau 1 --phi 2.3 --theta -1 --t-end -3",
        "--tau 0 --phi 1 --theta 2",
        "--kappa -1 --tau 0",
        *(f"--kappa {kappa} --tau 0.7 --family {family}" for kappa in ("-1", "-0.5")
          for family in ("horizontal", "parabolic")),
        "--kappa -1 --tau 0.7 --family elliptic --a 0.8",
        "--kappa -1 --tau 0.7 --family hyperbolic --a 3",
        "--kappa -0.5 --tau 0.7 --family elliptic --a 1.5",
        "--kappa -0.5 --tau 0.7 --family hyperbolic --a 4",
    ])
    def test_rows_match_closed_forms_and_ode(self, capsys, argv):
        code, out, err = run_cli(capsys, "geodesic", "--t-end", "3", "--steps", "12",
                                 "--format", "json", *argv.split())
        assert code == EXIT_OK, err
        doc = json.loads(out)
        params, rows = doc["params"], doc["rows"]
        sp = SpaceParams(params["kappa"], params["tau"])
        for row in rows:
            p, v = _scalar_closed_form(sp, params, row[0])
            assert row[1:7] == pytest.approx([p.x, p.y, p.z, v.a1, v.a2, v.a3], rel=1e-12)
            assert row[7] <= 1e-12
        ode = integrate_geodesic(sp, GeodesicSpec(PointE(0.0, 0.0, 0.0), FrameVector(*rows[0][4:7])),
                                 params["t_end"], tol=1e-11, n_samples=len(rows))
        for row, s in zip(rows, ode):
            ref = [s.point.x, s.point.y, s.point.z, s.velocity.a1, s.velocity.a2, s.velocity.a3]
            assert row[:7] == pytest.approx([s.t, *ref], abs=1e-9)

    def test_subnormal_tau_is_the_straight_line(self, capsys):
        code, out, err = run_cli(capsys, "geodesic", "--tau", "1e-320", "--phi", "1",
                                 "--format", "json")
        assert code == EXIT_OK, err
        for t, x, y, z, *_ in json.loads(out)["rows"]:
            assert [x, y, z] == pytest.approx([0.0, math.sin(1.0) * t, math.cos(1.0) * t],
                                              rel=1e-12)

    def test_large_tau_is_fast_and_unit_speed(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "geodesic", "--tau", "1e6", "--phi", "1",
                                 "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK, err
        assert max(row[7] for row in json.loads(out)["rows"]) <= 1e-12

    def test_near_the_model_rim(self, capsys):
        argv = ["geodesic", "--kappa", "-1", "--tau", "0.5", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, "--t-end", "30")
        assert code == EXIT_OK, err
        assert max(row[7] for row in json.loads(out)["rows"]) <= 1e-12
        code, out, err = run_cli(capsys, *argv, "--t-end", "100")
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("numerical failure: ") and "model disk" in err

    @pytest.mark.parametrize("argv", [
        "--kappa 0 --tau 1 --family nil",
        "--kappa 0 --tau 1 --family horizontal",
        "--kappa 0 --tau 0 --family elliptic --a 0.5",
        "--kappa 0 --tau 1 --a 0.5",
    ])
    def test_family_and_a_exit_2_for_nonnegative_kappa(self, capsys, argv):
        code, out, err = run_cli(capsys, "geodesic", *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "kappa<0" in err

    @pytest.mark.parametrize("argv", [
        "--kappa -1 --tau 1 --phi 0.3",
        "--kappa -1 --tau 1 --theta 2",
        "--kappa -1 --tau 0 --phi 0.3 --theta 2",
        "--kappa -0.5 --tau 1 --family elliptic --a 0.5 --theta 0",
    ])
    def test_phi_and_theta_exit_2_for_negative_kappa(self, capsys, argv):
        code, out, err = run_cli(capsys, "geodesic", *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "kappa>=0" in err

    @pytest.mark.parametrize("tau", ["0", "1"])
    def test_phi_and_theta_default_for_nonnegative_kappa(self, capsys, tau):
        argv = ["geodesic", "--kappa", "0", "--tau", tau, "--steps", "4", "--format", "json"]
        code, default, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        params = json.loads(default)["params"]
        assert (params["phi"], params["theta"]) == (math.pi / 2, 0.0)
        code, explicit, _ = run_cli(capsys, *argv, "--phi", repr(math.pi / 2), "--theta", "0")
        assert code == EXIT_OK and explicit == default

    def test_family_defaults_to_horizontal_for_negative_kappa(self, capsys):
        argv = ["geodesic", "--kappa", "-1", "--tau", "0.5", "--steps", "4", "--format", "json"]
        code, default, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(default)["params"]["family"] == "horizontal"
        code, explicit, _ = run_cli(capsys, *argv, "--family", "horizontal")
        assert code == EXIT_OK and explicit == default


def _scalar_closed_form(sp, params, t):
    """(point, frame velocity) at t on the geodesic that a request's params describe."""
    if sp.kappa < 0.0:
        args = (sp, params["family"], params["a"], t)
        return sl2_geodesic_closed(*args), sl2_geodesic_velocity(*args)
    phi, theta = params["phi"], params["theta"]
    if sp.tau > 0.0:
        args = (sp.tau, phi, theta, t)
        return nil_geodesic_closed(*args), nil_geodesic_velocity(*args)
    v = FrameVector(math.cos(theta) * math.sin(phi), math.sin(theta) * math.sin(phi),
                    math.cos(phi))
    return PointE(v.a1 * t, v.a2 * t, v.a3 * t), v


class TestBallVolume:
    def test_euclidean_unit_ball(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball-volume", "--kappa", "0", "--tau", "0",
            "--radii", "1", "--samples", "200000", "--seed", "4",
        )
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        vol, std = float(row[1]), float(row[2])
        assert abs(vol - 4.0 * math.pi / 3.0) < 3.0 * std

    def test_subnormal_tau_is_euclidean(self, capsys):
        volumes = []
        for tau in ("1e-320", "0"):
            code, out, err = run_cli(capsys, "ball-volume", "--tau", tau, "--radii", "1",
                                     "--samples", "1000")
            assert code == EXIT_OK, err
            volumes.append([float(v) for v in out.splitlines()[1].split(",")[1:3]])
        (vol, std), (flat, _) = volumes
        assert abs(vol - flat) <= std

    def test_fit_row_appended(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball-volume", "--tau", "1",
            "--radii", "1,1.5,2,2.5,3,4", "--samples", "20000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("fit_power_exponent,")

    def test_sample_floor_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "ball-volume", "--samples", "10")
        assert code == EXIT_USAGE

    def test_unsupported_space_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "ball-volume", "--kappa", "-1", "--tau", "1", "--radii", "2",
            "--samples", "10000", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("space,radius", [
        (("--tau", "1"), "1e200"),  # nil_max_height overflows
        (("--tau", "1e300"), "1"),
        (("--kappa", "-1", "--tau", "0"), "1000"),  # the base disk area overflows
        (("--tau", "1"), "1e100"),  # the bounding cylinder's volume is infinite
        (("--tau", "0"), "1e150"),
    ])
    def test_overflow_exits_4(self, capsys, space, radius):
        code, out, err = run_cli(capsys, "ball-volume", *space, "--radii", radius,
                                 "--samples", "1000")
        assert code == EXIT_NUMERICAL
        assert out == "" and err.startswith("numerical failure: ")

    def test_json_validates(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "ball-volume", "--format", "json", "--radii", "1,2",
            "--samples", "5000",
        )
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out), schema)


class TestGrowth:
    def test_umbrella_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--example", "umbrella", "--family", "extrinsic",
            "--tau", "1", "--radii", "1,2",
        )
        assert code == EXIT_OK
        # the CLI prints the closed form; the annulus quadrature checks it
        umbrella_graph = umbrella(SpaceParams(0.0, 1.0)).graph
        for line in out.splitlines()[1:]:
            R, area = (float(v) for v in line.split(","))
            assert abs(area / graph_area(umbrella_graph, R).value - 1.0) < 1e-10

    @pytest.mark.parametrize("family", ["sphere", "extrinsic_ball"])
    def test_unknown_family_exits_2(self, capsys, family):
        code, out, err = run_cli(capsys, "growth", "--family", family)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: family must be extrinsic, intrinsic or cylinder")

    @pytest.mark.parametrize("example,code", [
        ("umbrella", EXIT_OK), ("plane", EXIT_OK), ("fmp", EXIT_OK),
        ("catenoid", EXIT_OK), ("ideal-polygon", EXIT_USAGE),
    ])
    def test_example_names(self, capsys, example, code):
        # the CLI's example table is the one name registry; ideal polygons
        # are a closed-form area, not a surface
        got, _, _ = run_cli(capsys, "growth", "--example", example,
                            "--family", "cylinder", "--radii", "2")
        assert got == code

    def test_intrinsic_radii_share_one_distance_field(self, capsys, monkeypatch):
        grid_sizes = []
        solve = growth._intrinsic_distances

        def counted(g, L, n, *args, **kwargs):
            grid_sizes.append(n)
            return solve(g, L, n, *args, **kwargs)

        monkeypatch.setattr(growth, "_intrinsic_distances", counted)
        # the plane has no closed-form intrinsic area, so the grid runs
        code, out, _ = run_cli(capsys, "growth", "--example", "plane", "--family",
                               "intrinsic", "--radii", "4,5,6.5,8,10,12")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 7
        # one solve per grid level, each sized for R = 12
        assert 1 <= len(grid_sizes) <= 4
        assert grid_sizes == sorted(set(grid_sizes))

    def test_unknown_example_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "growth", "--example", "torus")
        assert code == EXIT_USAGE

    def test_catenoid_defaults_read_0_inside_the_neck(self, capsys):
        # the defaults --radii 1,2,4 --neck 1 start at R = E, where the
        # extrinsic ball does not meet the graph
        code, out, err = run_cli(capsys, "growth", "--example", "catenoid")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[:2] == ["R,area", "1.0,0.0"]
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[2:])

    def test_fit_over_an_empty_region_exits_2(self, capsys):
        # six radii ask for a fit, which needs positive areas
        code, out, err = run_cli(capsys, "growth", "--example", "catenoid",
                                 "--radii", "1,2,3,4,5,6")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

    def test_intrinsic_balls_off_the_domain_exit_3_before_any_solve(
            self, capsys, monkeypatch):
        # the catenoid's domain is an annulus: no surface point lies over the
        # origin, where intrinsic balls are centred
        calls = []
        monkeypatch.setattr(growth, "_intrinsic_distances",
                            lambda *args, **kwargs: calls.append(args))
        code, out, err = run_cli(capsys, "growth", "--example", "catenoid",
                                 "--family", "intrinsic", "--radii", "2")
        assert code == EXIT_HYPOTHESIS
        assert out == "" and err.startswith("hypothesis violation: ")
        assert calls == []

    def test_overflow_exits_4(self, capsys):
        # W = sqrt(1 + |Gu|^2) overflows for tau = 1e308
        code, out, err = run_cli(capsys, "growth", "--tau", "1e308")
        assert code == EXIT_NUMERICAL
        assert out == "" and err.startswith("numerical failure: ")

    def test_json_extras_carry_verdict(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "growth", "--example", "umbrella", "--family", "cylinder",
            "--format", "json", "--radii", "1,1.5,2,2.5,3,4",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["extras"]["verdict"] == "consistent"


class TestCollinKrust:
    def test_catenoid_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "collin-krust", "--example", "catenoid",
            "--radii", "50,100,150,200",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "r,M,M_over_r"
        slopes = [float(line.split(",")[2]) for line in lines[1:]]
        # the sup-height slope approaches E tau = 1 from above
        assert all(abs(s - 1.0) < 0.1 for s in slopes)

    def test_radii_inside_the_neck_see_no_surface(self, capsys):
        # the catenoid with neck 1 has no point over D_r for r < 1, so M = 0
        # there; a radius of 5e-324 also leaves M / r finite
        code, out, _ = run_cli(capsys, "collin-krust", "--example", "catenoid",
                               "--radii", "5e-324,0.5,2,4")
        assert code == EXIT_OK
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert [r[1] for r in rows[:2]] == [0.0, 0.0]
        assert [r[2] for r in rows[:2]] == [0.0, 0.0]
        assert 0.0 < rows[2][1] < rows[3][1]

    def test_zero_boundary_violation_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "collin-krust", "--example", "umbrella", "--radii", "1,2,4"
        )
        assert code == EXIT_HYPOTHESIS
        assert "hypothesis violation" in err


class TestConfigAndOutput:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep config\nt-end = 2.0\nsteps = 4\n")
        code, out, _ = run_cli(capsys, "geodesic", "--config", str(cfg))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 6
        assert float(lines[-1].split(",")[0]) == 2.0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 4\n")
        code, out, _ = run_cli(
            capsys, "geodesic", "--config", str(cfg), "--steps", "2", "--t-end", "1"
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor = 9\n")
        code, _, err = run_cli(capsys, "geodesic", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "warp_factor" in err

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, _ = run_cli(capsys, "geodesic", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_out_file_lf_endings(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code = main(["geodesic", "--t-end", "1", "--steps", "3", "--out", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_deterministic_across_runs_config_and_interpreters(self, tmp_path, capsys):
        params = {"tau": "1", "radii": "1,2", "samples": "30000", "seed": "123"}
        flags = [f for key, value in params.items() for f in (f"--{key}", value)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in params.items()))
        runs = {"flags": flags, "again": flags, "config": ["--config", str(cfg)]}
        for label, extra in runs.items():
            code = main(["ball-volume", "--out", str(tmp_path / label), *extra])
            capsys.readouterr()
            assert code == EXIT_OK
        src = str(pathlib.Path(ektau.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-m", "ektau.cli", "ball-volume",
             "--out", str(tmp_path / "fresh"), *flags],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert fresh.returncode == EXIT_OK, fresh.stderr
        outs = [(tmp_path / label).read_bytes() for label in (*runs, "fresh")]
        assert outs[0].startswith(b"R,volume,std_err,bounding_volume\n")
        assert all(out == outs[0] for out in outs)


class TestBadNumericInput:
    @pytest.mark.parametrize("argv,config", [
        ("ball-volume --tau inf --samples 1000", None),
        ("ball-volume --kappa nan --samples 1000", None),
        ("ball-volume --radii nan", None),
        ("ball-volume --radii inf", None),
        ("growth --example umbrella --radii nan", None),
        ("collin-krust --radii inf", None),
        ("geodesic --t-end nan", None),
        ("geodesic --t-end inf", None),
        ("geodesic --steps -3", None),
        ("geodesic --steps 0", None),
        ("geodesic --theta nan", None),
        ("geodesic --phi nan", None),
        ("geodesic --kappa -1 --a nan", None),
        ("growth --example catenoid --neck nan", None),
        ("growth --example catenoid --neck -1", None),
        ("growth --example fmp --tau 0", None),
        ("growth --example plane --a-coef inf", None),
        ("geodesic", "steps=abc"),
        ("geodesic", "t_end=nan"),
        ("geodesic", "format=xml"),
    ])
    def test_exits_2_with_an_error_line(self, capsys, tmp_path, argv, config):
        argv = argv.split()
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestNilOnlyExamples:
    @pytest.mark.parametrize("command,example", [
        ("collin-krust", "catenoid"), ("growth", "fmp"), ("growth", "plane"),
    ])
    def test_nonzero_kappa_exits_2(self, capsys, command, example):
        code, out, err = run_cli(
            capsys, command, "--example", example, "--kappa", "-1", "--radii", "5,10"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "kappa" in err


class TestSharedParser:
    def test_config_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-end = 2.0\nsteps = 4\n")
        code, out, _ = run_cli(capsys, "geodesic", "--config", str(cfg))
        assert code == EXIT_OK and len(out.splitlines()) == 6
        code, out, _ = run_cli(capsys, "geodesic")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 102
        assert float(lines[-1].split(",")[0]) == 5.0

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


# A fresh interpreter imports the CLI, runs one request, writes the scipy
# modules it loaded to stderr and exits with the request's code; stdout is
# the CLI's own.
_COLD_RUN = (
    "import json, sys\n"
    "import ektau.cli\n"
    "code = ektau.cli.main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))\n"
    "sys.exit(code)\n"
)


class TestColdStart:
    """scipy is imported by the functions that call it, so a request that
    never reaches them starts without it; its output does not change."""

    @staticmethod
    def _cold(capsys, argv):
        src = str(pathlib.Path(ektau.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_RUN, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert proc.stdout == out.encode()
        return json.loads(proc.stderr.decode().splitlines()[-1])

    @pytest.mark.parametrize("argv", [
        ["ball-volume"],
        ["collin-krust"],
        ["growth"],
        ["growth", "--family", "extrinsic"],
        ["growth", "--family", "cylinder"],
        ["geodesic"],
        ["growth", "--example", "fmp", "--family", "intrinsic"],
    ])
    def test_loads_no_scipy(self, capsys, argv):
        assert self._cold(capsys, [*argv, "--format", "json"]) == []

    @pytest.mark.parametrize("argv", [
        ["growth", "--example", "plane", "--family", "intrinsic"],
    ])
    def test_loads_scipy_on_demand(self, capsys, argv):
        assert "scipy" in self._cold(capsys, [*argv, "--format", "json"])


# Flag values for the fuzz test: junk, specials and in-range numbers, with the
# work sizes capped (samples <= 2e4, radii <= 4, steps <= 50, |t_end| <= 10)
# so that every argument vector runs in well under a second.
_JUNK = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "0x10", "-0", "1,2"])
_NUMBER = st.one_of(st.floats(-6.0, 6.0).map(repr), st.integers(-3, 3).map(str),
                    st.sampled_from(["1e-300", "1e308", "-1e308", "800"]), _JUNK)
_RADII = st.one_of(
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6).map(
        lambda rs: ",".join(map(repr, rs))),
    st.sampled_from(["0", "-1", "4,nan", "a,b", ",", "1e-300"]),
)
_COMMON = {
    "--kappa": st.one_of(st.sampled_from(["0", "-1", "-4", "1", "-1e-12"]), _NUMBER),
    "--tau": st.one_of(st.sampled_from(["0", "1", "0.5", "-1"]), _NUMBER),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--seed": st.one_of(st.integers(-5, 5), st.integers(2**62, 2**70)).map(str),
    "--config": st.just("no/such/dir/run.cfg"),
    "--out": st.just("no/such/dir/out.csv"),
    "--bogus": _NUMBER,
}
_FLAGS = {
    "geodesic": {"--phi": _NUMBER, "--theta": _NUMBER, "--a": _NUMBER,
                 "--family": st.sampled_from(["horizontal", "elliptic", "parabolic",
                                              "hyperbolic", "nil"]),
                 "--t-end": st.one_of(st.floats(-10.0, 10.0).map(repr), _JUNK),
                 "--steps": st.one_of(st.integers(-3, 50).map(str), _JUNK)},
    "ball-volume": {"--radii": _RADII,
                    "--samples": st.one_of(st.integers(-1, 20000).map(str), _JUNK)},
    "growth": {"--example": st.sampled_from(["umbrella", "plane", "fmp", "catenoid", "scherk"]),
               "--family": st.sampled_from(["extrinsic", "intrinsic", "cylinder", "ball"]),
               "--radii": _RADII, "--theta-param": _NUMBER, "--a-coef": _NUMBER,
               "--b-coef": _NUMBER, "--neck": _NUMBER},
    "collin-krust": {"--example": st.sampled_from(["umbrella", "plane", "fmp", "catenoid"]),
                     "--radii": _RADII, "--neck": _NUMBER,
                     "--theta-param": _NUMBER, "--a-coef": _NUMBER, "--b-coef": _NUMBER},
}
# flags whose default work size exceeds the caps are always given
_ALWAYS = {"geodesic": "--steps", "ball-volume": "--samples", "collin-krust": "--radii"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_COMMON, **_FLAGS[command]}
    names = draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True))
    if command in _ALWAYS and _ALWAYS[command] not in names:
        names.append(_ALWAYS[command])
    argv = [command]
    for name in names:
        argv += [name, draw(flags[name])]
    return argv


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(argv=_argv())
    def test_any_argv_exits_with_a_documented_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits 2 on a bad flag or value
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (out.getvalue() != "") == (code == 0)
