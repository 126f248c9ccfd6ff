"""Tests for the command-line interface: formats, exit codes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import ektau
from ektau.cli import (
    EXIT_HYPOTHESIS,
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
        code, _, _ = run_cli(
            capsys, "geodesic", "--kappa", "-1", "--family", "spiral"
        )
        assert code == EXIT_USAGE

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

    def test_family_defaults_to_horizontal_for_negative_kappa(self, capsys):
        argv = ["geodesic", "--kappa", "-1", "--tau", "0.5", "--steps", "4", "--format", "json"]
        code, default, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(default)["params"]["family"] == "horizontal"
        code, explicit, _ = run_cli(capsys, *argv, "--family", "horizontal")
        assert code == EXIT_OK and explicit == default


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
        for line in out.splitlines()[1:]:
            R, area = (float(v) for v in line.split(","))
            exact = 2.0 * math.pi / 3.0 * ((1.0 + R * R) ** 1.5 - 1.0)
            assert abs(area / exact - 1.0) < 1e-5

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

    def test_unknown_example_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "growth", "--example", "torus")
        assert code == EXIT_USAGE

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
