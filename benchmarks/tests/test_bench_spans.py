"""The span recorder: bindings, self times and the metric list."""

import json
from pathlib import Path

import pytest

import ektau.balls
import ektau.cli
import ektau.geodesics
import ektau.growth
import numpy as np
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture()
def out_path(tmp_path):
    return tmp_path / "out.json"


def _traced_pass(jobs):
    rec = spans.Recorder()
    with spans.installed(rec):
        for i, job in enumerate(jobs):
            with rec.job(i):
                job.collect(job.call())
    return rec


def test_every_binding_is_patched_and_restored():
    originals = {
        "profile": ektau.balls.nil_ball_profile,
        "distance": ektau.geodesics.distance,
        "leggauss": np.polynomial.legendre.leggauss,
    }
    with spans.installed(spans.Recorder()):
        assert ektau.growth.nil_ball_profile is ektau.balls.nil_ball_profile
        assert ektau.growth.nil_ball_profile.__wrapped__ is originals["profile"]
        assert ektau.balls.distance.__wrapped__ is originals["distance"]
        assert ektau.cli.mc_volume.__wrapped__ is ektau.balls.mc_volume.__wrapped__
        assert ektau.growth.dijkstra.__wrapped__ is not None
        assert np.polynomial.legendre.leggauss.__wrapped__ is originals["leggauss"]
    assert ektau.growth.nil_ball_profile is originals["profile"]
    assert ektau.balls.distance is originals["distance"]
    assert np.polynomial.legendre.leggauss is originals["leggauss"]


def test_self_times_add_up_to_job_time(out_path):
    wl = workloads.point_queries(ektau, 5, out_path)
    rec = _traced_pass(wl.jobs[:30])
    selfs = rec.self_times()
    for i, root in enumerate(s for s in rec.spans if s.name == "job"):
        total = sum(t for s, t in zip(rec.spans, selfs) if s.job == i)
        assert total == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
    assert all(t >= -1e-9 for t in selfs)


def test_counts_come_from_arguments_and_results(out_path):
    wl = workloads.ball_volumes(ektau, 3, out_path)
    rec = _traced_pass(wl.jobs[:1] + [workloads._growth_row_job(ektau, "umbrella-nil")])
    m = spans.layer_metrics(rec, passes=1)
    assert m["cli.main.calls"][0] == 1
    assert m["balls.mc_volume.calls"][0] == 1
    assert m["balls.mc_samples"][0] > 0
    assert 0.0 < m["balls.mc_accept_ratio"][0] < 1.0
    assert m["cli.main.bytes_out"][0] == out_path.stat().st_size
    assert m["growth.region_area.extrinsic.calls"][0] == 6
    assert m["quadrature.integrate_annulus.levels_mean"][0] >= 2


def test_metric_names_match_benchmark_json():
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(spans.layer_metrics(spans.Recorder(), passes=1))
    assert declared == produced | {"trace.overhead_s", "trace.overhead_frac"}
