"""Seeded runs repeat their non-timing outputs, and the runner refuses to
run without the library's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import ektau
import workloads

BENCH = Path(__file__).resolve().parents[1]
RUN = [sys.executable, "benchmarks/run.py"]
REPEATED = ("attempted", "failed", "jobs_per_pass", "checked_values", "max_rel_err",
            "err_z_rms", "failed_frac", "known_defects")


def _run(cwd, *args):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


def _record(proc):
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    record.update(attempted=result["attempted"], failed=result["failed"])
    return record


def test_seeded_run_repeats_counts_and_accuracy():
    args = ("--workload", "point-queries", "--seed", "4", "--seconds", "0", "--trace", "0")
    first, second = (_record(_run(BENCH.parent, *args)) for _ in range(2))
    assert {k: first[k] for k in REPEATED} == {k: second[k] for k in REPEATED}
    assert first["failed"] == 0 and first["attempted"] >= 100


def test_ball_volume_outputs_repeat(tmp_path):
    def outcomes():
        jobs = workloads.ball_volumes(ektau, 9, tmp_path / "out.json").jobs[:40]
        checks = [job.check(job.collect(job.call())) for job in jobs]
        return [(c.rel_errs, c.zs, c.failures) for c in checks]

    assert outcomes() == outcomes()


def test_seed_changes_the_inputs(tmp_path):
    def outputs(seed):
        jobs = workloads.point_queries(ektau, seed, tmp_path / "out.json").jobs[:10]
        return [(job.kind, job.collect(job.call())) for job in jobs]

    assert outputs(1) == outputs(1)
    assert outputs(1) != outputs(2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "point-queries", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
