"""Run one workload of the ektau benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload ball-volumes --seed 1 --seconds 20 --trace 0

The workload's job list runs as a closed loop (one client, one process,
the next job sent only when the previous one completed), pass after pass,
until --seconds of job time have passed and at least MIN_PASSES passes are
done.  Every job's output is checked against the references in oracles.py.
Timings are scaled to a fixed machine speed by SpeedProbe.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate, and it reports the per-layer figures
of the traced passes plus the tracing overhead.  The line before it is the
run's record: provenance, sample counts, accuracy and known defects.  The
record (and, when tracing, the spans) is also written to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_CAPS = {k: str(NPROC) for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

MIN_PASSES = 4        # untraced passes per --trace 0 run
MIN_TRACE_PASSES = 2  # of each kind per --trace 1 run
SETUP_REPEATS = 7
PROBE_REF_S = 0.040   # the speed probe's seconds on the reference machine
PROBE_EVERY_S = 1.0   # job seconds between speed probes within a pass
IMPORT_LAYERS = ("import ektau.cli, ektau.core, ektau.geodesics, ektau.balls, "
                 "ektau.graphs, ektau.surfaces, ektau.growth, ektau._quadrature")

# Per-call figures of the ROADMAP re-anchor table (2 cores, numpy 2.4.6,
# scipy 1.17.1), reconciled against the traced spans of the same calls.
ROADMAP_SECONDS = {
    "balls.nil_ball_profile per call": 0.418,
    "geodesics.distance per Nil3 call": 0.022,
    "balls.in_ball per Nil3 call that solves for the distance": 0.021,
    "growth.region_area.extrinsic catenoid R=10": 0.709,
    "growth.table1_suite, five instantiable rows": 7.2,
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_ektau():
    """Import ektau from this checkout's src/ and nowhere else."""
    if not (SRC / "ektau" / "__init__.py").is_file():
        raise SystemExit(f"error: no ektau sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import ektau
    import ektau.cli
    import ektau.growth

    if Path(ektau.__file__).resolve().parent != SRC / "ektau":
        raise SystemExit(f"error: imported ektau from {ektau.__file__}, not {SRC}")
    return ektau


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI and every layer."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_LAYERS], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedProbe:
    """Median seconds of fixed numpy and interpreter work that does not touch ektau.

    The shared machines this runs on change speed by tens of percent from
    minute to minute.  Every timing is multiplied by PROBE_REF_S over the
    mean of the probes taken just before and after it, so that timings
    read in seconds of a machine on which the probe takes PROBE_REF_S.  The
    probe mixes the kinds of work ektau does: a vectorised Newton-style loop
    on small arrays, sampling-style passes over a few MB, and interpreter
    arithmetic.  Its large arrays are allocated once, so that it adds
    nothing to the peak memory of the run after start-up.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.pts = np.random.default_rng(0).random((3, 1 << 17))
        self.buf = np.empty(1 << 17)
        self.buf2 = np.empty(1 << 17)
        self.hits = np.empty(1 << 17, dtype=bool)

    def __call__(self) -> float:
        np, pts, buf = self.np, self.pts, self.buf
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            c, t = np.linspace(1e-3, 1.0 - 1e-6, 1024), np.linspace(0.5, 5.0, 1024)
            for _ in range(80):
                u = 1.3 * c * t
                c = np.clip(c - 0.01 * (np.sin(u) ** 2 * (1.0 - c * c) - 0.5) * np.cos(u),
                            1e-9, 1.0 - 1e-12)
            for _ in range(8):
                np.hypot(pts[0], pts[1], out=buf)
                np.multiply(buf, buf, out=buf)
                np.add(buf, np.square(pts[2], out=self.buf2), out=buf)
                int(np.count_nonzero(np.less(buf, 0.5, out=self.hits)))
            acc = 0.0
            for i in range(20_000):
                acc += math.sqrt(i) * 0.5
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def _run_pass(jobs, probe, rec=None):
    """One closed-loop pass.

    The speed probe runs before the first job, again once PROBE_EVERY_S of
    job time has passed since the last probe, and after the last job.  Each
    job's seconds are scaled by PROBE_REF_S over the mean of the two probes
    around it.  Returns (scaled job seconds, outputs or exceptions, raw job
    seconds, probe seconds).
    """
    probes, lat, seg, outs = [probe()], [], [], []
    since = 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if rec is None:
                value = job.call()
            else:
                with rec.job(i):
                    value = job.call()
        except (Exception, SystemExit) as exc:  # counted as a failed job, not fatal
            value = exc
        lat.append(time.perf_counter() - t0)
        seg.append(len(probes) - 1)
        if not isinstance(value, BaseException):
            try:
                value = job.collect(value)
            except OSError as exc:  # the output file is missing or unreadable
                value = exc
        outs.append(value)
        since += lat[-1]
        if since >= PROBE_EVERY_S and i < len(jobs) - 1:
            probes.append(probe())
            since = 0.0
    probes.append(probe())
    scale = [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    return [dt * scale[k] for dt, k in zip(lat, seg)], outs, lat, probes


def _scaled_import(probe):
    """(scaled, raw) set-up seconds, with the speed probe run on either side."""
    before = probe()
    seconds = _import_seconds()
    return seconds * 2.0 * PROBE_REF_S / (before + probe()), seconds


def _check_pass(jobs, outs):
    """(relative errors, z values, failure messages, jobs failed) of one pass."""
    rel_errs, zs, failures, failed = [], [], [], 0
    for job, out in zip(jobs, outs):
        if isinstance(out, BaseException):
            msgs = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                c = job.check(out)
            except Exception as exc:  # malformed output
                msgs = [f"output not checkable: {type(exc).__name__}: {exc}"]
            else:
                rel_errs += c.rel_errs
                zs += c.zs
                msgs = c.failures
        failures += [f"{job.kind}: {m}" for m in msgs]
        failed += bool(msgs)
    return rel_errs, zs, failures, failed


def _known_defect(ektau, argv, out_path):
    """Outcome of a request with a known defect, run once outside the timed passes."""
    try:
        code = ektau.cli.main(list(argv) + ["--format", "json", "--out", str(out_path)])
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__} escaped cli.main: {exc}"
    return f"exit code {code}"


def _provenance(ektau, args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ektau").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    try:  # only this checkout's own repository counts, not one around it
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "thread_caps": THREAD_CAPS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ektau": ektau.__version__,
        "ektau_commit": commit, "ektau_source_sha256": digest.hexdigest(),
    }


def _reconcile(rec, passes):
    """Traced per-call figures next to the ROADMAP table; flags ratios beyond 2x."""
    import spans

    def has_distance(span, kids):
        return any(k.name == "geodesics.distance" for k in kids)

    traced = {
        "balls.nil_ball_profile per call": spans.inclusive_per_call(rec, "balls.nil_ball_profile"),
        "geodesics.distance per Nil3 call": spans.inclusive_per_call(
            rec, "geodesics.distance", lambda s, k: s.info.get("nil")),
        "balls.in_ball per Nil3 call that solves for the distance": spans.inclusive_per_call(
            rec, "balls.in_ball", lambda s, k: s.info.get("nil") and has_distance(s, k)),
        "growth.region_area.extrinsic catenoid R=10": spans.inclusive_per_call(
            rec, "growth.region_area.extrinsic",
            lambda s, k: s.info.get("surface") == "catenoid" and s.info.get("R") == 10.0),
    }
    suite = [s.end - s.start for s in rec.spans if s.name == "growth.table1_suite"]
    if len(suite) >= 5:
        traced["growth.table1_suite, five instantiable rows"] = (sum(suite) / passes, passes)
    out = {}
    for key, roadmap in ROADMAP_SECONDS.items():
        seconds, n = traced.get(key, (None, 0))
        if seconds is None:
            continue
        ratio = seconds / roadmap
        out[key] = {"traced_s": seconds, "samples": n, "roadmap_s": roadmap,
                    "ratio": ratio, "beyond_2x": not 0.5 <= ratio <= 2.0}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_CAPS)  # before numpy is imported
    ektau = _import_ektau()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = BENCH / ".work"
    results = BENCH / "results"
    work.mkdir(exist_ok=True)
    results.mkdir(exist_ok=True)
    out_path = work / f"out-{os.getpid()}.json"

    if args.trace == 0:
        _import_seconds()  # writes the bytecode caches
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](ektau, args.seed, out_path)
    build_s = time.perf_counter() - t0
    jobs = wl.jobs

    # Set-up samples are spread over the run, between passes, so that their
    # median does not hang on the machine's load during a few seconds.
    probe = SpeedProbe()
    raw = {"import_s": [], "pass_jobs_s": [], "probe_s": []}
    import_s, setup_every = [], args.seconds / SETUP_REPEATS

    def setup_sample():
        scaled, seconds = _scaled_import(probe)
        import_s.append(scaled)
        raw["import_s"].append(seconds)

    walls, lats, all_outs = [], [], []
    traced_walls, traced_scales, rec = [], [], spans.Recorder()
    spent = 0.0
    while True:
        if args.trace == 0 and len(import_s) < SETUP_REPEATS and spent >= len(import_s) * setup_every:
            setup_sample()
        for traced in (False, True) if args.trace else (False,):
            with spans.installed(rec) if traced else contextlib.nullcontext():
                lat, outs, raw_lat, probes = _run_pass(jobs, probe, rec if traced else None)
            all_outs.append(outs)
            raw["pass_jobs_s"].append(sum(raw_lat))
            raw["probe_s"].append(probes)
            spent += sum(raw_lat)
            if traced:
                traced_walls.append(sum(lat))
                traced_scales.append(sum(lat) / sum(raw_lat))
            else:
                walls.append(sum(lat))
                lats += lat
        if spent >= args.seconds and len(walls) >= (MIN_TRACE_PASSES if args.trace else MIN_PASSES):
            break
    while args.trace == 0 and len(import_s) < SETUP_REPEATS:
        setup_sample()

    rel_errs, zs, failures = [], [], []
    attempted = failed = 0
    for outs in all_outs:
        r, z, f, n_failed = _check_pass(jobs, outs)
        rel_errs += r
        zs += z
        failures += f
        attempted += len(outs)
        failed += n_failed
    defects = {" ".join(argv): _known_defect(ektau, argv, out_path) for argv in wl.known_defects}
    out_path.unlink(missing_ok=True)

    err_z_rms = (sum(z * z for z in zs) / len(zs)) ** 0.5 if zs else float("nan")
    p90 = statistics.quantiles(lats, n=10, method="inclusive")[8]
    record = _provenance(ektau, args)
    record.update({
        "passes_untraced": len(walls), "passes_traced": len(traced_walls),
        "jobs_per_pass": len(jobs), "job_samples": len(lats),
        "job_samples_beyond_p90": sum(1 for x in lats if x > p90),
        "pass_walls_scaled_s": walls, "traced_pass_walls_scaled_s": traced_walls,
        "raw": raw,
        "checked_values": len(zs),
        "max_rel_err": max(rel_errs) if rel_errs else None,
        "err_z_rms": err_z_rms,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "known_defects": defects,
    })

    if args.trace:
        passes = len(traced_walls)
        over = statistics.median(traced_walls) - statistics.median(walls)
        layers = spans.layer_metrics(rec, passes, statistics.median(traced_scales))
        layers["trace.overhead_s"] = (over, "s")
        layers["trace.overhead_frac"] = (over / statistics.median(walls), "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["leggauss_by_parent"] = spans.leggauss_by_parent(rec, passes)
        record["roadmap_reconciliation"] = _reconcile(rec, passes)
        with open(results / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(rec.dump(), fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(import_s) + build_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(lats), "unit": "ms"},
            "job_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "err_z_rms": {"value": err_z_rms, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        record["build_inputs_s"] = build_s
    with open(results / f"record-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
