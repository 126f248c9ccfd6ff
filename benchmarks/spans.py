"""Span recorder for the traced run.

Spans are recorded from outside the library: while a Recorder is
installed, every module binding through which a layer's public function is
reached is replaced by a wrapper that opens a span, calls the original and
closes the span.  A function imported by name into several modules (for
example ``nil_ball_profile`` into ``growth``) is patched in each of them,
and numpy's ``leggauss`` is patched on ``numpy.polynomial.legendre``, where
ektau looks it up.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: int | None
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)


class Recorder:
    """In-memory spans with parent links; one root span per job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; layer spans opened inside it carry job_id."""
        self._job = job_id
        idx = self.open("job")
        try:
            yield
        except BaseException:
            self.close(idx, error=True)
            raise
        else:
            self.close(idx)
        finally:
            self._job = None

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "error": s.error, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _out_path(argv):
    argv = list(argv or ())
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def _cli_info(info, args, kwargs, result):
    path = _out_path(_arg(args, kwargs, 0, "argv"))
    info["bytes_out"] = os.path.getsize(path) if path and os.path.exists(path) else 0
    info["exit"] = result


def _mc_info(info, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n_samples")
    info["samples"] = n
    info["accepted"] = n * result.value / result.bounding_volume


def _space_info(info, args, kwargs, result):
    sp = _arg(args, kwargs, 0, "sp")
    info["nil"] = bool(getattr(sp, "is_nil", False))


def _in_ball_info(info, args, kwargs, result):
    ball = _arg(args, kwargs, 0, "ball")
    info["nil"] = bool(ball.sp.is_nil)


def _region_info(info, args, kwargs, result):
    surface = _arg(args, kwargs, 0, "g")
    info["surface"] = getattr(surface, "name", "")
    info["R"] = float(_arg(args, kwargs, 2, "R"))


def _region_name(args, kwargs):
    return "growth.region_area." + _arg(args, kwargs, 1, "fam").tag.split("_")[0]


# (span name, module defining the function, attribute, summary of one call)
TRACED = [
    ("cli.main", "ektau.cli", "main", _cli_info),
    ("balls.mc_volume", "ektau.balls", "mc_volume", _mc_info),
    ("balls.nil_ball_profile", "ektau.balls", "nil_ball_profile", None),
    ("balls.in_ball", "ektau.balls", "in_ball", _in_ball_info),
    ("geodesics.distance", "ektau.geodesics", "distance", _space_info),
    ("geodesics.integrate_geodesic", "ektau.geodesics", "integrate_geodesic", None),
    ("geodesics.distance_upper_bound", "ektau.geodesics", "distance_upper_bound", None),
    ("quadrature.integrate_annulus", "ektau._quadrature", "integrate_annulus",
     lambda info, a, k, r: info.__setitem__("levels", r.levels)),
    ("quadrature.leggauss", "numpy.polynomial.legendre", "leggauss",
     lambda info, a, k, r: info.__setitem__("order", int(_arg(a, k, 0, "deg")))),
    ("surfaces.catenoid_height", "ektau.surfaces", "catenoid_height",
     lambda info, a, k, r: info.__setitem__("points", int(np.size(_arg(a, k, 2, "r"))))),
    ("graphs.graph_area", "ektau.graphs", "graph_area", None),
    ("growth.table1_suite", "ektau.growth", "table1_suite", None),
    ("growth.region_area", "ektau.growth", "region_area", _region_info),
    ("growth.intrinsic_area_table", "ektau.growth", "intrinsic_area_table", None),
    ("growth.dijkstra", "scipy.sparse.csgraph", "dijkstra",
     lambda info, a, k, r: info.__setitem__("nodes", int(_arg(a, k, 0, "csgraph").shape[0]))),
    ("growth.collin_krust_sweep", "ektau.growth", "collin_krust_sweep", None),
]

# spans whose name depends on the arguments of the call
_NAMERS = {"growth.region_area": _region_name}


def _wrap(rec: Recorder, name, fn, summarize):
    namer = _NAMERS.get(name)

    def traced(*args, **kwargs):
        idx = rec.open(namer(args, kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, error=True)
            raise
        rec.close(idx)
        if summarize is not None:
            summarize(rec.spans[idx].info, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _bindings(original, home):
    """Every (module, attribute) of ektau, and the defining module, bound to original."""
    found = {(home, a) for a, v in vars(home).items() if v is original}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ektau" or modname.startswith("ektau.")):
            continue
        found.update((mod, a) for a, v in list(vars(mod).items()) if v is original)
    return found


@contextmanager
def installed(rec: Recorder):
    """Route every traced binding through rec for the duration of the block.

    A function that the library no longer defines is skipped, so its
    metrics read zero calls instead of stopping the run.
    """
    patched = []
    try:
        for name, modname, attr, summarize in TRACED:
            home = importlib.import_module(modname)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = _wrap(rec, name, original, summarize)
            for mod, a in _bindings(original, home):
                patched.append((mod, a, original))
                setattr(mod, a, wrapper)
        yield rec
    finally:
        for mod, a, original in reversed(patched):
            setattr(mod, a, original)


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

SPAN_NAMES = [name for name, *_ in TRACED if name != "growth.region_area"] + [
    "growth.region_area.extrinsic",
    "growth.region_area.intrinsic",
    "growth.region_area.cylinder",
]


def layer_metrics(rec: Recorder, passes: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer figures averaged over the traced passes of the job list;
    times are multiplied by scale."""
    selfs = rec.self_times()
    per = {n: {"calls": 0, "self_s": 0.0, "errors": 0} for n in SPAN_NAMES + ["job"]}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(rec.spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
        agg = per.setdefault(s.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        agg["errors"] += int(s.error or s.info.get("exit", 0) != 0)

    def infos(name):
        return [s.info for s in rec.spans if s.name == name]

    def total(name, key):
        return float(sum(i.get(key, 0) for i in infos(name)))

    def mean(values):
        values = list(values)
        return float(sum(values) / len(values)) if values else 0.0

    samples = total("balls.mc_volume", "samples")
    dijkstra_levels = [
        sum(rec.spans[c].name == "growth.dijkstra" for c in children.get(i, ()))
        for i, s in enumerate(rec.spans) if s.name == "growth.intrinsic_area_table"
    ]
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        agg = per[name]
        out[f"{name}.calls"] = (agg["calls"] / passes, "count")
        out[f"{name}.self_s"] = (agg["self_s"] * scale / passes, "s")
        out[f"{name}.errors"] = (agg["errors"] / passes, "count")
    out["job.calls"] = (per["job"]["calls"] / passes, "count")
    out["job.self_s"] = (per["job"]["self_s"] * scale / passes, "s")
    out["balls.mc_samples"] = (samples / passes, "count")
    out["balls.mc_accept_ratio"] = (
        total("balls.mc_volume", "accepted") / samples if samples else 0.0, "ratio")
    out["quadrature.integrate_annulus.levels_mean"] = (
        mean(i["levels"] for i in infos("quadrature.integrate_annulus")), "count")
    out["quadrature.leggauss.order_sum"] = (total("quadrature.leggauss", "order") / passes, "count")
    out["surfaces.catenoid_height.points"] = (
        total("surfaces.catenoid_height", "points") / passes, "count")
    out["growth.intrinsic_area_table.levels_mean"] = (mean(dijkstra_levels), "count")
    out["growth.dijkstra.nodes"] = (total("growth.dijkstra", "nodes") / passes, "count")
    out["cli.main.bytes_out"] = (total("cli.main", "bytes_out") / passes, "bytes")
    return out


def leggauss_by_parent(rec: Recorder, passes: int) -> dict[str, dict]:
    """leggauss calls, orders and raw self seconds per traced pass, grouped
    by the span that asked for them."""
    selfs = rec.self_times()
    out: dict[str, dict] = {}
    for i, s in enumerate(rec.spans):
        if s.name != "quadrature.leggauss":
            continue
        parent = rec.spans[s.parent].name if s.parent is not None else "-"
        row = out.setdefault(parent, {"calls": 0, "order_sum": 0, "self_s": 0.0})
        row["calls"] += 1
        row["order_sum"] += s.info.get("order", 0)
        row["self_s"] += selfs[i]
    return {k: {f: v / passes for f, v in row.items()} for k, row in out.items()}


def inclusive_per_call(rec: Recorder, name: str, keep=lambda span, kids: True):
    """Mean duration (self plus children) of the spans called name that pass keep."""
    kids: dict[int, list[Span]] = {}
    for s in rec.spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    durs = [s.end - s.start for i, s in enumerate(rec.spans)
            if s.name == name and keep(s, kids.get(i, []))]
    return (sum(durs) / len(durs), len(durs)) if durs else (None, 0)
