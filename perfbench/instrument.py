"""Layer instrumentation installed from outside the program.

The benchmark's traced runs import this module inside the fresh
``repro`` process (see ``child.py``) and wrap the public entry points of
each layer; nothing under ``src/`` knows about it.  Two modes:

``trace``
    Spans (name, start, end, parent, process, run id) around the coarse
    layer calls, call counts and busy time around the hot ones
    (``CapacityIndex.alloc`` runs once per start, so it gets a counter,
    not a span object), and cyclic-GC pauses from ``gc.callbacks``.

``profile``
    A cProfile self-time rollup by ``repro.<package>``.

Both are installed before the shard pool forks, so pool workers inherit
the wrappers, the GC callback and (for ``profile``) start their own
profiler per cell.  A worker appends what it recorded to a file in the
output directory after every cell; the parent merges those files when
the run ends.  Timestamps are ``time.monotonic()``: on Linux that is
the system-wide ``CLOCK_MONOTONIC``, so spans from different processes
share one time axis.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import importlib
import json
import os
import pickle
import pstats
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: the packages the self-time rollup reports; anything else under
#: ``repro`` (``cli``, ``core``, ``signing``), the standard library and
#: third-party code land in ``other``; C functions land in ``builtins``
PACKAGES = ("workload", "cluster", "registry", "sim", "k8s", "wlm", "kernel",
            "oci", "engines", "fs", "obs", "faults", "shard", "scenarios")

#: (module, attribute, span name) — coarse layer calls recorded as spans;
#: a module attribute is rebound in every loaded ``repro`` module that
#: imported it by name
SPANS = (
    ("repro.workload.fleet", "run_fleet", "workload.run_fleet"),
    ("repro.workload.fleet", "generate_shard_trace", "workload.trace_gen"),
    ("repro.workload.fleet", "merge_shard_results", "workload.merge"),
    ("repro.workload.fleet", "fleet_report_document", "workload.report"),
    ("repro.workload.fleet", "score_fleet_slo", "obs.slo_score"),
    ("repro.shard", "run_cells", "shard.run_cells"),
    ("repro.shard.cells", "FleetCell.run", "workload.shard"),
    ("repro.scenarios.fleet_replay", "run_fleet_replay", "scenarios.run_fleet_replay"),
    ("repro.scenarios.fleet_replay", "run_replay_shard", "scenarios.replay_shard"),
    ("repro.sim.environment", "Environment.run", "sim.env_run"),
    ("multiprocessing.pool", "Pool.__init__", "shard.pool_start"),
)

#: (module, attribute, counter prefix) — hot calls: count, busy time,
#: ``None`` results (misses) and raised registry errors
COUNTERS = (
    ("repro.cluster.capacity", "CapacityIndex.alloc", "cluster.alloc"),
    ("repro.cluster.capacity", "CapacityIndex.remove_node", "cluster.remove_node"),
    ("repro.registry.distribution", "OCIDistributionRegistry.pull_image", "registry.pull"),
    ("repro.obs.timeseries", "TimeSeriesRecorder.sample", "obs.sample"),
)

#: modules only the ``replay`` verb loads; a ``fleet`` run does not
#: import them just to wrap them
REPLAY_ONLY = frozenset({"repro.scenarios.fleet_replay"})


class Instruments:
    """Everything one traced or profiled process records."""

    def __init__(self, mode: str, outdir: str, run_id: str, verb: str):
        if mode not in ("trace", "profile"):
            raise ValueError(f"unknown instrumentation mode {mode!r}")
        self.mode = mode
        self.outdir = Path(outdir)
        self.run_id = run_id
        self.verb = verb
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._seq = 0
        #: closed spans: [id, name, t0, t1, parent id, pid, args]
        self.spans: list[list] = []
        self._stack: list[list] = []
        #: root parent for spans opened in a pool worker (the parent's
        #: open ``shard.run_cells`` span at fork time)
        self._root: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        #: (generation, t0, t1, pid) per collection
        self.gc: list[tuple[int, float, float, int]] = []
        self._gc_t0 = 0.0
        self.profiler: cProfile.Profile | None = None
        self._cell_no = 0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import repro.shard.runner as runner

        runner._execute_cell = self._wrap_cell(runner._execute_cell)
        if self.mode == "profile":
            self.profiler = cProfile.Profile()
            self._patch("multiprocessing.pool", "Pool.map", self._unprofiled)
            self.profiler.enable()
            return
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, name=name: self._counted(name, fn))
        gc.callbacks.append(self._gc_callback)

    def _patch(self, module: str, attr: str, make) -> None:
        if module in REPLAY_ONLY and self.verb != "replay":
            return
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)

    # -- spans and counters ------------------------------------------------
    def _open(self, name: str, args: dict | None = None) -> list:
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else self._root
        span = [f"{os.getpid()}:{self._seq}", name, time.monotonic(), 0.0,
                parent, os.getpid(), args or {}]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.monotonic()
        self._stack.pop()
        self.spans.append(span)

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if name == "shard.run_cells":
                jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
                extra = {"jobs": max(1, min(jobs, len(args[0])))}
            span = self._open(name, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        clock = time.monotonic
        calls, busy = name + ".calls", name + ".s"
        misses, errors = name + ".misses", name + ".errors"
        from repro.registry.distribution import RegistryError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except RegistryError:
                counts[errors] += 1
                raise
            finally:
                counts[calls] += 1
                counts[busy] += clock() - t0
            if out is None:
                counts[misses] += 1
            return out
        return wrapper

    def _unprofiled(self, fn):
        """The parent only blocks inside ``Pool.map`` while the workers
        (profiled on their own) run the cells; that wait is not self time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.profiler.disable()
            try:
                return fn(*args, **kwargs)
            finally:
                self.profiler.enable()
        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.monotonic()
        else:
            self.gc.append((info["generation"], self._gc_t0, time.monotonic(),
                            os.getpid()))

    # -- shard cells and pool workers --------------------------------------
    def _wrap_cell(self, fn):
        """Wrap ``repro.shard.runner._execute_cell``: the cell span, the
        result size the pool ships back, and the worker-side flush."""

        @functools.wraps(fn)
        def wrapper(index, cell, snapshot, obs):
            in_worker = self._enter_process()
            profiler = None
            if self.mode == "profile" and in_worker:
                profiler = cProfile.Profile()
                profiler.enable()
            span = self._open("shard.cell", {"label": cell.label})
            try:
                result = fn(index, cell, snapshot, obs)
            finally:
                self._close(span)
                if profiler is not None:
                    profiler.disable()
            if self.mode == "trace":
                self.counts["shard.result_bytes"] += len(pickle.dumps(result))
            if in_worker:
                self._flush_worker(profiler)
            return result
        return wrapper

    def _enter_process(self) -> bool:
        """True in a pool worker; the first call there drops what the
        fork copied from the parent's buffers."""
        pid = os.getpid()
        if pid == self.main_pid:
            return False
        if pid != self._pid:
            self._pid = pid
            self._root = next((s[0] for s in reversed(self._stack)
                               if s[1] == "shard.run_cells"), None)
            self._stack = []
            self.spans = []
            self.counts.clear()
            self.gc = []
            if self.profiler is not None:
                self.profiler.disable()
        return True

    def _flush_worker(self, profiler: cProfile.Profile | None) -> None:
        pid = os.getpid()
        self._cell_no += 1
        if profiler is not None:
            profiler.dump_stats(str(self.outdir / f"prof-{pid}-{self._cell_no}.pstats"))
            return
        record = {"spans": self.spans, "counts": dict(self.counts), "gc": self.gc}
        with open(self.outdir / f"worker-{pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts.clear()
        self.gc = []

    # -- results -----------------------------------------------------------
    def finish(self) -> dict:
        """Stop recording, merge the workers' files and return the raw
        per-layer numbers of this run."""
        if self.mode == "profile":
            self.profiler.disable()
            return {"self_s": self._rollup()}
        gc.callbacks.remove(self._gc_callback)
        spans, counts, pauses = list(self.spans), dict(self.counts), list(self.gc)
        for path in sorted(self.outdir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(record["spans"])
                pauses.extend(tuple(p) for p in record["gc"])
                for key, value in record["counts"].items():
                    counts[key] = counts.get(key, 0) + value
        self._write_chrome_trace(spans, pauses)
        return summarize(spans, counts, pauses)

    def _rollup(self) -> dict[str, float]:
        stats = pstats.Stats(self.profiler)
        for path in sorted(self.outdir.glob("prof-*.pstats")):
            stats.add(str(path))
        out = {pkg: 0.0 for pkg in (*PACKAGES, "builtins", "other")}
        for (filename, _line, _func), entry in stats.stats.items():
            out[package_of(filename)] += entry[2]
        return out

    def _write_chrome_trace(self, spans: list, pauses: list) -> None:
        base = min((s[2] for s in spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "ts": (t0 - base) * 1e6,
             "dur": (t1 - t0) * 1e6, "pid": pid, "tid": pid,
             "args": {"id": sid, "parent": parent, "run_id": self.run_id, **args}}
            for sid, name, t0, t1, parent, pid, args in spans
        ]
        events.extend(
            {"name": f"gc.gen{gen}", "ph": "X", "ts": (t0 - base) * 1e6,
             "dur": (t1 - t0) * 1e6, "pid": pid, "tid": pid,
             "args": {"run_id": self.run_id}}
            for gen, t0, t1, pid in pauses
        )
        with open(self.outdir / "trace.json", "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def package_of(filename: str) -> str:
    """The rollup bucket of a cProfile code location."""
    if filename == "~":
        return "builtins"
    parts = Path(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 2 < len(parts) and parts[i + 1] in PACKAGES:
            return parts[i + 1]
    return "other"


def _durations(spans: list, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def summarize(spans: list, counts: dict, pauses: list) -> dict[str, float]:
    """Per-layer numbers from one traced run's merged spans and counts."""
    def total(name: str) -> float:
        return sum(_durations(spans, name))

    def p50_max(name: str) -> tuple[float, float]:
        values = _durations(spans, name)
        return (statistics.median(values), max(values)) if values else (0.0, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cells = [s for s in spans if s[1] == "shard.cell"]
    run_cells = [s for s in spans if s[1] == "shard.run_cells"]
    capacity = sum(s[6]["jobs"] * (s[3] - s[2]) for s in run_cells)
    # the tail after a batch's last cell: result transfer, pool
    # teardown, and the runner's restore-and-merge of cell state
    merge_tail = 0.0
    for rc in run_cells:
        inside = [c[3] for c in cells if rc[2] <= c[2] and c[3] <= rc[3]]
        merge_tail += rc[3] - max(inside, default=rc[3])
    shard_p50, shard_max = p50_max("workload.shard")
    cell_p50, cell_max = p50_max("shard.cell")
    gc_pauses = [t1 - t0 for _gen, t0, t1, _pid in pauses]
    alloc_calls = counts.get("cluster.alloc.calls", 0)
    pull_calls = counts.get("registry.pull.calls", 0)
    return {
        "workload.trace_gen_s": total("workload.trace_gen"),
        "workload.shard_s.p50": shard_p50,
        "workload.shard_s.max": shard_max,
        "workload.merge_s": total("workload.merge"),
        "workload.report_s": total("workload.report"),
        "cluster.alloc_calls": alloc_calls,
        "cluster.alloc_miss_ratio": ratio(counts.get("cluster.alloc.misses", 0), alloc_calls),
        "cluster.node_removes": counts.get("cluster.remove_node.calls", 0),
        "registry.pull_calls": pull_calls,
        "registry.pull_s": counts.get("registry.pull.s", 0.0),
        "registry.pull_errors": counts.get("registry.pull.errors", 0),
        "registry.pull_error_ratio": ratio(counts.get("registry.pull.errors", 0), pull_calls),
        "sim.env_run_s": total("sim.env_run"),
        "scenarios.replay_shard_s.max": p50_max("scenarios.replay_shard")[1],
        "shard.pool_start_s": total("shard.pool_start"),
        "shard.run_cells_s": total("shard.run_cells"),
        "shard.cell_s.p50": cell_p50,
        "shard.cell_s.max": cell_max,
        "shard.pool_idle_ratio": 1.0 - ratio(sum(c[3] - c[2] for c in cells), capacity)
        if capacity else 0.0,
        "shard.merge_s": merge_tail,
        "shard.result_bytes": counts.get("shard.result_bytes", 0),
        "gc.pause_s": sum(gc_pauses),
        "gc.pause_s.max": max(gc_pauses, default=0.0),
        "gc.collections.gen2": sum(1 for pause in pauses if pause[0] == 2),
        "obs.sample_ticks": counts.get("obs.sample.calls", 0),
        "obs.sample_s": counts.get("obs.sample.s", 0.0),
        "obs.slo_score_s": total("obs.slo_score"),
    }
