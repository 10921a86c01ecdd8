"""The repository benchmark: end-to-end CLI timings and per-layer attribution.

    python3 perfbench/run.py --workload fleet-steady --seed 0 --seconds 30 --trace 0

Each workload is one ``python -m repro`` invocation, run closed-loop (one
process at a time) in a fresh subprocess through ``child.py``.  With
``--trace 0`` the invocation is repeated untraced for ``--seconds`` and
the end-to-end metrics are medians over those invocations.  With
``--trace 1`` each round runs the workload three times — untraced, with
spans/counters/GC pauses (``instrument.py``), and under cProfile — and
reports the per-layer metrics.  Every invocation's artifacts are checked:
exit code, leak report, report invariants, byte-identity with the run's
first invocation and with the digests recorded in ``digests.json``;
``fleet-chaos-j2`` is also checked once, untimed, against a ``--jobs 1``
run.  ``METRICS.md`` lists every metric.

``--record`` re-runs each workload on the recorded seeds and rewrites
``digests.json`` (only after a change that is meant to alter artifacts).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (invocations) and ``metrics``.  Details of every invocation,
the host record and the Chrome trace of traced runs are written under
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
#: a call's invocations are killed (and counted failed) once this much
#: time has passed since it started, so the call always ends in time
CALL_DEADLINE_S = 170.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: CLI argv after ``python -m repro``; ``{seed}`` is the workload seed
    argv: str
    artifacts: tuple[str, ...]
    #: a tiny run of the same verb, untimed, that loads the modules and
    #: byte-compiles them before the first timed invocation
    warmup: str
    #: check the report/scorecard against a ``--jobs 1`` run once per call
    jobs1_check: bool = False

    def command(self, seed: int) -> list[str]:
        return self.argv.format(seed=seed).split()


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            "fleet-steady",
            "fleet --tenants 2000 --nodes 10000 --starts 400000 --shards 8 "
            "--jobs 1 --seed {seed} --out report.json",
            ("report.json",),
            "fleet --tenants 4 --nodes 8 --starts 100 --shards 2 --seed 0",
        ),
        Workload(
            "fleet-chaos-j2",
            "fleet --tenants 256 --nodes 2000 --starts 200000 --shards 8 "
            "--jobs 2 --chaos --seed {seed} --slo-out scorecard.json "
            "--out report.json",
            ("report.json", "scorecard.json"),
            "fleet --tenants 4 --nodes 8 --starts 100 --shards 2 --jobs 2 "
            "--chaos --slo --seed 0",
            jobs1_check=True,
        ),
        Workload(
            "replay-control-plane",
            "replay --tenants 64 --nodes 256 --starts 4000 --shards 4 "
            "--jobs 1 --seed {seed} --out report.json",
            ("report.json",),
            "replay --tenants 2 --nodes 4 --starts 20 --shards 1 --seed 0",
        ),
    )
}

#: end-to-end metrics: (name, unit); all are medians over the run's
#: untraced invocations except error_rate
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("starts_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PACKAGES = ("workload", "cluster", "registry", "sim", "k8s", "wlm", "kernel",
            "oci", "engines", "fs", "obs", "faults", "shard", "scenarios",
            "builtins", "other")

#: per-layer metrics printed by ``--trace 1``: (name, unit)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.modules_imported", "count"),
    *((f"{pkg}.{kind}", unit) for pkg in PACKAGES
      for kind, unit in (("self_s", "s"), ("self_share", "ratio"))),
    ("workload.trace_gen_s", "s"),
    ("workload.shard_s.p50", "s"),
    ("workload.shard_s.max", "s"),
    ("workload.merge_s", "s"),
    ("workload.report_s", "s"),
    ("cluster.alloc_calls", "count"),
    ("cluster.alloc_miss_ratio", "ratio"),
    ("cluster.node_removes", "count"),
    ("registry.pull_calls", "count"),
    ("registry.pull_s", "s"),
    ("registry.pull_errors", "count"),
    ("registry.pull_error_ratio", "ratio"),
    ("sim.events_processed", "count"),
    ("sim.self_us_per_event", "us"),
    ("sim.env_run_s", "s"),
    ("k8s.watch_batched_notifies", "count"),
    ("k8s.sched_index_hits", "count"),
    ("engines.pulls_coalesced_ratio", "ratio"),
    ("scenarios.replay_shard_s.max", "s"),
    ("shard.pool_start_s", "s"),
    ("shard.run_cells_s", "s"),
    ("shard.cell_s.p50", "s"),
    ("shard.cell_s.max", "s"),
    ("shard.pool_idle_ratio", "ratio"),
    ("shard.merge_s", "s"),
    ("shard.result_bytes", "bytes"),
    ("gc.pause_s", "s"),
    ("gc.pause_s.max", "s"),
    ("gc.collections.gen2", "count"),
    ("obs.sample_ticks", "count"),
    ("obs.sample_s", "s"),
    ("obs.slo_score_s", "s"),
    ("faults.injected", "count"),
    ("faults.retry_attempts", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.nproc", "count"),
    ("host.calibration_s", "s"),
)


# -- one invocation ----------------------------------------------------------

@dataclasses.dataclass
class Invocation:
    mode: str
    wall_s: float
    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    completions: int
    stamp: dict
    docs: dict
    digests: dict
    problems: list[str]

    def e2e(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "run_s": self.run_s,
            "starts_per_s": self.completions / self.run_s if self.run_s > 0 else 0.0,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
        }


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """After a timeout kill, wait (bounded) until no process of the
    invocation's process group is left, pool workers included."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_invocation(argv: list[str], mode: str, workdir: Path, run_id: str,
                   timeout: float) -> Invocation:
    """Run ``python -m repro ARGV`` through ``child.py`` in ``workdir``.

    ``os.wait4`` gives the process's resource usage including the pool
    workers it reaped, and the largest max-RSS among them."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stamp_path = workdir / "stamp.json"
    cmd = [sys.executable, str(CHILD), str(stamp_path), mode, str(workdir),
           run_id, "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stdout.txt", "wb") as out, \
            open(workdir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err,
                                env=env, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    # reaped by wait4 above: tell Popen, so it never waits on the pid again
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    problems: list[str] = []
    if rc != 0:
        _kill_group(proc.pid)
        _wait_group_gone(proc.pid)
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-400:]
        problems.append(f"exit code {rc}: {tail.strip()}")
    stamp: dict = {}
    if stamp_path.is_file():
        stamp = json.loads(stamp_path.read_text())
    elif rc == 0:
        problems.append("child.py wrote no stamp")
    docs: dict = {}
    digests: dict = {}
    for name in ("stdout.txt", *_artifacts_of(argv)):
        path = workdir / name
        if not path.is_file():
            problems.append(f"missing artifact {name}")
            continue
        data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".json"):
            try:
                docs[name] = json.loads(data)
            except ValueError:
                problems.append(f"{name} is not JSON")
    t_parsed = stamp.get("t_parsed", t_spawn)
    return Invocation(
        mode=mode,
        wall_s=t_exit - t_spawn,
        setup_s=t_parsed - t_spawn,
        run_s=stamp.get("t_done", t_parsed) - t_parsed,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        completions=_completions(docs),
        stamp=stamp,
        docs=docs,
        digests=digests,
        problems=problems,
    )


def _artifacts_of(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, arg in enumerate(argv[:-1])
            if arg in ("--out", "--slo-out")]


def _completions(docs: dict) -> int:
    report = docs.get("report.json", {})
    if "summary" in report:
        return report["summary"]["completions"]
    return report.get("totals", {}).get("completed", 0)


# -- correctness -------------------------------------------------------------

def check_documents(inv: Invocation, seed: int) -> None:
    """Invariants every report of these workloads must satisfy."""
    report = inv.docs.get("report.json")
    if report is None:
        return
    config = report.get("config", {})
    if config.get("seed") != seed:
        inv.problems.append(f"report seed {config.get('seed')} != {seed}")
    if report.get("leaks"):
        inv.problems.append(f"leak report: {report['leaks'][:3]}")
    if report.get("schema") == "repro-fleet-report/2":
        summary = report["summary"]
        done = summary["completions"] + summary["failed"]
        if done != config["starts"]:
            inv.problems.append(f"{done} starts finished of {config['starts']}")
    elif report.get("schema") == "repro-fleet-replay-report/1":
        totals = report["totals"]
        if totals["submitted"] != config["starts"] or \
                totals["completed"] + totals["failed"] != totals["submitted"]:
            inv.problems.append(f"replay totals inconsistent: {totals}")
    else:
        inv.problems.append(f"unexpected report schema {report.get('schema')!r}")
    scorecard = inv.docs.get("scorecard.json")
    if scorecard is not None and scorecard.get("schema") != "repro-slo-scorecard/1":
        inv.problems.append("unexpected scorecard schema")


def check_digests(inv: Invocation, reference: dict, label: str,
                  names: tuple[str, ...] | None = None) -> None:
    for name in names or tuple(reference):
        if inv.digests.get(name) != reference.get(name):
            inv.problems.append(f"{name} differs from the {label}")


def load_recorded() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# -- host record --------------------------------------------------------------

def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop: a host-speed
    yardstick stored with every result."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibration_s(),
    }


# -- the two kinds of run ------------------------------------------------------

class Run:
    """One benchmark call: every invocation it made, and their checks."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.deadline = time.monotonic() + CALL_DEADLINE_S
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.invocations: list[Invocation] = []
        self.reference: dict | None = None
        self.jobs1: dict | None = None
        self.recorded = load_recorded().get("digests", {}).get(wl.name, {}).get(str(seed))

    def invoke(self, mode: str, argv: list[str] | None = None, *,
               checked: bool = True) -> Invocation:
        n = len(self.invocations)
        inv = run_invocation(argv or self.wl.command(self.seed), mode,
                             self.workdir / f"{n:03d}-{mode}",
                             f"{self.wl.name}/seed={self.seed}/{n}",
                             max(0.0, self.deadline - time.monotonic()))
        self.invocations.append(inv)
        if checked and not inv.problems:
            check_documents(inv, self.seed)
            if self.reference is None:
                self.reference = inv.digests
            check_digests(inv, self.reference, "run's first invocation")
            if self.recorded is not None:
                check_digests(inv, self.recorded, "recorded digest",
                              tuple(self.wl.artifacts))
            if self.jobs1 is not None:
                check_digests(inv, self.jobs1, "--jobs 1 run", self.wl.artifacts)
        return inv

    def prepare(self) -> None:
        """Untimed: warm-up, and the ``--jobs 1`` reference if asked."""
        self.invoke("plain", self.wl.warmup.split(), checked=False)
        if self.wl.jobs1_check:
            argv = self.wl.command(self.seed)
            argv[argv.index("--jobs") + 1] = "1"
            inv = self.invoke("plain", argv, checked=False)
            if not inv.problems:
                check_documents(inv, self.seed)
                self.jobs1 = {name: inv.digests.get(name) for name in self.wl.artifacts}

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)


def measure_e2e(run: Run, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name, _unit in END_TO_END}
    t_begin = time.monotonic()
    walls: list[float] = []
    while True:
        inv = run.invoke("plain")
        walls.append(inv.wall_s)
        for name, value in inv.e2e().items():
            samples[name].append(value)
        elapsed = time.monotonic() - t_begin
        if elapsed + statistics.median(walls) > seconds:
            return samples


def measure_layers(run: Run, seconds: float, host: dict) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name, _unit in PER_LAYER}
    t_begin = time.monotonic()
    while True:
        t_round = time.monotonic()
        plain = run.invoke("plain")
        traced = run.invoke("trace")
        profiled = run.invoke("profile")
        if not (plain.problems or traced.problems or profiled.problems):
            for name, value in layer_metrics(plain, traced, profiled, host).items():
                samples[name].append(value)
        now = time.monotonic()
        if now - t_begin + (now - t_round) > seconds:
            return samples


def layer_metrics(plain: Invocation, traced: Invocation, profiled: Invocation,
                  host: dict) -> dict[str, float]:
    self_s = profiled.stamp["layers"]["self_s"]
    total_self = sum(self_s.values())
    out: dict[str, float] = {
        "cli.import_s": plain.stamp["import_s"],
        "cli.modules_imported": plain.stamp["modules_imported"],
    }
    for pkg in PACKAGES:
        out[f"{pkg}.self_s"] = self_s[pkg]
        out[f"{pkg}.self_share"] = self_s[pkg] / total_self if total_self else 0.0
    out.update(traced.stamp["layers"])
    counters = traced.stamp["sim_counters"]
    events = counters["events_processed"]
    out["sim.events_processed"] = events
    out["sim.self_us_per_event"] = self_s["sim"] * 1e6 / events if events else 0.0
    out["k8s.watch_batched_notifies"] = counters["watch_batched_notifies"]
    out["k8s.sched_index_hits"] = counters["sched_index_hits"]
    report = traced.docs["report.json"]
    totals = report.get("totals", {})
    out["engines.pulls_coalesced_ratio"] = (
        totals["coalesced_pulls"] / totals["pulls"] if totals.get("pulls") else 0.0)
    out["faults.injected"] = sum(report.get("faults", {}).get("injected", {}).values())
    out["faults.retry_attempts"] = report.get("summary", {}).get("retry_attempts", 0)
    out["trace.overhead_ratio"] = traced.run_s / plain.run_s if plain.run_s > 0 else 0.0
    out["host.nproc"] = host["nproc"]
    out["host.calibration_s"] = host["calibration_s"]
    return out


# -- reporting -----------------------------------------------------------------

def _table(samples: dict[str, list[float]], units: dict[str, str]) -> list[str]:
    lines = [f"  {'metric':34} {'median':>14} {'min':>14} {'max':>14} {'n':>3}  unit"]
    for name, values in samples.items():
        if values:
            lines.append(f"  {name:34} {statistics.median(values):14.6g} "
                         f"{min(values):14.6g} {max(values):14.6g} "
                         f"{len(values):3d}  {units[name]}")
    return lines


def record_digests() -> int:
    """Rewrite ``digests.json`` from one run per workload and recorded seed."""
    recorded = load_recorded()
    seeds = (recorded.get("default_seed", 0), recorded.get("held_out_seed", 1))
    digests: dict = {}
    for wl in WORKLOADS.values():
        for seed in seeds:
            run = Run(wl, seed, OUT / "record" / f"{wl.name}-seed{seed}")
            run.recorded = None
            inv = run.invoke("plain")
            if inv.problems:
                print(f"FAIL {wl.name} seed {seed}: {inv.problems}")
                return 1
            digests.setdefault(wl.name, {})[str(seed)] = {
                name: inv.digests[name] for name in wl.artifacts}
            print(f"{wl.name} seed {seed}: {digests[wl.name][str(seed)]}")
    DIGESTS.write_text(json.dumps(
        {"default_seed": seeds[0], "held_out_seed": seeds[1], "digests": digests},
        indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="fleet-steady")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json for the recorded seeds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record_digests()
    seed = args.seed if args.seed is not None else load_recorded().get("default_seed", 0)
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    host = host_record()
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"calibration_s={host['calibration_s']:.4f}")
    print(f"workload: {wl.name}  python -m repro {' '.join(wl.command(seed))}")
    run = Run(wl, seed, workdir)
    run.prepare()
    if args.trace:
        units = dict(PER_LAYER)
        samples = measure_layers(run, args.seconds, host)
    else:
        units = dict(END_TO_END)
        samples = measure_e2e(run, args.seconds)
    attempted = len(run.invocations)
    failed = run.failed
    problems = [f"invocation {n} ({inv.mode}): {problem}"
                for n, inv in enumerate(run.invocations) for problem in inv.problems]
    for problem in problems:
        print(f"FAIL {problem}")
    for line in _table(samples, units):
        print(line)
    print(f"  {'error_rate':34} {failed / attempted:14.6g} "
          f"{'':14} {'':14} {attempted:3d}  ratio")
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items() if values}
    correct = failed == 0 and len(metrics) == len(units)
    (workdir / "result.json").write_text(json.dumps({
        "workload": wl.name, "seed": seed, "trace": args.trace, "host": host,
        "samples": samples, "correct": correct, "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }, indent=2))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
