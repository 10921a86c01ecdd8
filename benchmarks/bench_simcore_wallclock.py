"""Wall-clock macro-benchmark of the discrete-event core.

Times the three heaviest existing sweeps end to end — the 64-node
small-file startup sweep (§3.2), the §6.5 scaling ablation, and the §6.6
scenario matrix — and records, for each, wall-clock seconds plus the
sim-core event counters from :mod:`repro.sim.profile`.  Results are
written as a ``BENCH_*.json`` file at the repo root, the repo's perf
trajectory: each PR that touches the hot path leaves its numbers behind
so the next one can't silently regress them.

Environment knobs (all optional):

- ``SIMCORE_BENCH_OUT``      output filename (default ``BENCH_LOCAL.json``;
  committed trajectory files like ``BENCH_PR2.json`` are written only
  when named explicitly, so a stray local run can't clobber history)
- ``SIMCORE_BENCH_BASELINE`` committed ``BENCH_*.json`` file(s) to
  compare against (comma-separated for several — e.g. an old floor plus
  the newest trajectory point); the test fails if any sweep's
  *normalized* wall-clock regresses beyond the tolerance against *any*
  of them
- ``SIMCORE_BENCH_TOLERANCE`` allowed relative regression (default 0.25)

Wall-clock comparisons across machines are normalized by a calibration
microloop (a fixed 60k-event ping workload timed on the same host), so a
slower CI runner doesn't read as a regression.  Event *counters* are
machine-independent and are additionally checked strictly: sweeps must
not process more than ``1 + tolerance`` times the baseline's events.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.sim import Environment
from repro.sim import profile

import bench_scenario_scaling
import bench_scenarios
import bench_smallfile_startup

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (name, zero-arg callable) — the three heaviest sim-bound sweeps.
SWEEPS = [
    ("smallfile_startup_sweep", bench_smallfile_startup.sweep),
    ("scenario65_scaling_sweep", bench_scenario_scaling.sweep),
    ("section66_scenario_matrix", bench_scenarios.run_matrix),
]

#: chaos sweep half of the shard workload: one scenario, 16 seeds.
SHARD_CHAOS_SCENARIO = "kubelet-in-allocation"
SHARD_CHAOS_SEEDS = range(16)


def _shard_cells():
    """The shard workload: the full §6.6 matrix plus a 16-seed chaos sweep."""
    from repro.shard import chaos_seed_sweep, scenario_matrix

    return scenario_matrix() + chaos_seed_sweep(
        SHARD_CHAOS_SCENARIO, SHARD_CHAOS_SEEDS
    )


def shard_parallel_jobs() -> int:
    """Worker count for the parallel shard entry: the host's cores,
    capped at 4 (the workload has 22 cells; more workers just idle),
    floored at 2 so the entry always exercises a real pool."""
    return max(2, min(4, os.cpu_count() or 1))


def run_shard_suite(calibration_s: float) -> dict:
    """Time the shard workload serial vs parallel.

    The merged profile counters come straight off the runner
    (:class:`~repro.shard.ShardResult`), are machine-independent, and —
    because every cell starts from the pristine world and the runner's
    merge is placement-invariant — identical between the two entries.
    """
    from repro.shard import run_cells

    cells = _shard_cells()
    entries = {}
    for name, jobs in (
        ("shard_matrix_chaos_serial", 1),
        ("shard_matrix_chaos_parallel", shard_parallel_jobs()),
    ):
        t0 = time.perf_counter()
        result = run_cells(cells, jobs=jobs)
        wall = time.perf_counter() - t0
        entries[name] = {
            "wall_clock_s": round(wall, 4),
            "normalized_wall": round(wall / calibration_s, 2),
            "jobs": jobs,
            "cells": len(cells),
            "sim_counters": result.profile,
        }
    return entries


def _calibration_workload() -> None:
    """A fixed sim-core microloop: ~60k events of pure bookkeeping."""
    env = Environment()

    def ping(env):
        for _ in range(200):
            yield env.timeout(1)

    for _ in range(100):
        env.process(ping(env))
    env.run()


def calibrate(repeats: int = 3) -> float:
    """Seconds this host takes for the calibration microloop (best of N)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - t0)
    return best


def run_suite() -> dict:
    """Time each sweep (counters off), then re-run it for counters."""
    calibration_s = calibrate()
    benchmarks = {}
    for name, fn in SWEEPS:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        prof = profile.enable()
        fn()
        profile.disable()
        benchmarks[name] = {
            "wall_clock_s": round(wall, 4),
            "normalized_wall": round(wall / calibration_s, 2),
            "sim_counters": prof.snapshot(),
        }
    benchmarks.update(run_shard_suite(calibration_s))
    return {
        "schema": "simcore-wallclock/1",
        "calibration_s": round(calibration_s, 5),
        "benchmarks": benchmarks,
    }


def check_regression(
    result: dict, baseline: dict, tolerance: float, label: str = ""
) -> list[str]:
    """Compare a fresh run against a committed baseline; returns failures."""
    failures = []
    tag = f" [{label}]" if label else ""
    for name, fresh in result["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            continue
        allowed = base["normalized_wall"] * (1.0 + tolerance)
        if fresh["normalized_wall"] > allowed:
            failures.append(
                f"{name}{tag}: normalized wall-clock {fresh['normalized_wall']:.2f} "
                f"exceeds baseline {base['normalized_wall']:.2f} by more than "
                f"{tolerance:.0%}"
            )
        base_events = base["sim_counters"]["events_processed"]
        fresh_events = fresh["sim_counters"]["events_processed"]
        if fresh_events > base_events * (1.0 + tolerance):
            failures.append(
                f"{name}{tag}: {fresh_events} events processed vs baseline "
                f"{base_events} (> {tolerance:.0%} more simulator bookkeeping)"
            )
    return failures


def check_baselines(result: dict, baseline_env: str, tolerance: float) -> list[str]:
    """Run :func:`check_regression` against every comma-separated baseline."""
    failures: list[str] = []
    for name in filter(None, (n.strip() for n in baseline_env.split(","))):
        baseline = json.loads((REPO_ROOT / name).read_text())
        failures.extend(check_regression(result, baseline, tolerance, label=name))
    return failures


def test_simcore_wallclock(benchmark):
    result = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    out_name = os.environ.get("SIMCORE_BENCH_OUT", "BENCH_LOCAL.json")
    out_path = REPO_ROOT / out_name
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    # The whole point of the batched/slotted core: even the heaviest sweep
    # is a bounded amount of simulator bookkeeping.  This bound is
    # machine-independent (the pre-optimization core processed >1M events
    # for the small-file sweep alone).
    smallfile = result["benchmarks"]["smallfile_startup_sweep"]["sim_counters"]
    assert smallfile["events_processed"] < 200_000

    # Sharded execution is a pure re-scheduling: the merged counters are
    # machine- and placement-independent, so serial and parallel entries
    # must agree exactly, and every cell must have run.
    serial = result["benchmarks"]["shard_matrix_chaos_serial"]
    parallel = result["benchmarks"]["shard_matrix_chaos_parallel"]
    assert parallel["sim_counters"] == serial["sim_counters"]
    assert serial["sim_counters"]["shard_cells_run"] == serial["cells"]
    if (os.cpu_count() or 1) >= 2:
        # the PR6 acceptance bar: ≤ 0.6x serial wall on a real multicore
        assert parallel["wall_clock_s"] <= 0.6 * serial["wall_clock_s"], (
            f"sharded run took {parallel['wall_clock_s']:.2f}s with "
            f"{parallel['jobs']} jobs vs {serial['wall_clock_s']:.2f}s serial"
        )

    baseline_env = os.environ.get("SIMCORE_BENCH_BASELINE")
    if baseline_env:
        tolerance = float(os.environ.get("SIMCORE_BENCH_TOLERANCE", "0.25"))
        failures = check_baselines(result, baseline_env, tolerance)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    outcome = run_suite()
    print(json.dumps(outcome, indent=2))
    for sweep_name, data in outcome["benchmarks"].items():
        c = data["sim_counters"]
        if "jobs" in data:
            print(
                f"{sweep_name}: {data['cells']} cells with jobs={data['jobs']} in "
                f"{data['wall_clock_s']:.2f}s; {c['events_processed']} events processed"
            )
            continue
        print(
            f"{sweep_name}: {c['events_processed']} events processed; tickless "
            f"parked {c['parked_processes']} times, {c['wakeups_fired']} wakeups, "
            f"{c['poll_ticks_skipped']} idle poll ticks skipped"
        )
        print(
            f"  rootfs CoW: {c['cow_clones']} O(1) clones, "
            f"{c['cow_copy_ups']} copy-ups, {c['digest_cache_hits']} digest "
            f"memo hits, {c['flatten_cache_hits']} flatten/convert cache hits"
        )
    name = os.environ.get("SIMCORE_BENCH_OUT", "BENCH_LOCAL.json")
    (REPO_ROOT / name).write_text(json.dumps(outcome, indent=2) + "\n")
    serial = outcome["benchmarks"]["shard_matrix_chaos_serial"]
    parallel = outcome["benchmarks"]["shard_matrix_chaos_parallel"]
    if parallel["sim_counters"] != serial["sim_counters"]:
        raise SystemExit("shard merge drift: serial and parallel counters differ")
    if (os.cpu_count() or 1) >= 2 and parallel["wall_clock_s"] > 0.6 * serial["wall_clock_s"]:
        raise SystemExit(
            f"SHARD REGRESSION: {parallel['wall_clock_s']:.2f}s with "
            f"{parallel['jobs']} jobs vs {serial['wall_clock_s']:.2f}s serial "
            f"(> 0.6x on {os.cpu_count()} cores)"
        )
    baseline_env = os.environ.get("SIMCORE_BENCH_BASELINE")
    if baseline_env:
        tol = float(os.environ.get("SIMCORE_BENCH_TOLERANCE", "0.25"))
        problems = check_baselines(outcome, baseline_env, tol)
        if problems:
            raise SystemExit("PERF REGRESSION: " + "; ".join(problems))
    print("wall-clock within tolerance")
