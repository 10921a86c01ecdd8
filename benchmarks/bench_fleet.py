"""Fleet-scale workload benchmark: the PR 7 perf trajectory.

Times :mod:`repro.workload.fleet` at the shapes the §4 cost claims live
at and records the numbers to a ``BENCH_*.json`` trajectory file (same
schema and baseline gate as ``bench_simcore_wallclock.py``):

- ``fleet_10knodes_100k_fast`` / ``..._naive`` — the optimized engine
  vs the pre-optimization oracle from ``tests/oracles/fleet.py`` (one
  event per arrival/completion, linear capacity scans) on one shard of
  10k nodes.  Their reports must be byte-identical and the
  entry records ``speedup_vs_naive`` (the PR acceptance bar is >= 5x).
- ``fleet_flagship_1m`` — 2000 tenants / 10k nodes / 1M starts across 8
  cells, the headline scale, with the sim counters
  (``event_queue_peak``, ``live_objects_peak``) proving the epoch
  batching kept simulator bookkeeping bounded.
- ``fleet_flagship_1m_sampled`` — the same flagship with virtual-time
  time-series sampling on (``repro.obs.timeseries``): the report must be
  unchanged and the wall-clock overhead within ``SAMPLED_OVERHEAD_BAR``.
- ``fleet_parallel_serial`` / ``fleet_parallel_jobs`` — the same fleet
  serial vs ``--jobs N``: merged report and counters must match exactly.
- ``fleet_chaos_seeded`` — a seeded fault plan (node crashes + registry
  windows, PR 10) armed over a mid-size fleet: the run must stay
  deterministic (double run compared), drain leak-free, and the chaos
  accounting (crashes / requeues / injections) is recorded as
  machine-independent gate numbers.
- a ``zipf_sweep`` extra regenerating the §4 cache-economics shape:
  warm-start rate rises and pulled bytes fall monotonically with image-
  popularity skew.

Environment knobs (all optional):

- ``FLEET_BENCH_OUT``       output filename (default ``BENCH_LOCAL_FLEET.json``)
- ``FLEET_BENCH_BASELINE``  committed ``BENCH_*.json`` file(s) to gate
  against (comma-separated), via the wallclock bench's normalized-wall
  and event-counter checks
- ``FLEET_BENCH_TOLERANCE`` allowed relative regression (default 0.25)
- ``FLEET_BENCH_FULL``      if set, also run the simcore wall-clock
  suite and merge its entries into the output — this is how the
  committed ``BENCH_PR7.json`` is produced, so one file can serve as a
  baseline for both benches
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

from repro.shard import ObsConfig, run_cells
from repro.workload.fleet import (
    FleetConfig,
    FleetResult,
    fleet_cells,
    fleet_report_document,
    generate_fleet_plan,
    merge_shard_results,
)

import bench_simcore_wallclock as _wallclock
from bench_simcore_wallclock import REPO_ROOT, calibrate, check_baselines

sys.path.insert(0, str(REPO_ROOT))  # the oracles live in tests/oracles/
from tests.oracles.fleet import fleet_oracle  # noqa: E402

#: fast-vs-naive ratio shape: one shard so the naive linear scan faces
#: the full 10k-node pool, exactly what CapacityIndex replaced.
RATIO_CONFIG = FleetConfig(tenants=64, nodes=10_000, starts=100_000, shards=1)

#: the headline scale from the issue: 10k+ nodes, 1M+ container starts.
FLAGSHIP_CONFIG = FleetConfig(
    tenants=2000, nodes=10_000, starts=1_000_000, shards=8, day=3600.0
)

#: small enough to run twice (serial + pooled) in a few seconds.
PARALLEL_CONFIG = FleetConfig(tenants=256, nodes=2_000, starts=100_000, shards=8)

#: §4 cache-economics sweep: image-popularity skew vs cache hit rate.
ZIPF_SKEWS = (0.6, 1.1, 1.6)
ZIPF_CONFIG = FleetConfig(tenants=64, nodes=1_000, starts=50_000, shards=4)

#: seeded chaos shape: big enough that the generated node crashes land
#: on busy nodes (nonzero requeues), small enough to run twice.
CHAOS_CONFIG = FleetConfig(tenants=64, nodes=1_000, starts=100_000, shards=4)
CHAOS_SEED = 3

#: sampling-enabled flagship acceptance bar: wall clock vs unsampled.
SAMPLED_OVERHEAD_BAR = 1.25

#: sampling interval for the sampled flagship entry (virtual seconds).
SAMPLE_INTERVAL_S = 5.0


def timed_fleet(config: FleetConfig, jobs: int = 1,
                sample_interval: float | None = None, plan=None):
    """Run a fleet through the shard runner; returns (wall, counters, result).

    The runner enables the profile counters inside every cell and merges
    them, so one pass yields both the timing and the machine-independent
    event counts."""
    cells = fleet_cells(config, plan=plan)
    obs = ObsConfig(timeseries=sample_interval)
    t0 = time.perf_counter()
    shard = run_cells(cells, jobs=jobs, obs=obs)
    wall = time.perf_counter() - t0
    return wall, shard.profile, merge_shard_results(shard.values(), config)


def _entry(wall: float, calibration_s: float, counters: dict,
           result: FleetResult, jobs: int) -> dict:
    cfg = result.config
    return {
        "wall_clock_s": round(wall, 4),
        "normalized_wall": round(wall / calibration_s, 2),
        "jobs": jobs,
        "tenants": cfg.tenants,
        "nodes": cfg.nodes,
        "starts": cfg.starts,
        "shards": result.shards,
        "starts_per_sec": round(result.starts / wall) if wall else 0,
        "warm_rate": round(result.warm_rate, 4),
        "bytes_saved_ratio": round(result.bytes_saved_ratio, 4),
        "registry_pulls": result.registry_pulls,
        "pending_peak": result.pending_peak,
        "mean_wait_s": round(result.mean_wait, 4),
        "sim_counters": counters,
    }


def run_fleet_suite() -> dict:
    calibration_s = calibrate()
    benchmarks: dict[str, dict] = {}

    # -- optimized vs pre-optimization, byte-identical outputs --------------
    wall_fast, prof_fast, res_fast = timed_fleet(RATIO_CONFIG)
    with fleet_oracle():
        wall_naive, prof_naive, res_naive = timed_fleet(RATIO_CONFIG)
    if fleet_report_document(res_fast) != fleet_report_document(res_naive):
        raise AssertionError(
            "optimized fleet diverged from the naive reference implementation"
        )
    speedup = wall_naive / wall_fast
    benchmarks["fleet_10knodes_100k_fast"] = {
        **_entry(wall_fast, calibration_s, prof_fast, res_fast, jobs=1),
        "speedup_vs_naive": round(speedup, 2),
    }
    benchmarks["fleet_10knodes_100k_naive"] = _entry(
        wall_naive, calibration_s, prof_naive, res_naive, jobs=1
    )

    # -- flagship: 10k nodes, 1M starts -------------------------------------
    wall, prof, res = timed_fleet(FLAGSHIP_CONFIG)
    if res.leaks:
        raise AssertionError(f"flagship fleet leaked: {res.leaks}")
    benchmarks["fleet_flagship_1m"] = _entry(
        wall, calibration_s, prof, res, jobs=1
    )

    # -- flagship again with virtual-time sampling on ------------------------
    from repro.obs.timeseries import recorder as _recorder

    wall_sampled, prof_sampled, res_sampled = timed_fleet(
        FLAGSHIP_CONFIG, sample_interval=SAMPLE_INTERVAL_S
    )
    if fleet_report_document(res_sampled) != fleet_report_document(res):
        raise AssertionError("time-series sampling changed the fleet report")
    if prof_sampled != prof:
        raise AssertionError("time-series sampling changed the sim counters")
    series_count = len(_recorder._points)
    sample_ticks = _recorder.samples
    _recorder.reset()  # drop the merged rings before re-timing
    # Single-shot wall ratios jitter by several percent on a busy host;
    # best-of-two on each side keeps the overhead gate honest without
    # letting a lucky baseline hide a real regression.
    wall_sampled_2, _, _ = timed_fleet(
        FLAGSHIP_CONFIG, sample_interval=SAMPLE_INTERVAL_S
    )
    _recorder.reset()
    wall_base_2, _, _ = timed_fleet(FLAGSHIP_CONFIG)
    overhead = min(wall_sampled, wall_sampled_2) / min(wall, wall_base_2)
    benchmarks["fleet_flagship_1m_sampled"] = {
        **_entry(wall_sampled, calibration_s, prof_sampled, res_sampled, jobs=1),
        "sample_interval_s": SAMPLE_INTERVAL_S,
        "series": series_count,
        "sample_ticks": sample_ticks,
        "sampling_overhead": round(overhead, 3),
    }

    # -- serial vs pooled: byte-identical merge ------------------------------
    jobs = _wallclock.shard_parallel_jobs()
    wall_ser, prof_ser, res_ser = timed_fleet(PARALLEL_CONFIG)
    wall_par, prof_par, res_par = timed_fleet(PARALLEL_CONFIG, jobs=jobs)
    if fleet_report_document(res_ser) != fleet_report_document(res_par):
        raise AssertionError("parallel fleet report differs from serial")
    if prof_ser != prof_par:
        raise AssertionError("parallel fleet counters differ from serial")
    benchmarks["fleet_parallel_serial"] = _entry(
        wall_ser, calibration_s, prof_ser, res_ser, jobs=1
    )
    benchmarks["fleet_parallel_jobs"] = _entry(
        wall_par, calibration_s, prof_par, res_par, jobs=jobs
    )

    # -- seeded chaos: armed fault plan, deterministic accounting ------------
    plan = generate_fleet_plan(CHAOS_CONFIG, seed=CHAOS_SEED)
    wall_chaos, prof_chaos, res_chaos = timed_fleet(CHAOS_CONFIG, plan=plan)
    if res_chaos.leaks:
        raise AssertionError(f"chaos fleet leaked: {res_chaos.leaks}")
    _, _, res_chaos_again = timed_fleet(CHAOS_CONFIG, plan=plan)
    if fleet_report_document(res_chaos) != fleet_report_document(res_chaos_again):
        raise AssertionError("seeded chaos fleet run is not deterministic")
    benchmarks["fleet_chaos_seeded"] = {
        **_entry(wall_chaos, calibration_s, prof_chaos, res_chaos, jobs=1),
        "chaos_seed": CHAOS_SEED,
        "crashes": res_chaos.crashes,
        "requeues": res_chaos.requeues,
        "failed": res_chaos.failed,
        "injected": dict(sorted(res_chaos.injected.items())),
    }

    # -- §4 cache economics vs popularity skew -------------------------------
    zipf_rows = []
    for skew in ZIPF_SKEWS:
        _, _, res_z = timed_fleet(dataclasses.replace(ZIPF_CONFIG, zipf_s=skew))
        zipf_rows.append({
            "zipf_s": skew,
            "warm_rate": round(res_z.warm_rate, 4),
            "cold_pulls": res_z.cold_pulls,
            "pulled_bytes": res_z.pulled_bytes,
            "bytes_saved_ratio": round(res_z.bytes_saved_ratio, 4),
        })

    return {
        "schema": "simcore-wallclock/1",
        "calibration_s": round(calibration_s, 5),
        "benchmarks": benchmarks,
        "zipf_sweep": zipf_rows,
    }


def check_fleet_invariants(result: dict) -> None:
    """Machine-independent assertions on a suite result."""
    bench = result["benchmarks"]
    fast = bench["fleet_10knodes_100k_fast"]
    naive = bench["fleet_10knodes_100k_naive"]
    flagship = bench["fleet_flagship_1m"]

    # the PR acceptance bar: >= 5x over the pre-optimization engine
    assert fast["speedup_vs_naive"] >= 5.0, (
        f"fleet speedup {fast['speedup_vs_naive']}x below the 5x bar"
    )
    # epoch batching, not luck: the naive engine needs an event per
    # arrival + completion, the fast engine one per non-empty epoch.
    assert naive["sim_counters"]["events_processed"] >= (
        10 * fast["sim_counters"]["events_processed"]
    )
    # flagship bookkeeping stays bounded (naive would be > 2M events)
    assert flagship["sim_counters"]["events_processed"] < 100_000
    assert flagship["sim_counters"]["event_queue_peak"] > 0
    assert flagship["sim_counters"]["live_objects_peak"] > 0

    # sampling rides the epoch loop: points recorded, wall within budget
    sampled = bench.get("fleet_flagship_1m_sampled")
    if sampled is not None:
        assert sampled["sample_ticks"] > 0 and sampled["series"] > 0
        assert sampled["sampling_overhead"] <= SAMPLED_OVERHEAD_BAR, (
            f"sampling overhead {sampled['sampling_overhead']}x exceeds the "
            f"{SAMPLED_OVERHEAD_BAR}x bar"
        )

    # chaos entries are gate numbers, not luck: the seeded plan must
    # actually crash busy nodes and the requeued starts must all land
    chaos = bench.get("fleet_chaos_seeded")
    if chaos is not None:
        assert chaos["crashes"] > 0, "seeded chaos plan crashed no node"
        assert chaos["requeues"] > 0, "node crashes requeued no starts"
        assert chaos["injected"].get("node_crash") == chaos["crashes"]

    # §4 economics: more skew -> hotter cache -> fewer transferred bytes
    rows = result["zipf_sweep"]
    warm = [r["warm_rate"] for r in rows]
    pulled = [r["pulled_bytes"] for r in rows]
    assert warm == sorted(warm), f"warm rate not monotone in skew: {warm}"
    assert pulled == sorted(pulled, reverse=True), (
        f"pulled bytes not monotone-decreasing in skew: {pulled}"
    )


def test_fleet_bench(benchmark):
    result = benchmark.pedantic(run_fleet_suite, rounds=1, iterations=1)

    out_name = os.environ.get("FLEET_BENCH_OUT", "BENCH_LOCAL_FLEET.json")
    (REPO_ROOT / out_name).write_text(json.dumps(result, indent=2) + "\n")

    check_fleet_invariants(result)

    serial = result["benchmarks"]["fleet_parallel_serial"]
    parallel = result["benchmarks"]["fleet_parallel_jobs"]
    if (os.cpu_count() or 1) >= 2:
        assert parallel["wall_clock_s"] <= 0.8 * serial["wall_clock_s"], (
            f"pooled fleet took {parallel['wall_clock_s']:.2f}s with "
            f"{parallel['jobs']} jobs vs {serial['wall_clock_s']:.2f}s serial"
        )

    baseline_env = os.environ.get("FLEET_BENCH_BASELINE")
    if baseline_env:
        tolerance = float(os.environ.get("FLEET_BENCH_TOLERANCE", "0.25"))
        failures = check_baselines(result, baseline_env, tolerance)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    outcome = run_fleet_suite()
    if os.environ.get("FLEET_BENCH_FULL"):
        simcore = _wallclock.run_suite()
        outcome["benchmarks"] = {
            **simcore["benchmarks"], **outcome["benchmarks"]
        }
    print(json.dumps(outcome, indent=2))
    check_fleet_invariants(outcome)
    fast = outcome["benchmarks"]["fleet_10knodes_100k_fast"]
    flagship = outcome["benchmarks"]["fleet_flagship_1m"]
    print(
        f"fleet fast path: {fast['starts_per_sec']} starts/s, "
        f"{fast['speedup_vs_naive']}x over naive"
    )
    print(
        f"flagship: {flagship['starts']} starts on {flagship['nodes']} nodes in "
        f"{flagship['wall_clock_s']:.2f}s "
        f"({flagship['sim_counters']['events_processed']} sim events, "
        f"queue peak {flagship['sim_counters']['event_queue_peak']})"
    )
    name = os.environ.get("FLEET_BENCH_OUT", "BENCH_LOCAL_FLEET.json")
    (REPO_ROOT / name).write_text(json.dumps(outcome, indent=2) + "\n")
    baseline_env = os.environ.get("FLEET_BENCH_BASELINE")
    if baseline_env:
        tol = float(os.environ.get("FLEET_BENCH_TOLERANCE", "0.25"))
        problems = check_baselines(outcome, baseline_env, tol)
        if problems:
            raise SystemExit("PERF REGRESSION: " + "; ".join(problems))
    print("fleet bench within tolerance")
