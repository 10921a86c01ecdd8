"""§6.5 scaling ablation: how the kubelets-in-allocation approach
behaves as allocations grow.

The standing control plane amortizes over allocations; per-allocation
provision time is dominated by the kubelet join (constant-ish) while
the pod workload parallelizes across the allocation's nodes.

Writes ``out/scenario65_scaling.json`` in the same JSON artifact
convention as the ``BENCH_*.json`` trajectory files: a ``schema`` tag
plus machine-independent rounded rows (split per phase — provision vs
workload — since PR 8), so the sweep's numbers diff cleanly across PRs
instead of living in a rendered text table.

Run as a script (``python benchmarks/bench_scenario_scaling.py``) this
file additionally times the *fleet-scale* sweep — the same scenario at
64/256/1024 nodes, once on the indexed control plane and once on the
pre-optimization linear-scan oracles from ``tests/oracles/`` — and
checks that the two modes are byte-identical on the canonical report
surface (rows + per-pod digests) while the indexed mode is at least
``RATIO_FLOOR``x faster at 1024 nodes.  Environment knobs mirror
``bench_simcore_wallclock``:

- ``SCENARIO_BENCH_OUT``       output filename (default ``BENCH_LOCAL.json``)
- ``SCENARIO_BENCH_BASELINE``  committed ``BENCH_*.json`` file(s), comma-
  separated; fails if any fast-mode point's normalized wall regresses
- ``SCENARIO_BENCH_TOLERANCE`` allowed relative regression (default 0.25)
- ``SCENARIO_BENCH_FULL``      when set, also runs the full
  ``bench_simcore_wallclock`` suite and merges its ``benchmarks`` dict
  into the output, so one file (``BENCH_PR8.json``) can serve both this
  gate and the ``SIMCORE_BENCH_BASELINE`` list
"""

import contextlib
import hashlib
import json
import os
import pathlib
import sys
import time

from repro.scenarios import KubeletInAllocationScenario
from repro.scenarios.base import WORKFLOW_IMAGE
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator

from conftest import once, write_artifact

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # the oracles live in tests/oracles/
from tests.oracles.control_plane import control_plane_oracle  # noqa: E402

#: fleet-scale sweep sizes; the last is the §6 "thousands of nodes" bar.
SCALE_NODES = (64, 256, 1024)
SCALE_PODS_PER_NODE = 2
#: indexed control plane must beat the linear-scan oracles by this much
#: at the largest sweep point.
RATIO_FLOOR = 3.0


def pod_digest(pods) -> str:
    """Order-independent fingerprint of the per-pod outcome surface.

    Covers exactly what a user-visible report is built from — name,
    binding, terminal phase, start/end virtual times (full ``repr``
    precision) — and none of the internal bookkeeping (profile counters,
    apiserver stats) that legitimately differs between the indexed and
    naive control-plane modes.
    """
    lines = sorted(
        f"{p.metadata.name} {p.node_name} {p.phase.value} "
        f"{p.start_time!r} {p.end_time!r}"
        for p in pods
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_once(n_nodes: int, pods_per_node: int = 4):
    env = Environment()
    scenario = KubeletInAllocationScenario(env, n_nodes=n_nodes)
    ready = scenario.provision()
    env.run(until=ready)
    provision_end = env.now
    pods = PodBatchGenerator(WORKFLOW_IMAGE, seed=5, cpu_choices=(8,),
                             duration_range=(60, 60)).batch(n_nodes * pods_per_node)
    submit_at = env.now
    scenario.submit(pods)
    env.run(until=submit_at + 2000)
    scenario.teardown()
    env.run(until=env.now + 50)
    metrics = scenario.metrics()
    workload_end = max(p.end_time for p in pods)
    makespan = workload_end - submit_at
    return {
        "nodes": n_nodes,
        "pods": len(pods),
        "steady_provision_s": round(scenario.steady_state_provision_time, 6),
        "mean_pod_startup_s": round(metrics.mean_pod_startup, 6),
        "workload_makespan_s": round(makespan, 6),
        "completed": metrics.pods_completed,
        "phases": {
            "provision": {
                "virtual_start_s": 0.0,
                "virtual_end_s": round(provision_end, 6),
            },
            "workload": {
                "virtual_start_s": round(submit_at, 6),
                "virtual_end_s": round(workload_end, 6),
            },
        },
        "pod_digest": pod_digest(pods),
    }


def sweep():
    return [run_once(n) for n in (2, 4, 8)]


def test_65_scaling(benchmark, out_dir):
    rows = once(benchmark, sweep)
    document = {
        "schema": "scenario65-scaling/2",
        "workload": "pods = 4x nodes, 60s each, 8 cores",
        "rows": rows,
    }
    write_artifact(
        out_dir, "scenario65_scaling.json", json.dumps(document, indent=2) + "\n"
    )

    assert all(r["completed"] == r["pods"] for r in rows)
    # per-allocation provision stays flat-ish as the allocation grows
    assert rows[-1]["steady_provision_s"] < 2.5 * rows[0]["steady_provision_s"]
    # proportional workload on proportional nodes: makespan roughly flat
    assert rows[-1]["workload_makespan_s"] < 1.5 * rows[0]["workload_makespan_s"]
    # both phases land in order on the virtual clock
    for row in rows:
        phases = row["phases"]
        assert phases["provision"]["virtual_end_s"] <= phases["workload"]["virtual_start_s"]
        assert phases["workload"]["virtual_start_s"] < phases["workload"]["virtual_end_s"]


# --- fleet-scale sweep (script entry point only; too heavy for pytest) ---


def run_scale_suite(calibration_s: float) -> dict:
    """The 64/256/1024-node sweep, indexed vs the linear-scan oracles.

    Both modes must produce byte-identical canonical rows (including the
    per-pod digest); only wall-clock may differ — and must, by at least
    :data:`RATIO_FLOOR` at the largest point.
    """
    scale: dict[str, dict] = {"fast": {}, "naive": {}}
    for mode, plane in (("fast", contextlib.nullcontext), ("naive", control_plane_oracle)):
        for n_nodes in SCALE_NODES:
            t0 = time.perf_counter()
            with plane():
                row = run_once(n_nodes, pods_per_node=SCALE_PODS_PER_NODE)
            wall = time.perf_counter() - t0
            scale[mode][f"n{n_nodes}"] = {
                "wall_clock_s": round(wall, 4),
                "normalized_wall": round(wall / calibration_s, 2),
                "row": row,
            }
            print(f"scenario-scale {mode} n={n_nodes}: {wall:.2f}s wall, "
                  f"{row['completed']}/{row['pods']} pods")
    ratios = {}
    for n_nodes in SCALE_NODES:
        key = f"n{n_nodes}"
        fast_wall = scale["fast"][key]["wall_clock_s"]
        ratios[key] = round(scale["naive"][key]["wall_clock_s"] / max(fast_wall, 1e-9), 2)
    return {"scale": scale, "ratios": ratios}


def check_scale_identity(result: dict) -> list[str]:
    """Fast and naive modes must agree on the entire canonical row."""
    failures = []
    for key, fast in result["scale"]["fast"].items():
        naive = result["scale"]["naive"][key]
        if fast["row"] != naive["row"]:
            failures.append(f"{key}: indexed row diverges from naive oracle")
    return failures


def check_scale_regression(
    result: dict, baseline: dict, tolerance: float, label: str = ""
) -> list[str]:
    """Gate fast-mode normalized wall against a committed baseline.

    Naive-mode wall is the foil, not a gate — it is *expected* to look
    worse as the indexed paths improve.
    """
    failures = []
    tag = f" [{label}]" if label else ""
    base_scale = baseline.get("scale", {}).get("fast", {})
    for key, fresh in result["scale"]["fast"].items():
        base = base_scale.get(key)
        if base is None:
            continue
        allowed = base["normalized_wall"] * (1.0 + tolerance)
        if fresh["normalized_wall"] > allowed:
            failures.append(
                f"scenario-scale {key}{tag}: normalized wall "
                f"{fresh['normalized_wall']:.2f} exceeds baseline "
                f"{base['normalized_wall']:.2f} by more than {tolerance:.0%}"
            )
    return failures


def check_scale_baselines(result: dict, baseline_env: str, tolerance: float) -> list[str]:
    failures: list[str] = []
    for name in filter(None, (n.strip() for n in baseline_env.split(","))):
        baseline = json.loads((REPO_ROOT / name).read_text())
        failures.extend(
            check_scale_regression(result, baseline, tolerance, label=name)
        )
    return failures


if __name__ == "__main__":  # pragma: no cover - manual/CI entry point
    import bench_simcore_wallclock

    calibration_s = bench_simcore_wallclock.calibrate()
    outcome: dict = {
        "schema": "scenario-scale/1",
        "calibration_s": round(calibration_s, 5),
        "pods_per_node": SCALE_PODS_PER_NODE,
    }
    outcome.update(run_scale_suite(calibration_s))

    identity = check_scale_identity(outcome)
    if identity:
        raise SystemExit("MODE DRIFT: " + "; ".join(identity))
    top = f"n{SCALE_NODES[-1]}"
    if outcome["ratios"][top] < RATIO_FLOOR:
        raise SystemExit(
            f"SPEEDUP REGRESSION: indexed control plane only "
            f"{outcome['ratios'][top]:.2f}x over naive at {top} "
            f"(floor {RATIO_FLOOR}x)"
        )
    print(f"indexed vs naive: {outcome['ratios']} (floor {RATIO_FLOOR}x at {top}); "
          f"rows byte-identical across modes")

    if os.environ.get("SCENARIO_BENCH_FULL"):
        full = bench_simcore_wallclock.run_suite()
        outcome["benchmarks"] = full["benchmarks"]

    out_name = os.environ.get("SCENARIO_BENCH_OUT", "BENCH_LOCAL.json")
    (REPO_ROOT / out_name).write_text(json.dumps(outcome, indent=2) + "\n")

    baseline_env = os.environ.get("SCENARIO_BENCH_BASELINE")
    if baseline_env:
        tol = float(os.environ.get("SCENARIO_BENCH_TOLERANCE", "0.25"))
        problems = check_scale_baselines(outcome, baseline_env, tol)
        if problems:
            raise SystemExit("PERF REGRESSION: " + "; ".join(problems))
    print("scenario-scale wall-clock within tolerance")
