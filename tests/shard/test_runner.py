"""Serial-vs-sharded equivalence: the runner's whole contract.

Every test compares artifacts *byte for byte* — rendered tables, trace
JSON, report JSON, profile snapshots — because that is the guarantee
``--jobs N`` makes: not "statistically the same", identical.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard import (
    ObsConfig,
    chaos_seed_sweep,
    merge_profiles,
    parse_seed_range,
    run_cells,
    scenario_matrix,
)
from repro.sim import profile as sim_profile

N_NODES = 2
N_PODS = 4


@pytest.fixture
def _obs_clean():
    yield
    from repro.obs import metrics, trace

    trace.disable()
    trace.reset()
    metrics.registry.enabled = False
    metrics.reset()
    while sim_profile.enable_depth() > 0:
        sim_profile.disable()
    sim_profile.counters.reset()


def _matrix_artifacts(jobs, start_method=None):
    """Run the §6.6 matrix and return comparable artifacts."""
    from repro.core.tables import render_table
    from repro.obs import metrics as obs_metrics
    from repro.scenarios.evaluate import summary_rows

    sim_profile.counters.reset()
    obs_metrics.registry.reset()
    result = run_cells(
        scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS),
        jobs=jobs,
        obs=ObsConfig(metrics=True),
        start_method=start_method,
    )
    table = render_table(summary_rows(result.values()), "matrix")
    metrics_table = obs_metrics.registry.render_table()
    obs_metrics.registry.reset()
    sim_profile.counters.reset()
    return table, metrics_table, result.profile


def test_matrix_serial_vs_sharded_identical(_obs_clean):
    serial = _matrix_artifacts(1)
    for jobs in (2, 4):
        assert _matrix_artifacts(jobs) == serial


def test_matrix_spawn_matches_fork(_obs_clean):
    """Same artifacts under the spawn start method (fresh interpreters)."""
    serial = _matrix_artifacts(1)
    assert _matrix_artifacts(2, start_method="spawn") == serial


def test_matrix_profile_shows_shard_counters(_obs_clean):
    _, _, profile = _matrix_artifacts(2)
    n_cells = len(scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS))
    assert profile["shard_cells_run"] == n_cells


def _sweep_artifacts(jobs, seeds):
    from repro.faults.chaos import chaos_report_document
    from repro.obs import trace as obs_trace
    from repro.obs.export import to_chrome_json, validate_chrome_trace

    obs_trace.tracer.reset()
    result = run_cells(
        chaos_seed_sweep("kubelet-in-allocation", seeds,
                         n_nodes=N_NODES, n_pods=N_PODS),
        jobs=jobs,
        obs=ObsConfig(trace=True),
    )
    doc = chaos_report_document(result.values(), "kubelet-in-allocation")
    trace_text = to_chrome_json(obs_trace.tracer)
    assert validate_chrome_trace(json.loads(trace_text)) == []
    obs_trace.tracer.reset()
    sim_profile.counters.reset()
    return json.dumps(doc, indent=2), trace_text, result.profile


def test_chaos_sweep_serial_vs_sharded_identical(_obs_clean):
    seeds = parse_seed_range("0..3")
    serial = _sweep_artifacts(1, seeds)
    for jobs in (2, 4):
        assert _sweep_artifacts(jobs, seeds) == serial


def _run_state():
    """A deep copy of the complete run state: id positions and each
    sink's fields (``enabled``, the tracer's next tid, the recorder's
    interval and rings, the injector's plan...), histograms as their
    snapshots."""
    from repro.ids import ids
    from repro.shard.state import obs_sinks

    states = []
    for sink in obs_sinks():
        state = sink.swap()
        sink.swap(state)
        state = copy.deepcopy(state)
        if "_histograms" in state:
            state["_histograms"] = {k: h.snapshot() for k, h in state["_histograms"].items()}
        states.append(state)
    return ids.positions(), states


def _parent_run_state():
    """Put recognizable parent state into every obs sink; return it."""
    from repro.obs import metrics, timeseries, trace

    sim_profile.counters.enabled = False
    sim_profile.counters.cow_clones = 7
    metrics.registry.enabled = True
    metrics.registry.inc("parent.ops", 3, site="a")
    metrics.registry.observe("parent.latency", 0.5)
    tracer = trace.tracer.enable(wall_clock=True)
    tracer.instant("parent.mark")
    tracer.absorb({"events": [("i", "parent.row", 1.0, 0, None, None)],
                   "thread_names": {0: "main"}}, label="parent")
    recorder = timeseries.recorder.enable(interval=7.0)
    recorder.record("parent.series", 7.0, 1.0)
    recorder.sample(14.0)
    return _run_state()


@pytest.fixture
def _sinks_clean(_obs_clean):
    yield
    from repro.shard.state import obs_sinks

    for sink in obs_sinks():
        sink.swap()


def test_runner_restores_parent_state(_sinks_clean):
    from repro.shard.state import WorldState

    before = WorldState.capture()
    ids_before, (prof, reg, trc, rec, inj) = _parent_run_state()
    result = run_cells(scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS)[:1], jobs=1)
    after = WorldState.capture()
    # The parent world (ids + caches) is untouched, and so is every obs
    # sink; only the merged profile counters landed on top.
    assert after.counters == before.counters == ids_before
    assert set(after.flatten_cache) == set(before.flatten_cache)
    ids_now, (prof_now, reg_now, trc_now, rec_now, inj_now) = _run_state()
    assert (reg_now, trc_now, rec_now, inj_now) == (reg, trc, rec, inj)
    assert prof_now.pop("enabled") is prof.pop("enabled") is False
    assert prof_now == merge_profiles([prof, result.profile])
    assert prof_now["shard_cells_run"] == 1


def test_runner_merges_on_top_of_restored_parent(_sinks_clean):
    ids_before, (_prof, reg, trc, rec, _inj) = _parent_run_state()
    result = run_cells(
        chaos_seed_sweep("kubelet-in-allocation", [0, 1], n_nodes=N_NODES, n_pods=2),
        jobs=2,
        obs=ObsConfig(metrics=True, trace=True, timeseries=10.0),
    )
    ids_now, (prof_now, reg_now, trc_now, rec_now, _inj_now) = _run_state()
    assert ids_now == ids_before
    for state, state_now in ((reg, reg_now), (trc, trc_now), (rec, rec_now)):
        assert state_now["enabled"] == state["enabled"]
    assert prof_now["enabled"] is False
    assert trc_now["wall_clock"] is True
    # parent series and rows first, the cells' merged after them
    assert reg_now["_counters"][("parent.ops", (("site", "a"),))] == 3
    assert len(reg_now["_counters"]) > len(reg["_counters"])
    n = len(trc["_events"])
    assert trc_now["_events"][:n] == trc["_events"]
    cell_rows = {event[3] for event in trc_now["_events"][n:]}
    assert min(cell_rows) == trc["_next_tid"]
    assert trc_now["_next_tid"] == trc["_next_tid"] + len(cell_rows)
    assert all(trc_now["_thread_names"][t] == name
               for t, name in trc["_thread_names"].items())
    labels = [r.label for r in result.results]
    assert {trc_now["_thread_names"][t].split(":")[0] for t in cell_rows} == set(labels)
    key = ("parent.series", ())
    assert list(rec_now["_points"][key]) == list(rec["_points"][key])
    assert len(rec_now["_points"]) > len(rec["_points"])
    # the merged rings sit on the cells' grid, and the recorder says so
    assert rec_now["interval"] == 10.0


@dataclasses.dataclass(frozen=True)
class _FailingCell:
    """A cell that draws ids, records into every sink, then raises."""

    label: str = "failing"

    def run(self):
        from repro.fs.tree import FileTree
        from repro.obs import metrics, trace

        FileTree().create_file("/draws/ids", size=1)
        metrics.registry.inc("cell.ops")
        trace.tracer.instant("cell.mark")
        raise RuntimeError("cell failed")


def test_runner_restores_parent_state_when_a_cell_raises(_sinks_clean):
    ids_before, states = _parent_run_state()
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cells([_FailingCell()], jobs=1,
                  obs=ObsConfig(metrics=True, trace=True, timeseries=1.0))
    ids_now, states_now = _run_state()
    assert ids_now == ids_before
    assert states_now == states



def test_runner_keeps_the_parent_fault_plan_armed(_sinks_clean):
    """A serial shard run neither drops the parent's armed plan nor lets
    it reach the cells: the cell reports equal those of a clean run."""
    from repro.faults.injector import injector
    from repro.sim import Environment

    cells = chaos_seed_sweep("kubelet-in-allocation", [0], n_nodes=N_NODES, n_pods=2)
    clean = run_cells(cells, jobs=1).values()
    plan = chaos_seed_sweep("kubelet-in-allocation", [1], n_nodes=N_NODES)[0].plan()
    env = Environment()
    injector.arm(plan, env)
    windows = {point: list(events) for point, events in injector._windows.items()}
    assert windows
    armed = run_cells(cells, jobs=1).values()
    assert injector.enabled
    assert injector._plan is plan and injector._env is env
    assert injector._windows == windows
    assert armed == clean

# -- the partition-merge property --------------------------------------------

_SNAP = st.fixed_dictionaries(
    {field: st.integers(min_value=0, max_value=10**6)
     for field in sim_profile._FIELDS}
)


@settings(max_examples=50, deadline=None)
@given(snaps=st.lists(_SNAP, max_size=8), cut=st.integers(min_value=0, max_value=8))
def test_profile_merge_is_partition_invariant(snaps, cut):
    """Merging any split of the cells equals merging them all at once —
    the algebraic fact that makes sharded profile totals equal serial."""
    cut = min(cut, len(snaps))
    left, right = snaps[:cut], snaps[cut:]
    two_step = merge_profiles([merge_profiles(left), merge_profiles(right)])
    assert two_step == merge_profiles(snaps)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_seed_partition_merges_to_same_report(data):
    """Any partition of a sweep's seeds, run as separate batches and
    concatenated in order, yields the same report document."""
    from repro.faults.chaos import chaos_report_document

    seeds = list(range(4))
    cut = data.draw(st.integers(min_value=0, max_value=len(seeds)))
    cells = chaos_seed_sweep("kubelet-in-allocation", seeds,
                             n_nodes=N_NODES, n_pods=2)

    whole = run_cells(cells, jobs=1).values()
    parts = (run_cells(cells[:cut], jobs=1).values()
             + run_cells(cells[cut:], jobs=1).values())
    sim_profile.counters.reset()
    assert (chaos_report_document(parts, "kubelet-in-allocation")
            == chaos_report_document(whole, "kubelet-in-allocation"))
