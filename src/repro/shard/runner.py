"""The deterministic shard runner.

Executes a list of :mod:`repro.shard.cells` across N worker processes
(or in-process for ``jobs=1``) and merges the per-cell outputs back
into the parent's observability state so that the table rows, metrics
snapshots, trace exports and profile counters are **byte-identical to a
serial run**.  Three invariants make that hold:

1. *Every* cell — in-process or in a pool worker, fork or spawn start
   method — begins by blanking every sink (the fault injector included)
   and installing the pristine :class:`WorldState`.  Whatever a previous
   cell (or a forked parent image) left behind is overwritten, so a
   cell's result depends only on the cell value itself.
2. Results are collected with order-preserving ``Pool.map`` and merged
   strictly in cell-index order — never completion order — so gauge
   last-writer-wins, trace row numbering and report concatenation are
   placement-independent.
3. Merge rules are associative re-labelings, not recomputations:
   counters and histogram buckets add, ``peak_queue_depth`` maxes,
   trace rows are re-keyed onto fresh tids per cell.

The parent's whole :class:`RunState` (world plus every sink's complete
state, an armed fault plan included) is taken out before the first cell
and put back before merging, so calling the runner is invisible to
surrounding code beyond the merged-in results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as _mp
import typing as _t

from repro.shard.cells import Cell
from repro.shard.state import RunState, WorldState, obs_sinks
from repro.sim import profile as _profile


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """Which observability layers each cell records (and the merge
    therefore reconstructs in the parent)."""

    metrics: bool = False
    trace: bool = False
    #: time-series sampling interval (virtual seconds) or None = off;
    #: cells enable the recorder at this interval, and the parent merges
    #: the sampled rings in cell-index order
    timeseries: float | None = None


@dataclasses.dataclass
class CellResult:
    """One cell's outputs: the scenario/chaos value plus raw
    observability state, all picklable."""

    index: int
    label: str
    value: object
    profile: dict[str, int]
    metrics: dict | None
    trace: dict | None
    timeseries: dict | None = None


@dataclasses.dataclass
class ShardResult:
    """All cell results (cell-index order) plus the merged profile."""

    results: list[CellResult]
    profile: dict[str, int]
    jobs: int

    def values(self) -> list:
        return [r.value for r in self.results]


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap workers — no
    re-import), else ``spawn``.  Results are identical under both
    because every cell installs its full world state first."""
    return "fork" if "fork" in _mp.get_all_start_methods() else "spawn"


def merge_profiles(snaps: _t.Iterable[dict[str, int]]) -> dict[str, int]:
    """Fold per-cell counter snapshots: sums, max for high-water marks."""
    block = _profile.SimCounters()
    for snap in snaps:
        block.merge(snap)
    return block.snapshot()


def _execute_cell(
    index: int, cell: Cell, world: WorldState, obs: ObsConfig
) -> CellResult:
    """Run one cell from ``world`` and capture everything it produced.

    This is the only place cells execute, so serial and pooled runs are
    the same code path; it deliberately clobbers the process-wide state
    (the parent takes its own out around the whole batch)."""
    counters, registry, tracer, recorder, _injector = sinks = obs_sinks()
    for sink in sinks:
        sink.swap()
    counters.enabled = True
    registry.enabled = obs.metrics
    tracer.enabled = obs.trace
    if obs.timeseries is not None:
        recorder.enable(interval=obs.timeseries)
    world.install()
    counters.shard_cells_run += 1
    value = cell.run()
    return CellResult(
        index=index,
        label=cell.label,
        value=value,
        profile=counters.snapshot(),
        metrics=registry.capture_state() if obs.metrics else None,
        trace=tracer.capture_state() if obs.trace else None,
        timeseries=recorder.capture_state() if obs.timeseries is not None else None,
    )


def _worker_run(item: tuple[int, Cell, WorldState, ObsConfig]) -> CellResult:
    """Pool entry point (module-level, so it pickles by name)."""
    return _execute_cell(*item)


def run_cells(
    cells: _t.Sequence[Cell],
    jobs: int = 1,
    obs: ObsConfig | None = None,
    start_method: str | None = None,
) -> ShardResult:
    """Execute ``cells`` across ``jobs`` workers and merge the outputs.

    ``jobs <= 1`` runs in-process through the identical per-cell path;
    every cell starts from the pristine world.  After the call the
    parent's profile counters, metrics registry, tracer and recorder
    hold the merged results on top of whatever they held before, and
    its fault injector is as it was.
    """
    obs = obs or ObsConfig()
    world = WorldState.pristine()
    items = [(i, cell, world, obs) for i, cell in enumerate(cells)]
    parent = RunState.take()
    try:
        if jobs <= 1 or len(items) <= 1:
            results = [_execute_cell(*item) for item in items]
        else:
            ctx = _mp.get_context(start_method or default_start_method())
            with ctx.Pool(processes=min(jobs, len(items))) as pool:
                results = pool.map(_worker_run, items, chunksize=1)
    finally:
        parent.install()

    counters, registry, tracer, recorder, _injector = obs_sinks()
    merged = merge_profiles(result.profile for result in results)
    counters.merge(merged)
    for result in results:
        if obs.metrics:
            registry.install_state(result.metrics, merge=True)
        if obs.trace:
            tracer.absorb(result.trace, label=result.label)
        if obs.timeseries is not None:
            recorder.install_state(result.timeseries, merge=True)
    return ShardResult(results=results, profile=merged, jobs=jobs)
