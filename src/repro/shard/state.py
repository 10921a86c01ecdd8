"""Process-wide run state: the world and the obs sinks.

Determinism in this repository is anchored on the process-wide id
allocators in :mod:`repro.ids` (inode numbers, image/container/mount/
namespace ids, k8s uids, registry token serials, signing key serials)
plus the content-addressed materialization caches in
:mod:`repro.oci.squash` and :mod:`repro.fs.images`.  Every simulated
artifact digest and entity name is a pure function of the draws it makes
from these allocators, so two runs that start from the *same positions*
produce byte-identical results — and two runs that start from different
positions produce different digests even for identical content (bulk
file digests hash their inode number by design).

:class:`WorldState` makes that state an explicit, picklable value:

- :meth:`WorldState.capture` reads the allocator positions without
  consuming them and shallow-copies the caches;
- :meth:`WorldState.install` restarts every allocator and replaces the
  cache contents, making the current process's world state equal to the
  captured one;
- :meth:`WorldState.pristine` is the state of a freshly imported
  process: every allocator at 1, every cache empty.

:class:`RunState` adds the process-wide sinks (sim-core counters,
metrics registry, tracer, time-series recorder, fault injector) to the
world: one value the shard runner takes out of the parent before the
first cell and puts back after the last.

The shard runner installs the pristine world before **every** cell — in
the parent for serial runs and in pool workers for parallel runs — which
is what makes cell results independent of execution order and worker
placement, and therefore byte-identical between ``--jobs 1`` and
``--jobs N``.
"""

from __future__ import annotations

import dataclasses

from repro.ids import ids
from repro.sim import profile as _profile


@dataclasses.dataclass
class WorldState:
    """A picklable checkpoint of the process-wide simulation state."""

    #: :class:`~repro.ids.Ids` field -> next value its allocator yields
    counters: dict[str, int]
    #: manifest digest -> master flattened tree
    flatten_cache: dict[str, object]
    #: (manifest digest, uid, ratio) -> (SquashImage, cost)
    convert_cache: dict[tuple, tuple]
    #: (tree digest, ratio, uid, writable_by) -> SquashImage
    pack_cache: dict[tuple, object]

    @classmethod
    def capture(cls) -> "WorldState":
        """Snapshot the current process state (non-destructive)."""
        from repro.fs import images as _images
        from repro.oci import squash as _squash

        return cls(
            counters=ids.positions(),
            flatten_cache=dict(_squash._FLATTEN_CACHE),
            convert_cache=dict(_squash._CONVERT_CACHE),
            pack_cache=dict(_images._PACK_CACHE),
        )

    @classmethod
    def pristine(cls) -> "WorldState":
        """The state of a freshly imported process: allocators at 1,
        caches empty."""
        return cls(dict.fromkeys(ids.__slots__, 1), {}, {}, {})

    def install(self) -> None:
        """Make the current process's world state equal this checkpoint.

        The live cache dicts are cleared and refilled (not rebound), so
        modules that imported them keep working; the checkpoint's own
        dicts are never handed out, so cells cannot mutate it.
        """
        ids.install(self.counters)
        from repro.fs import images as _images
        from repro.oci import squash as _squash

        for live, saved in ((_squash._FLATTEN_CACHE, self.flatten_cache),
                            (_squash._CONVERT_CACHE, self.convert_cache),
                            (_images._PACK_CACHE, self.pack_cache)):
            live.clear()
            live.update(saved)


def obs_sinks() -> tuple:
    """The process-wide sinks, in a fixed order: sim-core counters,
    metrics registry, tracer, time-series recorder, fault injector."""
    from repro.faults.injector import injector
    from repro.obs.metrics import registry
    from repro.obs.timeseries import recorder
    from repro.obs.trace import tracer

    return _profile.counters, registry, tracer, recorder, injector


@dataclasses.dataclass
class RunState:
    """The process-wide state a shard run must not disturb: the world
    and the complete state of every sink (``enabled`` flags, the armed
    fault plan and all).

    Each sink keeps its object identity — ``Environment`` caches the
    counter block and many modules alias the registry, tracer and
    injector — so only the sinks' fields move in and out.
    """

    world: WorldState
    sinks: tuple[dict, ...]

    @classmethod
    def take(cls) -> "RunState":
        """Take the current run state out of the process: the world is
        copied, and every sink is left blank and off."""
        return cls(WorldState.capture(), tuple(s.swap() for s in obs_sinks()))

    def install(self) -> None:
        """Put this run state back, replacing whatever is there."""
        self.world.install()
        for sink, state in zip(obs_sinks(), self.sinks):
            sink.swap(state)

