"""Process-wide run state: the world, the obs sinks, warm snapshots.

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

:class:`RunState` adds the four obs sinks (sim-core counters, metrics
registry, tracer, time-series recorder) to the world: one value the
shard runner takes out of the parent before the first cell and puts back
after the last.

The shard runner installs a known world before **every** cell — in the
parent for serial runs and in pool workers for parallel runs — which is
what makes cell results independent of execution order and worker
placement, and therefore byte-identical between ``--jobs 1`` and
``--jobs N``.

:class:`WarmSnapshot` layers the snapshot/fork mechanism on top: build
once by replaying the shared scenario *prefix* (site image built,
flatten/convert/pack caches hot) from a pristine base, then ``fork()``
before each cell.  A fork rewinds the allocators to the pristine base —
so the cell re-draws the exact id sequence the warmup drew, its image
digests match the cached keys, and the prefix materialization work
resolves to cache hits — while the virtual-time results stay identical
to a cold run (the caches never change simulated costs, only wall
clock).
"""

from __future__ import annotations

import dataclasses
import pickle
import typing as _t

from repro.ids import ids
from repro.sim import profile as _profile

#: (kind, key, allocator fingerprint) -> (value, positions after).
#: The prefix-replay cache behind :func:`replay_prefix`: because the key
#: embeds the *exact* allocator positions the producer started from, a
#: hit can only occur when the world is in the identical state it was in
#: when the entry was recorded — which in practice means right after a
#: :meth:`WarmSnapshot.fork` rewind.  Outside shard replays every build
#: advances the allocators, so the fingerprint never repeats and the
#: cache is inert.
_REPLAY_CACHE: dict[tuple, tuple[object, dict[str, int]]] = {}


def replay_prefix(kind: str, key: str, produce: _t.Callable[[], _t.Any]) -> _t.Any:
    """Run ``produce()`` once per (inputs, world state); replay after.

    On a hit the recorded value is returned and the id allocators jump
    to the positions the original run left behind, so the process state
    after a replay is indistinguishable from having re-run the producer
    — every later draw yields the same ids, digests and names.  Each
    replay counts as a ``warm_replays`` profile event.
    """
    cache_key = (kind, key, tuple(ids.positions().values()))
    hit = _REPLAY_CACHE.get(cache_key)
    if hit is not None:
        value, after = hit
        ids.install(after)
        counters = _profile.counters
        if counters.enabled:
            counters.warm_replays += 1
        return value
    value = produce()
    _REPLAY_CACHE[cache_key] = (value, ids.positions())
    return value


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
    #: the :func:`replay_prefix` entries (fingerprint-keyed builds)
    replay_cache: dict[tuple, tuple] = dataclasses.field(default_factory=dict)

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
            replay_cache=dict(_REPLAY_CACHE),
        )

    @classmethod
    def pristine(cls) -> "WorldState":
        """The state of a freshly imported process: allocators at 1,
        caches empty."""
        return cls(dict.fromkeys(ids.__slots__, 1), {}, {}, {})

    @property
    def warm(self) -> bool:
        """Whether any materialization cache holds an entry."""
        return bool(self.flatten_cache or self.convert_cache
                    or self.pack_cache or self.replay_cache)

    def install(self) -> None:
        """Make the current process's world state equal this snapshot.

        The live cache dicts are cleared and refilled (not rebound), so
        modules that imported them keep working; the snapshot's own
        dicts are never handed out, so cells cannot mutate the
        checkpoint they forked from.
        """
        ids.install(self.counters)
        from repro.fs import images as _images
        from repro.oci import squash as _squash

        for live, saved in ((_squash._FLATTEN_CACHE, self.flatten_cache),
                            (_squash._CONVERT_CACHE, self.convert_cache),
                            (_images._PACK_CACHE, self.pack_cache),
                            (_REPLAY_CACHE, self.replay_cache)):
            live.clear()
            live.update(saved)


def obs_sinks() -> tuple:
    """The process-wide obs sinks, in a fixed order: sim-core counters,
    metrics registry, tracer, time-series recorder."""
    from repro.obs.metrics import registry
    from repro.obs.timeseries import recorder
    from repro.obs.trace import tracer

    return _profile.counters, registry, tracer, recorder


@dataclasses.dataclass
class RunState:
    """The process-wide state a shard run must not disturb: the world
    and the complete state of every obs sink (``enabled`` flags and all).

    Each sink keeps its object identity — ``Environment`` caches the
    counter block and many modules alias the registry and tracer — so
    only the sinks' fields move in and out.
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


def warm_scenario_prefix(n_nodes: int = 4) -> None:
    """Replay the shared §6/chaos scenario prefix to heat the caches.

    Every :class:`~repro.scenarios.base.IntegrationScenario` starts its
    ``__init__`` with the exact same sequence of counter draws for a
    given ``n_nodes`` — hosts, engines, site registry, then the workflow
    image build — so constructing the *base* scenario here consumes the
    identical id sequence any concrete scenario cell will re-draw after
    a counter rewind, and the flatten cache entry seeded below is keyed
    by the very manifest digest those cells will compute.
    """
    from repro.oci.squash import flatten_image
    from repro.scenarios.base import IntegrationScenario
    from repro.sim import Environment

    env = Environment()
    scenario = IntegrationScenario(env, n_nodes=n_nodes)
    flatten_image(scenario.image)


@dataclasses.dataclass
class WarmSnapshot:
    """A checkpoint of a warmed-up simulation prefix.

    ``state`` holds the allocator positions the warmup started from
    (cells rewind to them so their draws replay the warmup's) and the
    materialization caches the warmup produced.  The whole object is a
    plain pickle — workers receive it as bytes through the pool
    initializer.
    """

    state: WorldState

    @classmethod
    def build(
        cls,
        warmup: _t.Callable[[], None] | None = None,
        base: WorldState | None = None,
    ) -> "WarmSnapshot":
        """Run ``warmup`` from ``base`` (default: pristine) and
        checkpoint what it materialized.  The caller's own world state
        is saved and restored around the build, so taking a snapshot is
        invisible to the surrounding process.
        """
        saved = WorldState.capture()
        base = base or WorldState.pristine()
        try:
            base.install()
            if warmup is not None:
                warmup()
            return cls(dataclasses.replace(WorldState.capture(),
                                           counters=dict(base.counters)))
        finally:
            saved.install()

    @classmethod
    def for_scenario_prefix(cls, n_nodes: int = 4) -> "WarmSnapshot":
        """The standard snapshot: shared site prefix at ``n_nodes``."""
        return cls.build(lambda: warm_scenario_prefix(n_nodes))

    @property
    def warm(self) -> bool:
        """Whether the snapshot actually carries cached materializations
        (a cold snapshot is just an allocator rewind)."""
        return self.state.warm

    def fork(self) -> None:
        """Install this snapshot as the current process's world state.

        The allocators rewind to the snapshot's base, so the cell that
        runs next re-draws the warmup's id sequence and its prefix
        builds and image digests hit the warmed caches (each such hit
        counts as a ``warm_replays`` profile event).
        """
        self.state.install()
        counters = _profile.counters
        if counters.enabled:
            counters.snapshot_forks += 1

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WarmSnapshot":
        snapshot = pickle.loads(blob)
        if not isinstance(snapshot, cls):
            raise TypeError(f"expected a pickled WarmSnapshot, got {type(snapshot)!r}")
        return snapshot
