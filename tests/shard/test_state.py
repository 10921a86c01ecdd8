"""World-state capture/install, prefix replay, and warm snapshots."""

import ast
import dataclasses
import pathlib

import pytest

import repro

from repro.ids import Ids, ids
from repro.shard.state import WarmSnapshot, WorldState, replay_prefix


@pytest.fixture
def _world_guard():
    """Restore the process world state after a test that rewinds it."""
    saved = WorldState.capture()
    yield
    saved.install()


def test_every_module_level_id_counter_is_registered():
    """A module-global ``itertools.count`` outside :mod:`repro.ids` is an
    allocator WorldState does not save and restore, which breaks
    ``--jobs N`` byte-identity; draw from a field of ``repro.ids.ids``."""
    root = pathlib.Path(repro.__file__).parent
    scanned, found = 0, set()
    for path in root.rglob("*.py"):
        module = ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
        if module == "repro.ids":
            continue
        scanned += 1
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value.func) in ("itertools.count", "count")):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update((module, ast.unparse(t)) for t in targets)
    assert scanned > 100, "the scan found no modules"
    assert not found, f"module-level counters outside repro.ids: {sorted(found)}"


def test_capture_is_non_destructive():
    before = ids.positions()
    WorldState.capture()
    assert ids.positions() == before


def test_capture_install_roundtrip(_world_guard):
    from repro.fs.tree import FileTree

    checkpoint = WorldState.capture()
    tree = FileTree()
    tree.create_file("/advance/counters", size=10)
    advanced = ids.positions()
    assert advanced != checkpoint.counters
    checkpoint.install()
    assert ids.positions() == checkpoint.counters


def test_pristine_counters_all_one():
    pristine = WorldState.pristine()
    assert set(pristine.counters.values()) == {1}
    assert pristine.counters == Ids().positions()


def test_replay_prefix_returns_value_and_advances_counters(_world_guard):
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog

    dockerfile = "FROM alpine:3.18\nRUN write /x 1000\nENTRYPOINT /x"
    checkpoint = WorldState.capture()
    image_cold = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    after_cold = ids.positions()

    # Rewind the counters only — the replay cache keeps the cold entry.
    rewound = dataclasses.replace(
        WorldState.capture(), counters=dict(checkpoint.counters)
    )
    rewound.install()
    image_warm = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    # Identical value, and the counters jumped to the cold run's positions
    # — the world cannot tell a replay from a re-run.
    assert image_warm is image_cold
    assert ids.positions() == after_cold


def test_replay_prefix_counts_warm_replays(_world_guard):
    from repro.sim import profile

    checkpoint = WorldState.capture()
    replay_prefix("test", "k", lambda: object())
    rewound = dataclasses.replace(
        WorldState.capture(), counters=dict(checkpoint.counters)
    )
    rewound.install()
    profile.enable()
    try:
        replay_prefix("test", "k", lambda: object())
        assert profile.counters.warm_replays == 1
    finally:
        profile.disable()


def test_replay_prefix_is_inert_when_counters_differ(_world_guard):
    calls = []
    replay_prefix("test", "k2", lambda: calls.append(1))
    # The world advanced (or at least is not back at the recorded
    # fingerprint), so the same key produces again instead of replaying.
    from repro.fs.tree import FileTree

    FileTree().create_file("/advance", size=1)
    replay_prefix("test", "k2", lambda: calls.append(1))
    assert len(calls) == 2


def test_warm_snapshot_build_is_invisible():
    before = WorldState.capture()
    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    after = WorldState.capture()
    assert after.counters == before.counters
    assert snapshot.warm


def test_warm_snapshot_pickle_roundtrip():
    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    clone = WarmSnapshot.from_bytes(snapshot.to_bytes())
    assert clone.state.counters == snapshot.state.counters
    assert set(clone.state.flatten_cache) == set(snapshot.state.flatten_cache)
    assert set(clone.state.replay_cache) == set(snapshot.state.replay_cache)
    assert clone.warm


def test_warm_snapshot_fork_replays_prefix(_world_guard):
    """A forked cell rebuilds the scenario prefix entirely from cache."""
    from repro.sim import Environment, profile
    from repro.scenarios.base import IntegrationScenario

    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    profile.enable()
    try:
        snapshot.fork()
        IntegrationScenario(Environment(), n_nodes=2)
        assert profile.counters.snapshot_forks == 1
        assert profile.counters.warm_replays >= 1
    finally:
        profile.disable()
