"""World-state capture/install, prefix replay, and warm snapshots."""

import ast
import dataclasses
import pathlib

import pytest

import repro

from repro.shard.state import (
    COUNTER_SITES,
    WarmSnapshot,
    WorldState,
    _counter_positions,
    replay_prefix,
)


@pytest.fixture
def _world_guard():
    """Restore the process world state after a test that rewinds it."""
    saved = WorldState.capture()
    yield
    saved.install()


def test_every_module_level_id_counter_is_registered():
    """A module-global ``itertools.count`` that WorldState does not save
    and restore breaks ``--jobs N`` byte-identity; register it in
    ``COUNTER_SITES``."""
    root = pathlib.Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        module = ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value.func) == "itertools.count"):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update((module, t.id) for t in targets if isinstance(t, ast.Name))
    assert found, "the scan found no counter at all"
    assert not found - set(COUNTER_SITES), f"unregistered: {found - set(COUNTER_SITES)}"


def test_capture_is_non_destructive():
    before = _counter_positions()
    WorldState.capture()
    assert _counter_positions() == before


def test_capture_install_roundtrip(_world_guard):
    from repro.fs.tree import FileTree

    checkpoint = WorldState.capture()
    tree = FileTree()
    tree.create_file("/advance/counters", size=10)
    advanced = _counter_positions()
    assert advanced != checkpoint.counters
    checkpoint.install()
    assert _counter_positions() == checkpoint.counters


def test_pristine_counters_all_one():
    pristine = WorldState.pristine()
    assert set(pristine.counters.values()) == {1}
    assert len(pristine.counters) == len(COUNTER_SITES)


def test_replay_prefix_returns_value_and_advances_counters(_world_guard):
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog

    dockerfile = "FROM alpine:3.18\nRUN write /x 1000\nENTRYPOINT /x"
    checkpoint = WorldState.capture()
    image_cold = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    after_cold = _counter_positions()

    # Rewind the counters only — the replay cache keeps the cold entry.
    rewound = dataclasses.replace(
        WorldState.capture(), counters=dict(checkpoint.counters)
    )
    rewound.install()
    image_warm = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    # Identical value, and the counters jumped to the cold run's positions
    # — the world cannot tell a replay from a re-run.
    assert image_warm is image_cold
    assert _counter_positions() == after_cold


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
    assert clone.base_counters == snapshot.base_counters
    assert set(clone.flatten_cache) == set(snapshot.flatten_cache)
    assert set(clone.replay_cache) == set(snapshot.replay_cache)
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
