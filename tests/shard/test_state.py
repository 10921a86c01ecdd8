"""World-state capture and install."""

import ast
import pathlib

import pytest

import repro

from repro.ids import Ids, ids
from repro.shard.state import WorldState


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
