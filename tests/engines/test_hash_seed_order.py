"""Container start is independent of the string hash seed.

Namespace kinds and device names hash as strings, so anything iterated
out of a set of them follows ``PYTHONHASHSEED``.  Two interpreters with
different seeds must create the same namespaces in the same order (the
same kind -> ``ns_id`` map) and log the same container events.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json
from repro.cluster import HostNode
from repro.engines import PodmanEngine
from repro.fs import FileTree, PROFILES
from repro.fs.drivers import mount_overlay
from repro.kernel import Kernel, KernelConfig
from repro.oci import Builder, Bundle, CrunRuntime, NamespaceRequest, RuntimeSpec

kernel = Kernel(KernelConfig.modern_hpc())
tree = FileTree()
tree.create_file("/bin/app", size=1000, mode=0o755)
bundle = Bundle(
    rootfs=mount_overlay([tree], PROFILES["nvme"], writable=True),
    spec=RuntimeSpec(args=("/bin/app",), namespaces=NamespaceRequest.full()),
    origin="probe",
)
ctr = CrunRuntime(kernel).create(bundle, owner=kernel.spawn(uid=0))
ns_ids = {kind.value: ns.ns_id for kind, ns in ctr.proc.namespaces.items()}

node = HostNode(name="n1", kernel_config=KernelConfig.modern_hpc())
image = Builder().build_dockerfile("FROM alpine:3.18\\nRUN write /srv/app 1000")
root = node.kernel.spawn(uid=0)
result = PodmanEngine(node).run(image, root, devices=("zero", "null", "urandom"))
print(json.dumps({"ns_ids": ns_ids, "events": result.container.events}))
"""


def probe(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_namespace_ids_and_container_events_ignore_hash_seed():
    first = probe("0")
    assert {"user", "mnt", "pid", "net", "ipc", "uts"} <= first["ns_ids"].keys()
    assert [e for e in first["events"] if e.startswith("device ")] == [
        "device zero", "device null", "device urandom"]
    for seed in ("1", "2", "3"):
        assert probe(seed) == first
