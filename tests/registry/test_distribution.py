"""Tests for the OCI distribution registry: push/pull, dedup, tenancy,
quotas, auth, artifacts, squashing."""

import itertools

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan, injector
from repro.fs import FileTree
from repro.oci import Builder, ImageConfig, Layer, OCIImage
from repro.oci.catalog import BaseImageCatalog
from repro.registry import (
    AuthError,
    AuthService,
    InternalAuth,
    OCIDistributionRegistry,
    QuotaExceeded,
    QuotaManager,
    RegistryError,
)
from repro.registry.registries import COSIGN_MEDIA_TYPE
from repro.registry.storage import StorageError
from repro.sim import Environment


def small_image(content: bytes = b"app") -> OCIImage:
    t = FileTree()
    t.create_file("/bin/app", data=content)
    return OCIImage(ImageConfig(), [Layer(t, created_by="base")])


def three_layer_image(tag: bytes = b"app") -> OCIImage:
    """A base/runtime/app stack with distinct layer sizes."""
    layers = []
    for i, size in enumerate((300_000, 2_000_000, 45_000)):
        t = FileTree()
        t.create_file(f"/layer{i}/blob", size=size)
        t.create_file(f"/layer{i}/id", data=tag)
        layers.append(Layer(t, created_by=f"layer {i}"))
    return OCIImage(ImageConfig(cmd=("/layer2/blob",)), layers)


def reference_pull_cost(registry, image, have, factor=1.0):
    """What a pull costs, re-derived from one store read per layer."""
    cost = registry.transport.request_cost(2048)  # manifest GET
    for digest in image.manifest.layer_digests:
        blob, store_cost = registry.store.get(digest)
        if digest not in have:
            cost += store_cost + registry.transport.request_cost(blob.size)
    return cost * factor


@pytest.fixture
def registry():
    return OCIDistributionRegistry(name="test")


@pytest.fixture
def slow_blob_window():
    """A registry_slow_blob window over t in [100, 150); yields its factor."""
    plan = FaultPlan([FaultEvent(
        kind=FaultKind.REGISTRY_SLOW_BLOB, at=100.0, duration=50.0, factor=3.5,
    )])
    injector.arm(plan, Environment())
    try:
        yield 3.5
    finally:
        injector.disarm()


def test_push_pull_roundtrip(registry):
    img = small_image()
    push_cost = registry.push_image("hpc/app", "v1", img)
    assert push_cost > 0
    pulled, pull_cost = registry.pull_image("hpc/app", "v1")
    assert pulled.digest == img.digest
    assert pull_cost > 0
    assert registry.list_tags("hpc/app") == ["v1"]


def test_pull_unknown_image(registry):
    with pytest.raises(RegistryError, match="no such image"):
        registry.pull_image("ghost/app", "v1")


def test_layer_dedup_across_tags(registry):
    """Two tags sharing layers upload each blob once (CAS, §3.1)."""
    builder = Builder(BaseImageCatalog())
    img1 = builder.build_dockerfile("FROM alpine\nRUN touch /a")
    img2 = builder.build_dockerfile("FROM alpine\nRUN touch /b")
    registry.push_image("hpc/app", "v1", img1)
    skipped_before = registry.stats["blob_uploads_skipped"]
    registry.push_image("hpc/app", "v2", img2)
    # the shared alpine base layer was skipped on the second push
    assert registry.stats["blob_uploads_skipped"] > skipped_before
    assert registry.store.stats["dedup_hits"] == 0  # skipped before reaching store


def test_pull_with_local_cache_costs_less(registry):
    builder = Builder(BaseImageCatalog())
    img = builder.build_dockerfile("FROM ubuntu\nRUN write /big 100000000")
    registry.push_image("hpc/app", "v1", img)
    _, cold = registry.pull_image("hpc/app", "v1")
    base_digest = img.layers[0].digest
    _, warm = registry.pull_image("hpc/app", "v1", have_digests={base_digest})
    assert warm < cold


def test_multi_tenancy_enforced():
    reg = OCIDistributionRegistry(name="t", multi_tenant=True)
    with pytest.raises(RegistryError, match="unknown project"):
        reg.push_image("neworg/app", "v1", small_image())
    reg.create_tenant("neworg")
    reg.push_image("neworg/app", "v1", small_image())


def test_tenancy_unsupported():
    reg = OCIDistributionRegistry(name="t", multi_tenant=False)
    with pytest.raises(RegistryError, match="no multi-tenancy"):
        reg.create_tenant("org")


def test_quota_enforcement():
    quotas = QuotaManager()
    reg = OCIDistributionRegistry(name="t", multi_tenant=True, quotas=quotas)
    reg.create_tenant("small")
    quotas.set_limit("small", 1000)
    t = FileTree()
    t.create_file("/huge", size=1_000_000)
    big = OCIImage(ImageConfig(), [Layer(t)])
    with pytest.raises(QuotaExceeded):
        reg.push_image("small/app", "v1", big)
    # tiny image fits
    reg.push_image("small/app", "tiny", small_image())


def test_quota_not_charged_for_dedup():
    quotas = QuotaManager()
    reg = OCIDistributionRegistry(name="t", multi_tenant=True, quotas=quotas)
    reg.create_tenant("org")
    quotas.set_limit("org", 10_000)
    img = small_image(b"payload")
    reg.push_image("org/app", "v1", img)
    used_after_first = quotas.used("org")
    reg.push_image("org/app", "v1-again", img)
    assert quotas.used("org") == used_after_first


def test_auth_required_when_configured():
    auth = AuthService([InternalAuth()])
    auth.providers[0].add_user("alice", "pw")
    reg = OCIDistributionRegistry(name="t", auth=auth)
    with pytest.raises(RegistryError, match="requires authentication"):
        reg.push_image("r/app", "v1", small_image())
    token = auth.login("alice", "pw", scopes=("push", "pull"))
    reg.push_image("r/app", "v1", small_image(), token=token.value)
    pulled, _ = reg.pull_image("r/app", "v1", token=token.value)
    assert pulled is not None


def test_auth_scope_enforced():
    auth = AuthService([InternalAuth()])
    auth.providers[0].add_user("bob", "pw")
    reg = OCIDistributionRegistry(name="t", auth=auth)
    pull_only = auth.login("bob", "pw", scopes=("pull",))
    with pytest.raises(AuthError, match="lacks scope"):
        reg.push_image("r/app", "v1", small_image(), token=pull_only.value)


def test_artifact_policy():
    reg = OCIDistributionRegistry(name="strict")
    with pytest.raises(RegistryError, match="does not accept"):
        reg.push_artifact("r", "sig", COSIGN_MEDIA_TYPE, size=100)
    lax = OCIDistributionRegistry(name="lax", extra_media_types=frozenset({COSIGN_MEDIA_TYPE}))
    lax.push_artifact("r", "sig", COSIGN_MEDIA_TYPE, size=100, payload={"sig": "x"})
    assert lax.get_artifact("r", "sig").payload == {"sig": "x"}
    userdef = OCIDistributionRegistry(name="userdef", user_defined_artifacts=True)
    userdef.push_artifact("r", "custom", "application/x-custom", size=10)


def test_squashing_gated_and_correct():
    reg = OCIDistributionRegistry(name="basic")
    builder = Builder(BaseImageCatalog())
    img = builder.build_dockerfile("FROM alpine\nRUN touch /a\nRUN touch /b")
    reg.push_image("r/app", "v1", img)
    with pytest.raises(RegistryError, match="squash"):
        reg.squashed_image("r/app", "v1")
    squasher = OCIDistributionRegistry(name="quaylike", supports_squashing=True)
    squasher.push_image("r/app", "v1", img)
    flat = squasher.squashed_image("r/app", "v1")
    assert len(flat.layers) == 1
    assert flat.flatten().exists("/a") and flat.flatten().exists("/b")


def test_rejected_push_stores_nothing_and_stays_rejected():
    """A push the quota rejects leaves no blob behind, so retrying it
    cannot slip through for free."""
    quotas = QuotaManager()
    reg = OCIDistributionRegistry(name="t", multi_tenant=True, quotas=quotas)
    reg.create_tenant("small")
    quotas.set_limit("small", 1000)
    reg.push_image("small/app", "tiny", small_image())

    def snapshot():
        tags = {repo: reg.list_tags(repo) for repo in reg.list_repositories()}
        return (len(reg.store), reg.store.used_bytes, dict(reg.store.stats),
                dict(reg.stats), tags, quotas.used("small"))

    before = snapshot()
    for _attempt in range(2):
        with pytest.raises(QuotaExceeded):
            reg.push_image("small/app", "v1", three_layer_image())
        assert snapshot() == before


def test_pull_plan_cost_matches_per_layer_reads(registry, slow_blob_window):
    """Every have-set, inside and outside a slow-blob window: the cost is
    bit-identical to one store read per layer, and each pull still counts
    one store read per layer."""
    image = three_layer_image()
    registry.push_image("hpc/app", "v1", image)
    digests = image.manifest.layer_digests
    for now, factor in ((0.0, 1.0), (120.0, slow_blob_window)):
        for r in range(len(digests) + 1):
            for have in map(set, itertools.combinations(digests, r)):
                expected = reference_pull_cost(registry, image, have, factor)
                gets = registry.store.stats["gets"]
                pulls = registry.stats["pulls"]
                pulled, cost = registry.pull_image(
                    "hpc/app", "v1", now=now, have_digests=have
                )
                assert cost == expected
                assert pulled.digest == image.digest
                assert registry.store.stats["gets"] == gets + len(digests)
                assert registry.stats["pulls"] == pulls + 1


def test_pull_after_layer_delete_raises(registry):
    image = three_layer_image()
    registry.push_image("hpc/app", "v1", image)
    registry.pull_image("hpc/app", "v1")  # resolves the manifest once
    registry.store.delete(image.manifest.layer_digests[1])
    gets = registry.store.stats["gets"]
    with pytest.raises(StorageError, match="blob not found"):
        registry.pull_image("hpc/app", "v1")
    # the first layer was read, the deleted second one was looked up
    assert registry.store.stats["gets"] == gets + 2


def test_garbage_collect_leaves_no_plan_serving_a_purged_blob(registry):
    old, new = three_layer_image(b"old"), three_layer_image(b"new")
    registry.push_image("hpc/app", "v1", old)
    registry.pull_image("hpc/app", "v1")
    registry.push_image("hpc/app", "v1", new)  # retag: `old` is unreferenced
    registry.pull_image("hpc/app", "v1")
    assert registry.garbage_collect() == 3  # old's layers; the config is shared
    store = registry.store
    for generation, _image, _cost, layers in registry._pull_plans.values():
        if generation == store.generation:
            assert all(store.has(digest) for digest, _size, _cost in layers)
    with pytest.raises(RegistryError, match="no such image"):
        registry.pull_image("hpc/app", "v0")
    # re-pushing the purged image serves fresh reads of the new blobs
    registry.push_image("hpc/app", "v0", old)
    expected = reference_pull_cost(registry, old, set())
    pulled, cost = registry.pull_image("hpc/app", "v0")
    assert pulled.digest == old.digest and cost == expected
