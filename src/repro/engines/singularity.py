"""The Singularity family: Apptainer and SingularityCE.

Native flat SIF images with transparent OCI conversion and shareable
caches, GPG signing embedded in the SIF, encryption via the kernel
driver (suid path only), setuid *or* fully rootless operation, fakeroot
builds via subuid ranges, built-in GPU enablement (`--nv`), and
manual/root-only hook installation (Tables 1–3, §4.1.1).
"""

from __future__ import annotations

import dataclasses

from repro.cluster.node import HostNode
from repro.engines.base import (
    ContainerEngine,
    EngineCapabilities,
    EngineError,
    EngineInfo,
    PulledImage,
    RunResult,
)
from repro.engines.fakeroot import SubuidFakeroot
from repro.fs.drivers import MountedView
from repro.kernel.process import SimProcess
from repro.oci.builder import Builder
from repro.oci.bundle import BindMountSpec
from repro.oci.image import OCIImage
from repro.oci.sif import SIFImage
from repro.oci.squash import extract_cost
from repro.registry.distribution import OCIDistributionRegistry
from repro.signing.gpg import GPGKeyring
from repro.signing.keys import KeyPair


class _SingularityBase(ContainerEngine):
    """Shared behaviour of Apptainer and SingularityCE."""

    #: operate via the setuid starter (kernel squash driver) when the site
    #: allows it; rootless mode falls back to SquashFUSE
    suid_mode = True

    def __init__(self, node: HostNode, keyring: GPGKeyring | None = None,
                 subuid_ranges: dict[int, tuple[int, int]] | None = None):
        super().__init__(node)
        self.keyring = keyring
        self.builder = Builder()
        self.fakeroot = SubuidFakeroot(self.kernel, subuid_ranges or {})
        self._hooks_enabled_by_root = False

    # -- pull: transparent OCI -> SIF conversion, cached & shareable -----------------
    def pull(self, repository: str, tag: str, registry: OCIDistributionRegistry,
             token: str | None = None, now: float = 0.0, ip: str = "10.0.0.1",
             user_uid: int = 1000) -> PulledImage:
        self.stats["pulls"] += 1
        oci, cost = registry.pull_image(
            repository, tag, token=token, ip=ip, now=now, have_digests=set(self.layer_cache)
        )
        cached = self._cache_lookup(oci.digest, user_uid)
        if cached is not None:
            return PulledImage(source_ref=f"{repository}:{tag}", image=cached,
                               pull_cost=0.0, from_cache=True)
        for layer in oci.layers:
            self.layer_cache[layer.digest] = layer
        sif = SIFImage(oci.flatten(), dataclasses.replace(oci.config),
                       definition=f"bootstrap: docker\nfrom: {repository}:{tag}",
                       built_by_uid=user_uid)
        convert_cost = extract_cost(oci) + sif.squash.pack_cost()
        self._cache_store(oci.digest, sif, user_uid)
        self.stats["conversions"] += 1
        return PulledImage(source_ref=f"{repository}:{tag}", image=sif,
                           pull_cost=cost + convert_cost)

    # -- build ------------------------------------------------------------------------
    def build(self, definition: str, user: SimProcess | None = None,
              fakeroot: bool = False) -> SIFImage:
        uid = user.creds.uid if user is not None else 0
        if fakeroot:
            assert user is not None
            self.fakeroot.enter(user)  # raises without a subuid range
        return self.builder.build_definition(definition, build_uid=uid)

    # -- run ---------------------------------------------------------------------------
    def run(self, pulled, user, decryption_key: KeyPair | None = None, **kwargs):
        image = pulled.image if isinstance(pulled, PulledImage) else pulled
        if isinstance(image, SIFImage) and image.encrypted:
            if not (self.suid_mode and self.kernel.config.allow_setuid_binaries):
                raise EngineError(
                    "encrypted SIF needs the kernel driver (setuid starter); "
                    "unavailable in rootless mode (Table 2)"
                )
            if decryption_key is None:
                raise EngineError("image is encrypted; supply decryption_key")
            image.decrypt(decryption_key)
        return super().run(pulled, user, **kwargs)

    def _prepare_rootfs(self, pulled: PulledImage, user: SimProcess, result: RunResult) -> MountedView:
        image = pulled.image
        if isinstance(image, OCIImage):
            # `singularity run docker://...` without pull: convert on the fly.
            sif = SIFImage(image.flatten(), dataclasses.replace(image.config),
                           built_by_uid=user.creds.uid)
            result.timings["convert"] = extract_cost(image) + sif.squash.pack_cost()
            image = sif
        assert isinstance(image, SIFImage)
        if self.verify_policy_keyring is not None:
            self._enforce_signature_policy(image, result)
        # The celebrated compromise: the setuid starter will happily mount
        # a user-built SIF via the kernel driver ("if one is willing to
        # compromise on security", §7) — strict_provenance=False + warning.
        return self._squash_rootfs(
            image.squash, user, result,
            prefer_kernel_driver=self.suid_mode,
            strict_provenance=False,
        )

    # -- signing ------------------------------------------------------------------------
    verify_policy_keyring: GPGKeyring | None = None

    def sign(self, image: SIFImage, key: KeyPair):
        return image.sign(key)

    def verify(self, image: SIFImage, key: KeyPair) -> bool:
        return image.verify(key)

    def _enforce_signature_policy(self, image: SIFImage, result: RunResult) -> None:
        if not image.signatures:
            if image.definition.startswith("bootstrap: docker"):
                # imported OCI content: signatures are NOT verified (§4.1.5)
                result.warn(
                    "image imported from OCI: no SIF signature to verify (§4.1.5)"
                )
                return
            raise EngineError("signature policy: unsigned SIF rejected")

    # -- GPU: built-in --nv flag (no hooks involved) ------------------------------------------
    _gpu_requested = False

    def enable_gpu(self) -> None:
        if not self.node.has_gpus:
            raise EngineError(f"node {self.node.name} has no GPUs")
        self._gpu_requested = True

    def _make_spec(self, pulled, command, user):
        spec = super()._make_spec(pulled, command, user)
        if self._gpu_requested:
            spec.bind_mounts.append(
                BindMountSpec(
                    source_tree=self.node.local_disk.tree,
                    source_path="/usr/lib64",
                    target_path="/.singularity.d/libs",
                )
            )
            spec.devices = tuple(dict.fromkeys(
                (*spec.devices, *(gpu.device_node for gpu in self.node.gpus))
            ))
        return spec

    # -- hooks: "manually, requires root" (Table 1) ------------------------------------------
    def enable_hooks(self, by: SimProcess) -> None:
        if not by.creds.is_root:
            raise EngineError("installing hooks requires root (Table 1: 'manually, requires root')")
        self._hooks_enabled_by_root = True

    def _pre_run_checks(self, pulled, user, result):
        if len(self.site_hooks) and not self._hooks_enabled_by_root:
            raise EngineError("hooks present but not enabled by root")


class ApptainerEngine(_SingularityBase):
    info = EngineInfo(
        name="apptainer",
        version="v1.2.2",
        champion="LLNL, CIQ",
        affiliation="Linux Foundation",
        default_runtime="runc",
        implementation_language="Go",
        contributors=148,
        docs_user="++",
        docs_admin="+",
        docs_source="+",
        module_integration="shpc",
    )
    capabilities = EngineCapabilities(
        rootless=("UserNS", "fakeroot"),
        rootless_fs=("suid", "fakeroot", "SquashFUSE"),
        monitor="per-container (conmon)",
        oci_hooks="manual",
        oci_container="partial",
        transparent_conversion=True,
        native_caching=True,
        native_sharing=True,
        namespacing="user+mount",
        signature_verification=("gpg",),
        encryption=True,
        gpu="yes",
        accelerators="no",
        library_hookup="manual",
        wlm_integration="no",
        build_tool=True,
        daemonless=True,
        requires_setuid=False,  # suid optional since the non-setuid rework [28]
    )


class SingularityCEEngine(_SingularityBase):
    info = EngineInfo(
        name="singularity-ce",
        version="v3.11.4",
        champion="Sylabs",
        affiliation="-",
        default_runtime="crun",
        implementation_language="Go",
        contributors=130,
        docs_user="++",
        docs_admin="N/A",
        docs_source="+",
        module_integration="shpc",
    )
    capabilities = EngineCapabilities(
        rootless=("UserNS", "fakeroot"),
        rootless_fs=("suid", "fakeroot", "SquashFUSE"),
        monitor="per-container (conmon)",
        oci_hooks="manual",
        oci_container="partial",
        transparent_conversion=True,
        native_caching=True,
        native_sharing=True,
        namespacing="user+mount",
        signature_verification=("gpg",),
        encryption=True,
        gpu="yes",
        accelerators="no",
        library_hookup="manual",
        wlm_integration="no",
        build_tool=True,
        daemonless=True,
        requires_setuid=False,
    )
