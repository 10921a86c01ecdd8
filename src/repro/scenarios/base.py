"""Common scenario interface and metrics.

Every scenario provisions its control plane, accepts the *same* pod
workload, and reports the dimensions §6.6 compares: provisioning and pod
startup latency, WLM accounting coverage, effective utilization,
workflow transparency, environment standardness, and isolation.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.node import HostNode
from repro.engines.podman import PodmanEngine
from repro.k8s.objects import Pod, PodPhase
from repro.kernel.config import KernelConfig
from repro.oci.builder import Builder
from repro.oci.catalog import BaseImageCatalog
from repro.registry.distribution import OCIDistributionRegistry
from repro.sim import Environment

#: image every scenario's pods run
WORKFLOW_IMAGE = "registry.site.local/pipelines/step:v1"

#: the recipe behind it
WORKFLOW_DOCKERFILE = (
    "FROM alpine:3.18\nRUN write /srv/step 2000000\nENTRYPOINT /srv/step"
)


@dataclasses.dataclass
class ScenarioMetrics:
    scenario: str
    section: str
    provision_time: float
    pods_submitted: int
    pods_completed: int
    pod_startup_latencies: list[float]
    wlm_accounting_coverage: float
    effective_utilization: float
    workflow_transparency: bool
    standard_pod_environment: bool
    isolation: str
    makespan: float
    notes: list[str] = dataclasses.field(default_factory=list)

    @property
    def mean_pod_startup(self) -> float:
        lat = self.pod_startup_latencies
        return sum(lat) / len(lat) if lat else float("nan")

    def satisfies_section6_requirements(self) -> bool:
        """§6's three requirements: continuously-run cluster (fast pod
        submission without per-user cluster bootstrap), WLM accounting,
        and transparent pod scheduling."""
        return (
            self.wlm_accounting_coverage >= 0.99
            and self.workflow_transparency
            and self.pods_completed == self.pods_submitted
        )


class IntegrationScenario:
    """Base: builds the shared site (nodes, registry, image)."""

    name = "scenario"
    section = "§6"
    workflow_transparency = False
    standard_pod_environment = False
    isolation = "shared-cluster"

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0):
        self.env = env
        self.n_nodes = n_nodes
        self.hosts = [
            HostNode(name=f"nid{i:04}", kernel_config=KernelConfig.modern_hpc(), env=env)
            for i in range(n_nodes)
        ]
        self.engines = {h.name: PodmanEngine(h) for h in self.hosts}
        self.registry = OCIDistributionRegistry(name="site-registry")
        image = Builder(BaseImageCatalog()).build_dockerfile(WORKFLOW_DOCKERFILE)
        self.registry.push_image("pipelines/step", "v1", image)
        self.provisioned_at: float | None = None
        self.pods: list[Pod] = []
        self.notes: list[str] = []

    # -- scenario API -----------------------------------------------------------
    def provision(self):
        """Start control planes; returns a sim Process that triggers when
        workload submission becomes possible."""
        raise NotImplementedError

    def submit(self, pods: _t.Sequence[Pod]) -> None:
        raise NotImplementedError

    # -- metric helpers ------------------------------------------------------------
    def _pod_cpu_seconds(self) -> float:
        total = 0.0
        for pod in self.pods:
            if pod.start_time is not None and pod.end_time is not None:
                total += (pod.end_time - pod.start_time) * pod.spec.total_requests().cpu
        return total

    def _accounted_cpu_seconds(self) -> float:
        """CPU seconds visible in WLM accounting attributable to the pod
        workload — scenario-specific."""
        return 0.0

    def _startup_latencies(self) -> list[float]:
        out = []
        for pod in self.pods:
            submitted = getattr(pod, "_submitted_at", None)
            if submitted is not None and pod.start_time is not None:
                out.append(pod.start_time - submitted)
        return out

    def metrics(self) -> ScenarioMetrics:
        completed = [p for p in self.pods if p.phase is PodPhase.SUCCEEDED]
        pod_cpu = self._pod_cpu_seconds()
        accounted = self._accounted_cpu_seconds()
        coverage = 0.0 if pod_cpu == 0 else min(1.0, accounted / pod_cpu)
        cores = self.hosts[0].cpu.cores
        elapsed = self.env.now
        capacity = self.n_nodes * cores * elapsed if elapsed > 0 else 1.0
        ends = [p.end_time for p in completed if p.end_time is not None]
        subs = [getattr(p, "_submitted_at", 0.0) for p in self.pods]
        makespan = (max(ends) - min(subs)) if ends and subs else float("nan")
        return ScenarioMetrics(
            scenario=self.name,
            section=self.section,
            provision_time=self.provisioned_at if self.provisioned_at is not None else float("nan"),
            pods_submitted=len(self.pods),
            pods_completed=len(completed),
            pod_startup_latencies=self._startup_latencies(),
            wlm_accounting_coverage=coverage,
            effective_utilization=pod_cpu / capacity,
            workflow_transparency=self.workflow_transparency,
            standard_pod_environment=self.standard_pod_environment,
            isolation=self.isolation,
            makespan=makespan,
            notes=list(self.notes),
        )
