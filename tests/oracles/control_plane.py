"""Control-plane oracles: linear k8s scheduling, store-scan kubelet sync
and linear backfill — the §6.5 stack before its indexes."""

from repro.k8s import k3s
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import PodPhase
from repro.k8s.scheduler import K8sScheduler
from repro.scenarios import kubelet_in_allocation
from repro.wlm import slurm
from repro.wlm.nodes import NodeState
from repro.wlm.scheduler import BackfillScheduler
from tests.oracles import rebound


class LinearK8sScheduler(K8sScheduler):
    """Each pass scans every pod in the store and every node per pick."""

    def _bind_pending(self) -> int:
        nodes = self.api.nodes()
        bound = 0
        for pod in self.api.pods():
            if pod.bound or pod.phase is not PodPhase.PENDING:
                continue
            req = pod.spec.total_requests()
            selector = pod.spec.node_selector
            fits = [
                (node.allocated.cpu / max(node.capacity.cpu, 1e-9), node.metadata.name, node)
                for node in nodes
                if node.condition.ready
                and all(node.metadata.labels.get(k) == v for k, v in selector.items())
                and node.fits(req)
            ]
            if not fits:
                self._count_unschedulable()
                continue
            self._bind(pod, min(fits, key=lambda fit: fit[:2])[2])
            bound += 1
        return bound


class StoreScanKubelet(Kubelet):
    """Finds its pods by scanning the whole pod store on every sync."""

    def _startable(self, pods):
        """Pending pods bound here and not yet started, checked lazily."""
        for pod in pods:
            if (pod.node_name == self.node_name and pod.phase is PodPhase.PENDING
                    and pod.metadata.uid not in self._active_pods):
                yield pod

    def _pending_pods(self) -> bool:
        return next(self._startable(self.api.peek("Pod")), None) is not None

    def _sync(self):
        for pod in self._startable(self.api.pods()):
            yield from self._start_pod(pod)


class LinearBackfillScheduler(BackfillScheduler):
    """Re-scans the node list per job and sorts the running jobs'
    projected ends per blocked head (placements only, no metrics)."""

    def schedule(self, queue, nodes, now, running, calendar):
        decisions = []
        blocked_at = None
        for job in sorted(queue, key=lambda j: (-j.spec.priority, j.submit_time, j.job_id)):
            spec = job.spec
            usable = [
                n for n in nodes
                if n.partition == spec.partition and n.can_host(
                    spec.cores_per_node or n.total_cores, spec.gpus_per_node, spec.exclusive)
            ]
            if len(usable) < spec.nodes:
                if blocked_at is None:
                    idle = sum(1 for n in nodes if n.partition == spec.partition
                               and n.state is NodeState.IDLE)
                    ends = sorted((r.start_time or now) + r.spec.time_limit
                                  for r in running if r.start_time is not None)
                    needed = spec.nodes - idle
                    blocked_at = (now if needed <= 0 else ends[needed - 1]
                                  if needed <= len(ends) else float("inf"))
            elif blocked_at is None or (self.backfill and now + spec.time_limit <= blocked_at):
                decisions.append((job, usable[: spec.nodes]))
                for n in usable[: spec.nodes]:
                    n.allocate(job.job_id, spec.cores_per_node or n.total_cores)
        for job, placement in decisions:
            for n in placement:
                n.release(job.job_id)
        return decisions


def control_plane_oracle():
    """Run the §6.5 stack on the linear scheduler, store-scan kubelets
    and linear backfill."""
    return rebound(
        (k3s, "K8sScheduler", LinearK8sScheduler),
        (kubelet_in_allocation, "Kubelet", StoreScanKubelet),
        (slurm, "BackfillScheduler", LinearBackfillScheduler),
    )
