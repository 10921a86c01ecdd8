"""Control-plane oracles: linear k8s scheduling, store-scan kubelet sync
and linear backfill — the §6.5 stack before its indexes — and the idle
loops before queued heartbeats and held scheduler passes."""

from repro.k8s import k3s
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import PodPhase
from repro.k8s.scheduler import K8sScheduler
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.scenarios import k8s_in_wlm, kubelet_in_allocation, reallocation, wlm_in_k8s
from repro.sim import Signal
from repro.sim.signal import count_skipped_ticks, next_tick
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


class PollingKubelet(Kubelet):
    """The idle loop before queued heartbeats: the parked generator
    wakes itself at each due heartbeat tick (a deadline on its park),
    syncs, and waits out the heartbeat RPC."""

    def _sync_loop(self, node):
        wakeup = self._wakeup
        last_heartbeat = self._last_heartbeat
        while self._running:
            epoch = self.env.now
            if self._pending_pods():
                yield self.env.timeout(self.sync_interval)
            else:
                tick = epoch + self.sync_interval
                skipped = 0
                while tick - last_heartbeat < self.heartbeat_interval:
                    tick += self.sync_interval
                    skipped += 1
                token = wakeup.park(tick)
                cause = yield token
                wakeup.unpark(token)
                if cause is Signal.FIRED:
                    tick, skipped = next_tick(epoch, self.sync_interval, self.env.now)
                    count_skipped_ticks(skipped)
                    yield self.env.timeout_until(tick)
                else:
                    count_skipped_ticks(skipped)
            self.stats["sync_loops"] += 1
            if _metrics.registry.enabled:
                _metrics.registry.inc_series(self._series_keys()[0])
            yield from self._sync()
            if self.env.now - last_heartbeat >= self.heartbeat_interval:
                node.condition.last_heartbeat = self.env.now
                yield self._rpc()
                self.api.update("Node", node)
                last_heartbeat = self.env.now
                _trace.tracer.instant("k8s.kubelet.heartbeat", node=self.node_name)


class BellK8sScheduler(K8sScheduler):
    """Queues every pass, empty or not: wait for the bell, sleep
    ``pass_latency``, pass."""

    def _ring(self) -> None:
        self._bell.fire()

    def _loop(self):
        while True:
            yield self._bell.wait()
            yield self.env.timeout(self.pass_latency)
            self._schedule_pass()


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


def idle_loop_oracle():
    """Run every scenario's kubelets on the polling idle loop and the
    k8s control plane on the bell-driven scheduler."""
    return rebound(
        (k3s, "K8sScheduler", BellK8sScheduler),
        *((module, "Kubelet", PollingKubelet)
          for module in (kubelet_in_allocation, reallocation, wlm_in_k8s, k8s_in_wlm)),
    )
