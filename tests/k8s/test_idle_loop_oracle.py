"""The queued-heartbeat kubelet and the slot-holding scheduler equal the
idle loops they replaced.

Production draws every event sequence number where the polling kubelet
and the bell-driven scheduler in ``tests/oracles/control_plane.py`` draw
it, so the total event order is the same and everything observable must
match: per-pod bind/running/end times, every watch event's resource
version and the sequence number of the event it happened in, apiserver,
interconnect, scheduler and kubelet stats, metrics (except the
simulator's own ``sim.*`` counters), time series, the clock after a drain,
and the Chrome trace.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main
from repro.k8s import APIServer, ContainerSpec, K8sScheduler, ObjectMeta, Pod, PodSpec
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import K8sNode, NodeCondition, ResourceRequests
from repro.obs import metrics, timeseries
from repro.scenarios.fleet_replay import FleetReplayScenario
from repro.sim import Environment
from repro.workload.fleet import FleetConfig
from tests.k8s.conftest import make_cri
from tests.oracles.control_plane import BellK8sScheduler, PollingKubelet, idle_loop_oracle


def watch_log(env, api) -> list[tuple]:
    """Every Pod and Node watch event with its time, the sequence number
    of the event being processed, and the object's resource version."""
    log: list[tuple] = []

    def on_pod(event):
        pod = event.obj
        log.append(("Pod", env.now, env._cursor, event.type.value, pod.metadata.name,
                    pod.metadata.resource_version, pod.phase.value, pod.node_name,
                    pod.start_time, pod.end_time))

    def on_node(event):
        node = event.obj
        log.append(("Node", env.now, env._cursor, event.type.value, node.metadata.name,
                    node.metadata.resource_version, node.condition.ready,
                    node.condition.last_heartbeat, node.allocated.cpu))

    api.watch("Pod", on_pod, replay_existing=False)
    api.watch("Node", on_node, replay_existing=False)
    return log


# -- fleet replays through the §6.5 stack -------------------------------------------

def observe_replay(config: FleetConfig) -> dict:
    metrics.enable()
    timeseries.enable(interval=5.0)
    try:
        env = Environment()
        replay = FleetReplayScenario(env, config, shard=0)
        log = watch_log(env, replay.api)
        result = replay.run()
        scenario = replay.scenario
        return {
            "log": log,
            "result": dataclasses.asdict(result),
            "now": env.now,
            "api": dict(replay.api.stats),
            "network": dict(scenario.network.stats),
            "scheduler": dict(scenario.k3s.scheduler.stats),
            "kubelets": [(k.node_name, dict(k.stats))
                         for k in scenario.kubelets + scenario.retired_kubelets],
            "metrics": metrics.registry.snapshot(include_sim=False),
            "timeseries": timeseries.recorder.snapshot(),
        }
    finally:
        timeseries.disable()
        metrics.disable()


def assert_equal_to_oracle(observe, *args):
    fast = observe(*args)
    with idle_loop_oracle():
        slow = observe(*args)
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key] == slow[key], key
    return fast


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_replay_matches_idle_loop_oracle(seed):
    config = FleetConfig(tenants=3, nodes=6, starts=60, images=4, seed=seed,
                         shards=1, day=400.0)
    obs = assert_equal_to_oracle(observe_replay, config)
    assert obs["result"]["completed"] == 60
    # idle heartbeats actually ran as callbacks
    assert sum(1 for e in obs["log"] if e[0] == "Node" and e[6]) > 60


def test_saturated_replay_matches_idle_loop_oracle():
    # one 64-core node, 100 long pods in 20 s: passes leave pods pending
    config = FleetConfig(tenants=3, nodes=1, starts=100, images=4, seed=5,
                         shards=1, day=20.0, duration_mean=300.0, node_cpus=32)
    obs = assert_equal_to_oracle(observe_replay, config)
    assert obs["result"]["unschedulable_events"] > 0


# -- one kubelet, hand-timed pods --------------------------------------------------

#: virtual seconds each single-node run lasts
HORIZON = 60.0


def make_pod(name: str, node: str | None, duration: float = 3.0) -> Pod:
    pod = Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[ContainerSpec(
            name="main", image="registry.site.local/pipelines/step:v1",
            resources=ResourceRequests(cpu=1),
        )]),
    )
    pod.spec.duration = duration
    pod.node_name = node
    return pod


def observe_node(registry, script, kubelet_cls, scheduler_cls, horizon=HORIZON) -> dict:
    """Run one scheduler + kubelet with ``script(env, api, kubelet)``
    driving it until ``horizon``, then stop the kubelet and drain the
    queue."""
    env = Environment()
    api = APIServer()
    scheduler = scheduler_cls(env, api)
    cri, _host = make_cri(registry)
    kubelet = kubelet_cls(env, api, "knode", cri)
    kubelet.start()
    log = watch_log(env, api)
    env.process(script(env, api, kubelet))
    env.run(until=horizon)
    kubelet.stop()
    env.run()
    return {
        "log": log,
        "now": env.now,
        "api": dict(api.stats),
        "scheduler": dict(scheduler.stats),
        "kubelet": dict(kubelet.stats),
    }


def assert_node_equal_to_oracle(registry, script, horizon=HORIZON) -> dict:
    fast = observe_node(registry, script, Kubelet, K8sScheduler, horizon)
    slow = observe_node(registry, script, PollingKubelet, BellK8sScheduler, horizon)
    for key in fast:
        assert fast[key] == slow[key], key
    return fast


def heartbeats(obs: dict) -> list[float]:
    """The idle heartbeats' tick times (Node updates of a Ready node
    that moved ``last_heartbeat``)."""
    ticks = []
    for entry in obs["log"]:
        if entry[0] == "Node" and entry[6] and (not ticks or entry[7] != ticks[-1]):
            ticks.append(entry[7])
    return ticks[1:]  # the first entry is registration


@pytest.fixture
def schedule(registry):
    """The heartbeat ticks and the RPC latency of an idle node."""
    def idle(env, api, kubelet):
        yield env.timeout(0)

    obs = observe_node(registry, idle, Kubelet, K8sScheduler)
    return heartbeats(obs), APIServer.request_latency


def at(when: float, action, wait_until: float | None = None):
    """A script that runs ``action(api, kubelet)`` at exactly ``when``;
    with ``wait_until`` the deadline event is only drawn from then on
    (after any event the kubelet queued earlier for ``when``)."""
    def script(env, api, kubelet):
        if wait_until is not None:
            yield env.timeout_until(wait_until)
        yield env.timeout_until(when)
        action(api, kubelet)
    return script


def create(name: str, node: str | None = "knode"):
    return lambda api, kubelet: api.create("Pod", make_pod(name, node))


def test_pod_lands_at_heartbeat_tick_before_its_slot(registry, schedule):
    ticks, _ = schedule
    obs = assert_node_equal_to_oracle(registry, at(ticks[1], create("p")))
    # woken by the pod first: that tick's heartbeat moves to the next grid tick
    assert ticks[1] not in heartbeats(obs)


def test_pod_lands_at_heartbeat_tick_after_its_slot(registry, schedule):
    ticks, latency = schedule
    script = at(ticks[1], create("p"), wait_until=ticks[0] + 2 * latency)
    obs = assert_node_equal_to_oracle(registry, script)
    # the tick ran its heartbeat first; the pod waited for the RPC
    assert ticks[1] in heartbeats(obs)


def test_pod_lands_inside_heartbeat_rpc(registry, schedule):
    ticks, latency = schedule
    obs = assert_node_equal_to_oracle(registry, at(ticks[1] + latency / 2, create("p")))
    assert obs["kubelet"]["pods_started"] == 1


def test_unbound_pods_through_the_scheduler(registry, schedule):
    ticks, latency = schedule

    def script(env, api, kubelet):
        for i, when in enumerate((ticks[0] - 0.01, ticks[1], ticks[1] + latency / 2, 33.3)):
            yield env.timeout_until(when)
            api.create("Pod", make_pod(f"u{i}", None))

    obs = assert_node_equal_to_oracle(registry, script)
    assert obs["scheduler"]["scheduled"] == 4


@pytest.mark.parametrize("how", ["stop", "crash"])
@pytest.mark.parametrize("where", ["idle", "rpc"])
def test_stop_and_crash(registry, schedule, how, where):
    ticks, latency = schedule
    when = ticks[1] - 1.0 if where == "idle" else ticks[1] + latency / 2
    # no horizon: the run drains right after the stop's Node update
    obs = assert_node_equal_to_oracle(
        registry, at(when, lambda api, kubelet: getattr(kubelet, how)()), horizon=None)
    assert max(heartbeats(obs)) <= ticks[1]
    assert obs["now"] > when


# -- the scheduler alone: rings around a held pass ----------------------------------

def observe_plane(drive, scheduler_cls) -> dict:
    """One Ready node and a scheduler, driven by ``drive(env, api, node)``
    from outside the simulation, with a time-series sampler running."""
    metrics.enable()
    rec = timeseries.enable(interval=1 / 128)
    try:
        env = Environment()
        api = APIServer()
        scheduler = scheduler_cls(env, api)
        log = watch_log(env, api)
        rec.add_probe(lambda t: rec.record("probe.pending", t, float(len(scheduler._pending))))
        timeseries.install_sampler(env, metrics.registry)
        node = K8sNode(metadata=ObjectMeta(name="n1"),
                       capacity=ResourceRequests(cpu=4, memory=64 * 2**30),
                       condition=NodeCondition(ready=True))
        api.create("Node", node)
        drive(env, api, node)
        return {
            "log": log,
            "now": env.now,
            "api": dict(api.stats),
            "scheduler": dict(scheduler.stats),
            "samples": rec.samples,
            "timeseries": rec.snapshot(),
        }
    finally:
        timeseries.disable()
        metrics.disable()


def assert_plane_equal_to_oracle(drive) -> dict:
    fast = observe_plane(drive, K8sScheduler)
    slow = observe_plane(drive, BellK8sScheduler)
    for key in fast:
        assert fast[key] == slow[key], key
    return fast


def bind_times(obs: dict) -> list[float]:
    return [e[1] for e in obs["log"] if e[0] == "Pod" and e[3] == "MODIFIED" and e[7]]


#: a Node update at T0 wakes the scheduler with nothing pending; its
#: empty pass is due at SLOT
T0 = 1.0
SLOT = T0 + K8sScheduler.pass_latency


def ring_then_create(drawn_at: float):
    """Update the node at T0, then create a pod at exactly SLOT from a
    deadline event drawn at ``drawn_at`` (before or after the pass's
    slot was drawn)."""
    def drive(env, api, node):
        def creator(env):
            if drawn_at:
                yield env.timeout_until(drawn_at)
            yield env.timeout_until(SLOT)
            api.create("Pod", make_pod("p", None))

        env.process(creator(env))
        env.run(until=T0)
        api.update("Node", node)
        env.run()
    return drive


def test_ring_exactly_at_held_slot_before_it():
    obs = assert_plane_equal_to_oracle(ring_then_create(0.0))
    # the held pass was still ahead: it ran in its slot and bound the pod
    assert bind_times(obs) == [SLOT]


def test_ring_exactly_at_held_slot_after_it():
    obs = assert_plane_equal_to_oracle(ring_then_create(T0 + 0.01))
    # the pass had run empty: the pod waits for a pass of its own
    assert bind_times(obs) == [SLOT + K8sScheduler.pass_latency]


def test_ring_between_runs_after_held_slot_deadline():
    def drive(env, api, node):
        env.run(until=T0)
        api.update("Node", node)
        env.run(until=SLOT)  # the held pass's slot is processed territory
        api.create("Pod", make_pod("p", None))
        env.run()

    obs = assert_plane_equal_to_oracle(drive)
    assert bind_times(obs) == [SLOT + K8sScheduler.pass_latency]


def test_sampler_and_drain_see_the_held_pass():
    def drive(env, api, node):
        env.run(until=T0)
        api.update("Node", node)
        env.run()

    obs = assert_plane_equal_to_oracle(drive)
    assert obs["now"] >= SLOT and obs["samples"] > 0


# -- CLI artifacts --------------------------------------------------------------------

def cli_artifacts(tmp_path: Path, tag: str, argv: list[str]) -> dict[str, bytes]:
    out = tmp_path / tag
    out.mkdir()
    args = [arg.format(out=out) for arg in argv]
    main(args)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["trace", "kubelet_in_allocation", "--out", "{out}/trace.json"],
    ["chaos", "kubelet_in_allocation", "--seed", "42", "--trace", "{out}/trace.json",
     "--out", "{out}/report.json"],
    ["slo", "kubelet_in_allocation", "--seed", "42", "--out", "{out}/slo.json",
     "--timeseries", "{out}/ts.json"],
    ["scenarios", "--nodes", "2", "--pods", "3", "--metrics-out", "{out}/m.json"],
], ids=["trace", "chaos", "slo", "scenarios"])
def test_cli_artifacts_match_idle_loop_oracle(tmp_path, argv):
    fast = cli_artifacts(tmp_path, "fast", argv)
    with idle_loop_oracle():
        slow = cli_artifacts(tmp_path, "slow", argv)
    assert fast.keys() == slow.keys() and fast
    for name in fast:
        if name == "m.json":
            # the simulator's own sim.* counters differ by design
            continue
        assert fast[name] == slow[name], name


def test_ring_while_the_bell_is_latched():
    latency = K8sScheduler.pass_latency

    def drive(env, api, node):
        def updater(env):
            # drawn after the pass that binds "p", so it rings between
            # that pass and the bell wake the pass latched: the next
            # (empty) pass must still be queued
            yield env.timeout_until(T0 + 0.01)
            yield env.timeout_until(SLOT)
            api.update("Node", node)
            # lands while the pass after that one is held
            yield env.timeout_until(SLOT + latency + latency / 2)
            api.create("Pod", make_pod("q", None))

        env.process(updater(env))
        env.run(until=T0)
        api.create("Pod", make_pod("p", None))
        env.run()

    obs = assert_plane_equal_to_oracle(drive)
    assert bind_times(obs) == [SLOT, SLOT + latency + latency]
