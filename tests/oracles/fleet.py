"""Fleet oracles: the linear capacity scan and the event-per-start engine."""

from repro.sim import Environment
from repro.sim import profile as _profile
from repro.sim.events import Event
from repro.workload import fleet
from tests.oracles import rebound


class LinearCapacityScan:
    """Best-fit placement (lowest node id on ties) by scanning every node."""

    def __init__(self, n_nodes: int, node_cpus: int):
        self.cap = node_cpus
        self.free = [node_cpus] * n_nodes
        self.down: set[int] = set()

    def alloc(self, req: int) -> int | None:
        best, best_free = None, self.cap + 1
        for node, free in enumerate(self.free):
            if req <= free < best_free:
                best, best_free = node, free
                if free == req:
                    break  # exact fit: nothing tighter exists
        if best is not None:
            self.free[best] = best_free - req
        return best

    def release(self, node: int, req: int) -> None:
        self.free[node] += req

    def remove_node(self, node: int) -> int:
        if node in self.down:
            return 0
        self.down.add(node)
        freed, self.free[node] = self.free[node], 0
        return freed

    def restore_node(self, node: int) -> None:
        if node in self.down:
            self.down.discard(node)
            self.free[node] = self.cap

    @property
    def total_free(self) -> int:
        return sum(self.free)


class EventPerStartEngine(fleet.FleetShardEngine):
    """The fleet shard driven by one simulator event per arrival,
    completion and fault edge instead of the epoch-batched pump.

    Fault edges are scheduled first as URGENT events, arrivals as NORMAL
    events, and each completion ``_place`` files in the calendar becomes
    an URGENT event right after the event that placed it — the tie order
    the pump's three-stream merge must reproduce."""

    def _pump(self):
        for edge in self._fault_edges:
            self._at(edge[0], self._on_edge, edge, Environment.URGENT)
        for k, t in enumerate(self._times):
            self._at(t, self._on_arrival, k)
        yield from ()

    def _at(self, t, callback, value, priority=Environment.NORMAL):
        event = Event(self.env)
        event._value = value
        event.callbacks.append(callback)
        self.env._schedule_at(event, t, priority=priority)

    def _on_edge(self, event):
        self._deliver_edge(event._value)
        self._settle()

    def _on_arrival(self, event):
        self._arrive(event._value, self._times[event._value])
        self._settle()

    def _complete(self, slot, end_t):
        """Release the slot, then drain the queue unconditionally — the
        oracle does not share the fast engine's fit-checked drain."""
        node, req, tloc, busy = self._slots[slot]
        self.index.release(node, req)
        self._t_completions[tloc] += 1
        self._t_cpu_seconds[tloc] += busy * req
        self._live -= 1
        if self._armed:
            self._slot_live[slot] = False
        self._free_slots.append(slot)
        self._drain_pending(end_t)

    def _on_completion(self, event):
        end, _seq, slot, gen = event._value
        if self._slot_gen[slot] == gen:  # else killed by a crash
            self._cal_size -= 1
            self._complete(slot, end)
        self._settle()

    def _settle(self):
        for bucket in self._calendar.values():
            for record in bucket:
                self._at(record[0], self._on_completion, record, Environment.URGENT)
        self._calendar.clear()
        self._cal_heap.clear()
        prof = _profile.counters
        if prof.enabled:
            env = self.env
            depth = len(env._queue) + len(env._immediate) + len(self._pending)
            prof.event_queue_peak = max(prof.event_queue_peak, depth)
            live = self._live + len(self._pending)
            prof.live_objects_peak = max(prof.live_objects_peak, live)


def fleet_oracle():
    """Run fleets on the event-per-start engine over the linear scan."""
    return rebound(
        (fleet, "CapacityIndex", LinearCapacityScan),
        (fleet, "FleetShardEngine", EventPerStartEngine),
    )
