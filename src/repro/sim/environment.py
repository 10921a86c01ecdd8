"""The simulation environment: event queue, virtual clock, processes.

The queue is split into two structures sharing one sequence counter:

- a binary heap for events scheduled with a positive delay (true
  timeouts) or non-normal priority (interrupts), ordered by
  ``(time, priority, sequence)``;
- a FIFO deque for zero-delay normal events — by far the most common
  kind (``succeed``/``fail``, resource grants, process resumes).  These
  always fire at the *current* time, so FIFO order over the shared
  sequence counter reproduces the heap's total order exactly while
  skipping ``heapq`` cost entirely.

``step()`` merges the two by comparing the heap head's
``(time, priority, sequence)`` key against the deque front, so the
observable event order — and therefore every virtual-time result — is
bit-identical to a single-heap implementation.

Process resumes additionally bypass event allocation: instead of a
throwaway carrier :class:`Event` per resume, the queue carries a slotted
:class:`_Resume` record that invokes the generator directly.  Control
loops that only need a function run at a virtual time queue a
:class:`_Call` record the same way (:meth:`Environment.call_at`).

A loop whose next event would observably do nothing may instead
:meth:`~Environment.reserve` that event's sequence number without
queueing it: the total order of every other event is unchanged, and
:meth:`~Environment.passed` tells the holder whether the reserved slot
already lies behind the event being processed (compared against the
``(time, sequence)`` cursor ``step()`` records).  If something happens
before the slot that would make the event matter, the holder queues it
in its own slot with :meth:`~Environment.fill`.  A drain in ``run()``
and :meth:`~Environment.has_pending` count the furthest reservation as
the pending event it stands for, so the clock after a drain and idle
checks match the event queued (exactly so while slots are held one at
a time, as the k8s scheduler holds them); ``peek()`` and ``step()`` see
queued events only.
"""

from __future__ import annotations

import itertools
import typing as _t
from collections import deque
from heapq import heappop, heappush

from repro.obs.trace import tracer as _tracer
from repro.sim.events import Event, Interrupt, SimulationError, Timeout
from repro.sim.profile import counters as _counters

ProcessGenerator = _t.Generator[Event, object, object]


class _Resume:
    """A queued process resume: cheaper than a carrier Event.

    ``process`` is set to ``None`` to cancel the resume in place (used by
    :meth:`Process.interrupt` so a stale resume cannot fire after the
    interrupt already restarted the generator).
    """

    __slots__ = ("process", "value", "exception")

    def __init__(self, process: "Process", value: object, exception: BaseException | None):
        self.process = process
        self.value = value
        self.exception = exception


class _Call:
    """A queued callback: ``step()`` runs ``fn()`` in the call's slot.

    ``process`` is made the active process while ``fn`` runs, for
    callbacks that stand in for a parked process's own code (trace rows
    and :meth:`Signal.park <repro.sim.signal.Signal.park>` see that
    process).  ``fn`` is set to ``None`` to cancel the call in place; a
    cancelled call still pops in its slot, as an event nobody waits on
    would.  ``when``/``seq`` are the slot's queue key.
    """

    __slots__ = ("fn", "process", "when", "seq")

    def __init__(self, fn: _t.Callable[[], object] | None, process: "Process | None",
                 when: float, seq: int):
        self.fn = fn
        self.process = process
        self.when = when
        self.seq = seq


class Environment:
    """Owns the virtual clock and the pending-event queue.

    Events are processed in ``(time, priority, sequence)`` order; the
    sequence number makes simultaneous events FIFO and the whole
    simulation deterministic.
    """

    #: priority for normal events; interrupts use URGENT so that an
    #: interrupt scheduled at time t pre-empts same-time normal events.
    NORMAL = 1
    URGENT = 0

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: delayed / urgent events: heap of (time, priority, seq, item)
        self._queue: list[tuple[float, int, int, Event | _Resume | _Call]] = []
        #: zero-delay normal events at the current time: FIFO of (seq, item)
        self._immediate: deque[tuple[int, Event | _Resume | _Call]] = deque()
        self._counter = itertools.count()
        #: sequence number of the event being processed at ``now``: -1
        #: for URGENT events (they sort before every NORMAL one), +inf
        #: once ``run(until=t)`` has processed everything at ``t``
        self._cursor: float = -1
        #: the furthest :meth:`reserve` slot (counted as pending work)
        self._reserved: _Call | None = None
        self._active_process: Process | None = None
        self._profile = _counters
        if _tracer.enabled:
            # Adopt this environment's virtual clock and active-process
            # tracking for span timestamps/thread rows (last env wins).
            _tracer.attach(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> "Process | None":
        return self._active_process

    # -- event construction helpers ---------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_until(self, when: float, value: object = None) -> Event:
        """An event at the **absolute** virtual time ``when``.

        Unlike ``timeout(when - now)``, the event fires at exactly
        ``when`` — no float round-trip through a delay — which tickless
        loops rely on to land precisely on a poll-grid boundary another
        process (or a previous incarnation of the same loop) computed by
        sequential addition.
        """
        when = float(when)
        if when < self._now:
            raise ValueError(f"until={when} is in the past (now={self._now})")
        event = Event(self)
        event._value = value
        self._schedule_at(event, when)
        return event

    def process(self, generator: ProcessGenerator, name: str | None = None) -> "Process":
        return Process(self, generator, name=name)

    def call_at(
        self, when: float, fn: _t.Callable[[], object], process: "Process | None" = None
    ) -> _Call:
        """Run ``fn()`` at the absolute virtual time ``when``.

        Takes the queue slot an event scheduled here would take, without
        allocating one.  Returns the :class:`_Call`; set its ``fn`` to
        ``None`` to cancel it.  With ``process`` set, ``fn`` runs with
        that process active.
        """
        if when < self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        call = _Call(fn, process, when, next(self._counter))
        if when == self._now:
            self._immediate.append((call.seq, call))
            immediate = True
        else:
            heappush(self._queue, (when, 1, call.seq, call))
            immediate = False
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, immediate)
        return call

    def reserve(self, delay: float) -> _Call:
        """Draw the queue slot ``timeout(delay)`` would take, unqueued.

        The returned call holds the slot's ``(when, seq)`` key and no
        function; :meth:`fill` queues it there later.  Until then
        nothing runs in the slot, so a holder must only reserve an event
        whose processing would change nothing observable.
        """
        call = _Call(None, None, self._now + delay, next(self._counter))
        held = self._reserved
        if held is None or call.when >= held.when:
            self._reserved = call
        return call

    def fill(self, call: _Call, fn: _t.Callable[[], object]) -> None:
        """Queue a reserved ``call`` in its own slot, running ``fn``."""
        call.fn = fn
        heappush(self._queue, (call.when, 1, call.seq, call))
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, False)

    def passed(self, call: _Call) -> bool:
        """Whether ``call``'s slot sorts at or before the event being
        processed (or, between ``run()`` calls, the last one processed)."""
        when = call.when
        return when < self._now or (when == self._now and call.seq <= self._cursor)

    def has_pending(self) -> bool:
        """Whether any event is queued or a reserved slot lies ahead."""
        if self._immediate or self._queue:
            return True
        held = self._reserved
        return held is not None and not self.passed(held)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay == 0.0 and priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), event))
        else:
            immediate = False
            heappush(self._queue, (self._now + delay, priority, next(self._counter), event))
        prof = self._profile
        if prof.enabled:  # _count_push, inlined on the hottest path
            prof.events_scheduled += 1
            if immediate:
                prof.immediate_pushes += 1
            else:
                prof.heap_pushes += 1
            depth = len(self._queue) + len(self._immediate)
            if depth > prof.peak_queue_depth:
                prof.peak_queue_depth = depth

    def _schedule_at(self, event: Event, when: float, priority: int = NORMAL) -> None:
        """Schedule ``event`` at the absolute virtual time ``when``."""
        if when == self._now and priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), event))
        else:
            immediate = False
            heappush(self._queue, (when, priority, next(self._counter), event))
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, immediate)

    def _schedule_resume(
        self,
        process: "Process",
        value: object,
        exception: BaseException | None,
        priority: int = NORMAL,
    ) -> _Resume:
        """Queue a direct process resume without allocating a carrier Event."""
        resume = _Resume(process, value, exception)
        if priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), resume))
        else:
            immediate = False
            heappush(self._queue, (self._now, priority, next(self._counter), resume))
        prof = self._profile
        if prof.enabled:
            prof.direct_resumes += 1
            self._count_push(prof, immediate)
        return resume

    def _count_push(self, prof, immediate: bool) -> None:
        prof.events_scheduled += 1
        if immediate:
            prof.immediate_pushes += 1
        else:
            prof.heap_pushes += 1
        depth = len(self._queue) + len(self._immediate)
        if depth > prof.peak_queue_depth:
            prof.peak_queue_depth = depth

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if queue is empty."""
        if self._immediate:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        immediate = self._immediate
        queue = self._queue
        from_heap = True
        if immediate:
            # Merge point: a heap entry wins only if its (time, priority,
            # sequence) key sorts before the deque front, which sits at
            # (self._now, NORMAL, front_seq).
            use_heap = False
            if queue:
                head = queue[0]
                if head[0] == self._now:
                    prio = head[1]
                    use_heap = prio < 1 or (prio == 1 and head[2] < immediate[0][0])
            if use_heap:
                when, prio, seq, item = heappop(queue)
                self._now = when
                self._cursor = seq if prio == 1 else -1
            else:
                from_heap = False
                self._cursor, item = immediate.popleft()
        elif queue:
            when, prio, seq, item = heappop(queue)
            self._now = when
            self._cursor = seq if prio == 1 else -1
        else:
            raise SimulationError("step() on empty event queue")
        prof = self._profile
        if prof.enabled:
            prof.events_processed += 1
            if from_heap:
                prof.heap_pops += 1
            else:
                prof.immediate_pops += 1

        cls = item.__class__
        if cls is _Resume:
            process = item.process
            if process is not None:  # None == cancelled by interrupt()
                process._do_resume(item.value, item.exception)
            return
        if cls is _Call:
            fn = item.fn
            if fn is not None:  # None == cancelled
                self._active_process = item.process
                fn()
                self._active_process = None
            return
        event = _t.cast(Event, item)
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if event._exception is not None and not event.defused:
            raise event._exception

    def run(self, until: "float | Event | None" = None) -> object:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain), a number (absolute virtual
        time), or an :class:`Event` (run until it is processed, returning
        its value).
        """
        immediate = self._immediate
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                return stop.value
            sentinel: list[bool] = []
            if stop.callbacks is None:
                raise SimulationError("cannot run until an in-flight event")
            stop.callbacks.append(lambda _ev: sentinel.append(True))
            # A failed `until` event must surface its exception to the
            # caller even if a waiter defused it inside the simulation.
            while (immediate or queue) and not sentinel:
                self.step()
            if not sentinel:
                self._drain_reserved()
                raise SimulationError("event queue drained before `until` event fired")
            return stop.value
        deadline = float("inf") if until is None else float(until)
        if deadline != float("inf") and deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        while immediate or queue:
            if not immediate and queue[0][0] > deadline:
                break
            self.step()
        if deadline != float("inf"):
            # Everything at or before the deadline has been processed.
            self._now = deadline
            self._cursor = float("inf")
        else:
            self._drain_reserved()
        return None

    def _drain_reserved(self) -> None:
        """The queue drained: the clock stands where the furthest reserved
        slot's event would have left it."""
        held = self._reserved
        if held is not None and held.when > self._now:
            self._now = held.when
            self._cursor = float("inf")


class Process(Event):
    """A generator-driven simulation process.

    The process itself is an event: it triggers with the generator's
    return value when the generator finishes, so processes can wait on
    each other by yielding the target process.
    """

    __slots__ = ("_generator", "name", "_target", "_pending_resume")

    def __init__(self, env: Environment, generator: ProcessGenerator, name: str | None = None):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        if env._profile.enabled:
            env._profile.processes_spawned += 1
        # Bootstrap: resume the generator at the current simulation time.
        self._pending_resume: _Resume | None = env._schedule_resume(self, None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever it was waiting on so the stale resume
        # callback does not fire later.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        if self._pending_resume is not None:
            self._pending_resume.process = None
            self._pending_resume = None
        self.env._schedule_resume(self, None, Interrupt(cause), priority=Environment.URGENT)

    # -- internals ----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Callback form: resume with a real event's value/exception."""
        if trigger._exception is not None:
            trigger.defused = True
        self._do_resume(trigger._value, trigger._exception)

    def resume_now(self, value: object = None) -> None:
        """Resume the generator with ``value`` inside the event being
        processed, detaching it from whatever event it waits on.

        For a queued callback that stands in for the event the process
        is parked on: the generator continues in the callback's own
        queue slot, exactly where resuming from that event would have.
        """
        self._do_resume(value, None)

    def _do_resume(self, value: object, exception: BaseException | None) -> None:
        self._pending_resume = None
        target = self._target
        if target is not None:
            # Normally `target` is the event now being processed (its
            # callbacks are already detached).  But a second interrupt
            # queued while the first was in flight fires *after* the
            # process re-attached to a new event — detach that stale
            # callback or the process would later be resumed twice.
            self._target = None
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        env = self.env
        env._active_process = self
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        if target.env is not env:
            raise SimulationError("process yielded an event from a different environment")
        self._target = target
        if target.callbacks is None:
            # Already processed: resume immediately (next queue slot)
            # without a carrier Event.  The exception, if any, was already
            # defused when the target itself was processed.
            self._pending_resume = env._schedule_resume(self, target._value, target._exception)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
