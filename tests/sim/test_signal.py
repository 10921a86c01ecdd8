"""Tests for the tickless wakeup primitive (`repro.sim.signal`).

The ordering tests mirror the interrupt-race tests in
``test_edge_cases.py``: a Signal wakeup must land in exactly the queue
slot a hand-rolled wakeup event would have used, because the tickless
control loops rely on that to keep virtual-time results bit-identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Signal, next_tick
from repro.sim.events import SimulationError


# -- wait(): event-style waiters ----------------------------------------------

def test_fire_wakes_multiple_waiters_in_order():
    env = Environment()
    sig = Signal(env)
    log = []

    def waiter(env, tag):
        got = yield sig.wait()
        log.append((tag, got, env.now))

    def producer(env):
        yield env.timeout(3)
        assert sig.waiting == 3
        woken = sig.fire("go")
        assert woken == 3

    for tag in ("a", "b", "c"):
        env.process(waiter(env, tag))
    env.process(producer(env))
    env.run()
    # all three wake at the fire time, in registration order
    assert log == [("a", "go", 3.0), ("b", "go", 3.0), ("c", "go", 3.0)]


def test_fire_with_no_waiters_is_lost_without_latch():
    env = Environment()
    sig = Signal(env)
    assert sig.fire("nobody-home") == 0
    log = []

    def late_waiter(env):
        got = yield sig.wait()
        log.append(got)

    env.process(late_waiter(env))
    env.run()
    assert log == []  # the pre-registration fire was not remembered
    assert sig.waiting == 1


def test_latch_remembers_unheard_fire():
    env = Environment()
    sig = Signal(env, latch=True)
    assert sig.fire("ding") == 0
    log = []

    def late_waiter(env):
        got = yield sig.wait()
        log.append((got, env.now))
        got = yield sig.wait()
        log.append((got, env.now))

    def producer(env):
        yield env.timeout(2)
        sig.fire("dong")

    env.process(late_waiter(env))
    env.process(producer(env))
    env.run()
    # first wait consumed the latched fire at t=0, second the live one
    assert log == [("ding", 0.0), ("dong", 2.0)]


def test_latch_coalesces_fires_while_waiter_unprocessed():
    """Two rings in the same instant == one bell ring: the second fire
    lands while the first's waiter event is still queued, so it must be
    absorbed rather than latched for the *next* wait."""
    env = Environment()
    sig = Signal(env, latch=True)
    passes = []

    def loop(env):
        while True:
            yield sig.wait()
            passes.append(env.now)
            yield env.timeout(1)

    def producer(env):
        yield env.timeout(5)
        sig.fire()
        sig.fire()  # same instant, waiter not yet resumed: coalesced

    env.process(loop(env))
    env.process(producer(env))
    env.run(until=20)
    assert passes == [5.0]  # one pass, not two


def test_cancel_deregisters_waiter():
    env = Environment()
    sig = Signal(env)
    event = sig.wait()
    assert sig.waiting == 1
    assert sig.cancel(event) is True
    assert sig.waiting == 0
    assert sig.cancel(event) is False  # idempotent
    sig.fire()
    assert not event.triggered


# -- park(): direct-resume waiting --------------------------------------------

def test_park_requires_active_process():
    env = Environment()
    sig = Signal(env)
    with pytest.raises(SimulationError):
        sig.park()


def test_parked_process_woken_by_fire():
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park()
        cause = yield token
        sig.unpark(token)
        log.append((cause is Signal.FIRED, env.now))

    def producer(env):
        yield env.timeout(7)
        assert sig.fire() == 1

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == [(True, 7.0)]


def test_park_deadline_delivers_none():
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park(4.0)
        cause = yield token
        sig.unpark(token)
        log.append((cause, env.now))

    env.process(sleeper(env))
    env.run()
    assert log == [(None, 4.0)]


def test_fired_sleeper_resumes_before_producers_next_event():
    """fire() queues the direct resume immediately: the woken process
    runs before anything the producer schedules *after* firing — the
    same slot a pre-queued wakeup event would have occupied."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park()
        yield token
        sig.unpark(token)
        log.append("woken")

    def producer(env):
        yield env.timeout(1)
        sig.fire()
        yield env.timeout(0)
        log.append("producer-continued")

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == ["woken", "producer-continued"]


def test_deadline_beats_same_time_fire():
    """Mirror of the interrupt-race tests: the park deadline was
    scheduled at park time (older sequence number), so when a producer
    fires at exactly the deadline instant, the deadline event processes
    first and the sleeper observes a timeout, not a wakeup."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park(5.0)
        cause = yield token
        sig.unpark(token)
        log.append("fired" if cause is Signal.FIRED else "deadline")

    def producer(env):
        yield env.timeout(5.0)
        sig.fire()

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == ["deadline"]
    # the same-time fire found nobody parked anymore
    assert sig.waiting == 0


def test_stale_park_registration_is_skipped():
    """A sleeper that wakes via its deadline but forgets to unpark must
    not be resumed by a later fire while it waits on something else."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sloppy_sleeper(env):
        token = sig.park(1.0)
        cause = yield token
        assert cause is None  # deadline, but no unpark (sloppy)
        got = yield env.timeout(10, value="slept-through")
        log.append((got, env.now))

    def producer(env):
        yield env.timeout(5)
        assert sig.fire() == 0  # stale registration: nobody truly parked

    env.process(sloppy_sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == [("slept-through", 11.0)]


# -- timeout_until ------------------------------------------------------------

def test_timeout_until_rejects_past():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.timeout_until(4.0)


def test_timeout_until_exact_time():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout_until(2.5, value="at-2.5")
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.5]


# -- tick-boundary alignment --------------------------------------------------

@given(
    epoch=st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                    allow_infinity=False),
    interval=st.sampled_from([0.5, 1.0, 5.0, 10.0, 0.3]),
    n_idle=st.integers(min_value=0, max_value=200),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_next_tick_matches_sequential_spinner(epoch, interval, n_idle, frac):
    """next_tick must replay the spinner's float additions exactly: the
    boundary it returns is bit-identical to the tick a polling loop
    would wake at, for a wakeup landing anywhere inside an interval."""
    # where the spinner's ticks actually land (sequential addition)
    t = epoch
    ticks = []
    for _ in range(n_idle + 2):
        t += interval
        ticks.append(t)
    # a wakeup strictly inside (ticks[n_idle-1], ticks[n_idle]]
    prev = ticks[n_idle - 1] if n_idle else epoch
    fire_at = prev + (ticks[n_idle] - prev) * frac
    if not prev <= fire_at < ticks[n_idle]:
        return  # degenerate float case: interval lost to rounding
    boundary, skipped = next_tick(epoch, interval, fire_at)
    assert boundary == ticks[n_idle]  # bit-identical, not just approx
    assert skipped == n_idle


def test_next_tick_on_boundary_is_strictly_after():
    boundary, skipped = next_tick(0.0, 0.5, 1.0)
    assert boundary == 1.5  # a wake exactly on a tick resumes at the next
    assert skipped == 2


def test_next_tick_rejects_bad_interval():
    with pytest.raises(ValueError):
        next_tick(0.0, 0.0, 1.0)


def test_latched_reports_an_unheard_fire():
    env = Environment()
    sig = Signal(env, latch=True)
    assert not sig.latched
    sig.fire()
    assert sig.latched
    sig.wait()
    assert not sig.latched


def test_park_reregisters_a_token_the_process_still_waits_on():
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        got = yield sig.park()
        log.append((got, env.now))

    proc = env.process(sleeper(env))
    env.run()
    token = proc._target
    sig.unpark(token)
    assert sig.fire() == 0  # unparked: the fire passes it by

    # a queued callback standing in for the parked process hands it back
    env.call_at(1.0, lambda: sig.park(token=token), process=proc)
    env.run()
    assert sig.fire() == 1
    env.run()
    assert log == [(Signal.FIRED, 1.0)]
