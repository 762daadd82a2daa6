"""Unit tests for Resource, FifoServer, and Semaphore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Environment, FifoServer, Resource, Semaphore


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_serializes_access():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(env, wid):
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(10)
        res.release(req)
        spans.append((wid, start, env.now))

    for wid in range(3):
        env.process(worker(env, wid))
    env.run()
    assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]


def test_fifo_server_parallel_capacity_two():
    env = Environment()
    server = FifoServer(env, capacity=2)
    finish = []

    def worker(env, wid):
        yield server.hold(10)
        finish.append((wid, env.now))

    for wid in range(4):
        env.process(worker(env, wid))
    env.run()
    assert finish == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def worker(env, wid, prio, delay):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        yield req
        yield env.timeout(1)
        res.release(req)
        order.append(wid)

    env.process(holder(env))
    # Submitted in order 0,1,2 but priorities 2,0,1 => served 1,2,0.
    env.process(worker(env, 0, 2, 1))
    env.process(worker(env, 1, 0, 2))
    env.process(worker(env, 2, 1, 3))
    env.run()
    assert order == [1, 2, 0]


def test_resource_release_unowned_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    assert res.queue_len == 1
    res.cancel(second)
    assert res.queue_len == 0
    with pytest.raises(SimulationError):
        res.cancel(first)  # already granted


def test_fifo_server_idle_after_hold():
    env = Environment()
    server = FifoServer(env, capacity=1)
    done = []

    def worker(env, delay):
        yield env.timeout(delay)
        yield server.hold(5, then=3)
        done.append(env.now)

    env.process(worker(env, 0))
    env.process(worker(env, 20))  # the server fell idle at 5
    env.run()
    assert done == [8, 28]


def test_fifo_server_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        FifoServer(env, capacity=0)
    server = FifoServer(env)
    with pytest.raises(SimulationError):
        server.hold(-1)
    with pytest.raises(SimulationError):
        server.hold(1, then=-1)


def _finish_times(jobs, make_book):
    """Run ``(arrival, duration, then)`` jobs; map job index -> completion."""
    env = Environment()
    book = make_book(env)
    done = {}

    def job(env, i, arrival, duration, then):
        yield env.timeout(arrival)
        yield from book(duration, then)
        done[i] = env.now

    for i, spec in enumerate(jobs):
        env.process(job(env, i, *spec))
    env.run()
    return done


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 4),
    jobs=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 60), st.integers(0, 20)),
        min_size=1,
        max_size=30,
    ),
)
def test_fifo_server_matches_resource_reference(capacity, jobs):
    """Differential check: one analytic hold completes exactly when the
    request -> timeout -> release path on a FIFO Resource does."""

    def resource_book(env):
        res = Resource(env, capacity=capacity)

        def book(duration, then):
            req = res.request()
            yield req
            yield env.timeout(duration)
            res.release(req)
            yield env.timeout(then)

        return book

    def fifo_book(env):
        server = FifoServer(env, capacity=capacity)

        def book(duration, then):
            yield server.hold(duration, then)

        return book

    assert _finish_times(jobs, fifo_book) == _finish_times(jobs, resource_book)


def test_fifo_server_booking_survives_interrupt():
    """A booked hold stays booked when its process is interrupted: the
    next job starts when the victim's service would have ended (a
    Resource slot would instead be freed at the interrupt)."""
    env = Environment()
    server = FifoServer(env, capacity=1)
    log = []

    def job(env, tag, duration):
        try:
            yield server.hold(duration)
            log.append((tag, env.now))
        except ProcessKilled:
            log.append((tag + "-killed", env.now))

    victim = env.process(job(env, "victim", 100))
    env.process(job(env, "next", 10))

    def killer(env):
        yield env.timeout(50)
        victim.interrupt()

    env.process(killer(env))
    env.run()
    assert log == [("victim-killed", 50), ("next", 110)]


def test_semaphore_tokens_flow():
    env = Environment()
    sem = Semaphore(env, tokens=2)
    acquired_at = []

    def taker(env, wid):
        yield sem.acquire()
        acquired_at.append((wid, env.now))

    for wid in range(4):
        env.process(taker(env, wid))

    def releaser(env):
        yield env.timeout(50)
        sem.release(2)

    env.process(releaser(env))
    env.run()
    assert acquired_at == [(0, 0), (1, 0), (2, 50), (3, 50)]
    assert sem.tokens == 0


def test_semaphore_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Semaphore(env, tokens=-1)
    sem = Semaphore(env, tokens=1)
    with pytest.raises(SimulationError):
        sem.release(0)


def test_resource_queue_len_reporting():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    res.request()
    res.request()
    assert res.count == 1
    assert res.queue_len == 2


def test_interrupted_waiter_does_not_leak_slot():
    """A process killed while queued must withdraw its claim; the next
    waiter gets the slot and capacity never leaks."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def hold(env, duration):
        req = res.request()
        yield req
        try:
            yield env.timeout(duration)
        finally:
            res.release(req)

    def holder(env):
        yield from hold(env, 100)
        order.append(("holder-done", env.now))

    def waiter(env, tag):
        try:
            yield from hold(env, 10)
            order.append((tag, env.now))
        except Exception:
            order.append((tag + "-killed", env.now))

    env.process(holder(env))
    victim = env.process(waiter(env, "victim"))
    env.process(waiter(env, "survivor"))

    def killer(env):
        yield env.timeout(50)
        victim.interrupt()

    env.process(killer(env))
    env.run()
    assert ("victim-killed", 50) in order
    assert ("survivor", 110) in order  # got the slot right after the holder
    assert res.count == 0 and res.queue_len == 0


def test_claim_granted_in_kill_ns_is_released():
    """The waiter is killed at t=10 after the holder's release granted it
    the slot, but before it resumed: the slot must not stay held."""
    env = Environment()
    res = Resource(env, capacity=1)
    claims = {}

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def waiter(env):
        claims["waiter"] = req = res.request()
        yield req
        res.release(req)  # never reached: killed before resuming

    def killer(env):
        # Two hops, so the t=10 wake-up is queued behind the holder's.
        yield env.timeout(5)
        yield env.timeout(5)
        assert claims["waiter"].triggered and not claims["waiter"].processed
        victim.interrupt()

    env.process(holder(env))
    victim = env.process(waiter(env))
    env.process(killer(env))
    env.run()
    assert not victim.ok and isinstance(victim.value, ProcessKilled)
    assert res.count == 0 and res.queue_len == 0
    again = res.request()
    assert again.triggered  # the full capacity is free again
