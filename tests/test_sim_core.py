"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.errors import DeadlockError, ProcessKilled, SimulationError
from repro.sim import (
    TIMEOUT,
    Block,
    Compute,
    Machine,
    Simulator,
    Sleep,
    WaitQueue,
)


def world(cores=8):
    sim = Simulator()
    machine = Machine(sim, name="m0")
    machine.spec = machine.spec.__class__(logical_cores=cores,
                                          physical_cores=max(1, cores // 2))
    machine.free_cores = cores
    return sim, machine


class TestClock:
    def test_time_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0

    def test_schedule_advances_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.schedule(50, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50, 100]

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(10, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append(1))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_run_until_pauses_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(1))
        sim.run(until_ps=50)
        assert sim.now == 50 and seen == []
        sim.run()
        assert seen == [1] and sim.now == 100


def _staged(sim):
    """A small fixed program with events straddling t=500."""
    machine = Machine(sim, name="m0")
    log = []

    def worker():
        for step in range(6):
            log.append((sim.now, step))
            yield Sleep(200)

    machine.spawn(worker(), name="w", daemon=True)
    return log


class TestRunEdges:
    def test_until_ps_pause_and_resume(self):
        straight = Simulator()
        straight_log = _staged(straight)
        straight.run()

        sim = Simulator()
        log = _staged(sim)
        sim.run(until_ps=500)
        assert sim.now == 500  # clock parked exactly at the deadline
        assert log == [(0, 0), (200, 1), (400, 2)]
        sim.run()
        assert (log, sim.now, sim.events_processed) == (
            straight_log, straight.now, straight.events_processed)

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        seen = []
        sim.schedule(50, lambda: seen.append(sim.now))
        sim.run(until_ps=40)
        with pytest.raises(SimulationError, match="20.*40"):
            sim.run(until_ps=20)
        assert sim.now == 40 and seen == []
        sim.run(until_ps=40)  # same horizon again: nothing to do
        assert sim.now == 40 and seen == [] and sim.events_processed == 0
        sim.run()
        assert seen == [50]

    def test_max_events_stops_after_exactly_n(self):
        sim = Simulator()

        def tick():
            sim.schedule(10, tick)

        tick()
        with pytest.raises(SimulationError, match="max_events=100"):
            sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_events_processed_excludes_cancelled(self):
        sim = Simulator()
        fired = []
        for i in range(500):
            handle = sim.schedule(100 + i, lambda i=i: fired.append(i))
            if i % 3:
                handle.cancel()
        sim.run()
        assert fired == list(range(0, 500, 3))
        assert sim.events_processed == len(fired)


class TestCompute:
    def test_compute_advances_process_time(self):
        sim, m = world()

        def main():
            yield Compute(1000)
            yield Compute(500)
            return sim.now

        proc = m.spawn(main(), name="p")
        sim.run()
        assert proc.done and proc.result == 1500
        assert proc.cpu_ps == 1500

    def test_sequential_on_single_core(self):
        sim, m = world(cores=1)
        finished = {}

        def main(name):
            yield Compute(1000)
            finished[name] = sim.now

        m.spawn(main("a"), name="a")
        m.spawn(main("b"), name="b")
        sim.run()
        # One core runs the two computes one after the other; "a" queues
        # behind "b" at its completion, so both resume at 2000.
        assert finished == {"a": 2000, "b": 2000}
        assert sim.now == 2000

    def test_parallel_on_two_cores(self):
        sim, m = world(cores=2)
        finished = {}

        def main(name):
            yield Compute(1000)
            finished[name] = sim.now

        m.spawn(main("a"), name="a")
        m.spawn(main("b"), name="b")
        sim.run()
        assert finished == {"a": 1000, "b": 1000}

    def test_preemptible_round_robin_shares_core(self):
        sim, m = world(cores=1)
        order = []

        def main(name):
            for _ in range(3):
                yield Compute(100)
                order.append(name)

        m.spawn(main("a"), name="a")
        m.spawn(main("b"), name="b")
        sim.run()
        # Interleaved, not a,a,a,b,b,b.
        assert order[:4] == ["a", "b", "a", "b"]


class TestSleepAndBlock:
    def test_sleep_releases_core(self):
        sim, m = world(cores=1)
        seen = []

        def sleeper():
            yield Sleep(1000)
            seen.append(("sleeper", sim.now))

        def worker():
            yield Compute(200)
            seen.append(("worker", sim.now))

        m.spawn(sleeper(), name="s")
        m.spawn(worker(), name="w")
        sim.run()
        assert ("worker", 200) in seen
        assert ("sleeper", 1000) in seen

    def test_block_and_wake_value(self):
        sim, m = world()

        def waiter():
            value = yield Block()
            return value

        proc = m.spawn(waiter(), name="w")

        def waker():
            yield Compute(500)
            proc.wake("hello")

        m.spawn(waker(), name="k")
        sim.run()
        assert proc.result == "hello"

    def test_block_timeout_delivers_sentinel(self):
        sim, m = world()

        def waiter():
            value = yield Block(timeout_ps=700)
            return (value is TIMEOUT, sim.now)

        proc = m.spawn(waiter(), name="w")
        sim.run()
        assert proc.result == (True, 700)

    def test_spin_block_occupies_core(self):
        sim, m = world(cores=1)
        seen = []

        def spinner():
            value = yield Block(spin=True, timeout_ps=1000)
            seen.append(("spin", sim.now, value is TIMEOUT))

        def worker():
            yield Compute(100)
            seen.append(("work", sim.now))

        m.spawn(spinner(), name="s")
        m.spawn(worker(), name="w")
        sim.run()
        # The spinner holds the only core; the worker runs after timeout.
        assert seen[0] == ("spin", 1000, True)
        assert seen[1][0] == "work" and seen[1][1] >= 1000

    def test_deadlock_detection(self):
        sim, m = world()

        def stuck():
            yield Block()

        m.spawn(stuck(), name="z")
        with pytest.raises(DeadlockError):
            sim.run()

    def test_daemon_does_not_trip_deadlock(self):
        sim, m = world()

        def stuck():
            yield Block()

        m.spawn(stuck(), name="z", daemon=True)
        sim.run()  # no exception


class TestLifecycle:
    def test_result_and_exception(self):
        sim, m = world()

        def ok():
            yield Compute(10)
            return 42

        def boom():
            yield Compute(10)
            raise ValueError("boom")

        p1 = m.spawn(ok(), name="ok")
        p2 = m.spawn(boom(), name="boom")
        sim.run()
        assert p1.result == 42 and p1.exception is None
        assert isinstance(p2.exception, ValueError)

    def test_double_start_rejected(self):
        sim, m = world()

        def main():
            yield Compute(1)

        proc = m.spawn(main(), name="p")
        with pytest.raises(SimulationError):
            proc.start()
        sim.run()

    def test_kill_blocked_process(self):
        sim, m = world()

        def stuck():
            try:
                yield Block()
            except ProcessKilled:
                return "killed"

        proc = m.spawn(stuck(), name="z")

        def killer():
            yield Compute(100)
            proc.kill()

        m.spawn(killer(), name="k")
        sim.run()
        assert proc.result == "killed"

    def test_interrupt_mid_compute(self):
        sim, m = world()

        def busy():
            try:
                yield Compute(10_000)
            except RuntimeError:
                return sim.now

        proc = m.spawn(busy(), name="b")

        def interrupter():
            yield Compute(2_000)
            proc.interrupt(RuntimeError("sig"))

        m.spawn(interrupter(), name="i")
        sim.run()
        assert proc.result == 2_000

    def test_on_done_fires_after_completion_too(self):
        sim, m = world()

        def main():
            yield Compute(10)

        proc = m.spawn(main(), name="p")
        sim.run()
        seen = []
        proc.on_done(lambda p: seen.append(p.name))
        assert seen == ["p"]

    def test_core_accounting_never_overflows(self):
        sim, m = world(cores=2)

        def main():
            yield Compute(50)
            yield Sleep(50)
            yield Compute(50)

        for i in range(6):
            m.spawn(main(), name=f"p{i}")
        sim.run()
        assert m.free_cores == m.spec.logical_cores


class TestWaitQueueEdge:
    def test_notify_skips_timed_out_waiter(self):
        sim, m = world()
        queue = WaitQueue(sim)
        results = {}

        def waiter(name, timeout):
            value = yield from queue.wait(timeout_ps=timeout)
            results[name] = value

        m.spawn(waiter("fast", 100), name="fast")
        m.spawn(waiter("slow", None), name="slow")

        def notifier():
            yield Sleep(500)
            queue.notify()

        m.spawn(notifier(), name="n")
        sim.run()
        assert results["fast"] is TIMEOUT
        assert "slow" in results and results["slow"] is None
