"""Tests for the DES synchronisation primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Barrier, Machine, Mutex, Simulator
from repro.sim.core import Compute, Sleep


def world(cores=8):
    sim = Simulator()
    return sim, Machine(sim, name="m")


class TestMutex:
    def test_mutual_exclusion(self):
        sim, machine = world()
        mutex = Mutex(sim)
        trace = []

        def worker(name):
            yield from mutex.acquire()
            trace.append(("enter", name, sim.now))
            yield Compute(1000)
            trace.append(("exit", name, sim.now))
            mutex.release()

        for name in "abc":
            machine.spawn(worker(name), name=name)
        sim.run()
        # Critical sections never overlap.
        intervals = []
        for i in range(0, len(trace), 2):
            assert trace[i][0] == "enter" and trace[i + 1][0] == "exit"
            intervals.append((trace[i][2], trace[i + 1][2]))
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    def test_fifo_ordering(self):
        sim, machine = world()
        mutex = Mutex(sim)
        order = []

        def worker(name, delay):
            yield Sleep(delay)
            yield from mutex.acquire()
            order.append(name)
            yield Compute(10_000)
            mutex.release()

        machine.spawn(worker("first", 0), name="f")
        machine.spawn(worker("second", 100), name="s")
        machine.spawn(worker("third", 200), name="t")
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_unlocked_rejected(self):
        sim, _ = world()
        mutex = Mutex(sim)
        with pytest.raises(SimulationError):
            mutex.release()


class TestBarrier:
    def test_all_parties_released_together(self):
        sim, machine = world()
        barrier = Barrier(sim, parties=3)
        releases = []

        def worker(delay):
            yield Sleep(delay)
            yield from barrier.arrive()
            releases.append(sim.now)

        for delay in (100, 500, 900):
            machine.spawn(worker(delay), name=f"w{delay}")
        sim.run()
        assert len(releases) == 3
        assert max(releases) - min(releases) == 0  # same timestamp

    def test_generation_increments_per_round(self):
        sim, machine = world()
        barrier = Barrier(sim, parties=2)

        def worker():
            for _ in range(3):
                yield from barrier.arrive()

        machine.spawn(worker(), name="a")
        machine.spawn(worker(), name="b")
        sim.run()
        assert barrier.generation == 3

    def test_zero_parties_rejected(self):
        sim, _ = world()
        with pytest.raises(SimulationError):
            Barrier(sim, parties=0)
