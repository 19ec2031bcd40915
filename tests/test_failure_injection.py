"""Failure-injection tests: cascading crashes, tiny rings, pool leaks."""

import pytest

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.faults import CRASH, Fault, FaultPlan
from repro.kernel.uapi import Segfault
from repro.world import World


def crash_after(n_calls, tag="crash"):
    def main(ctx):
        for i in range(n_calls):
            yield from ctx.time()
        raise Segfault(f"{tag} after {n_calls} calls")
        yield  # pragma: no cover

    return main


def healthy(n_calls=10):
    def main(ctx):
        values = []
        for _ in range(n_calls):
            values.append((yield from ctx.time()))
        fd = yield from ctx.open("/tmp/data")
        data = yield from ctx.read(fd, 32)
        yield from ctx.close(fd)
        return data

    return main


def run_session(specs, config=None):
    world = World()
    world.kernel.fs(world.server).create("/tmp/data", b"still-here")
    session = NvxSession(world, specs, config=config).start()
    world.run()
    return session, world


class TestCascadingCrashes:
    def test_leader_crashes_then_new_leader_crashes(self):
        session, _ = run_session([
            VersionSpec("crash0", crash_after(2, "first")),
            VersionSpec("crash1", crash_after(5, "second")),
            VersionSpec("survivor", healthy()),
        ])
        assert session.stats.promotions == 2
        assert len(session.stats.crashes) == 2
        survivor = session.variants[2]
        assert survivor.is_leader
        assert survivor.root_task.threads[0].result == b"still-here"

    def test_all_followers_crash_leader_continues(self):
        session, _ = run_session([
            VersionSpec("leader", healthy()),
            VersionSpec("f1", crash_after(1)),
            VersionSpec("f2", crash_after(3)),
        ])
        assert session.stats.promotions == 0
        assert len(session.stats.crashes) == 2
        assert session.variants[0].root_task.threads[0].result == \
            b"still-here"
        assert session.followers == []

    def test_leader_crash_with_no_followers_is_fatal_for_session(self):
        from repro.errors import FailoverError

        world = World()
        session = NvxSession(world,
                             [VersionSpec("only", crash_after(1))]).start()
        world.run()
        # The coordinator hit FailoverError: nobody left to promote.
        assert session.coordinator.exception is not None
        assert isinstance(session.coordinator.exception, FailoverError)

    def test_crash_during_payload_flight_does_not_leak_pool(self):
        def reader(ctx):
            fd = yield from ctx.open("/tmp/data")
            for _ in range(20):
                yield from ctx.syscall("pread", fd, 32, 0, nbytes=32)
            yield from ctx.close(fd)
            return "done"

        def crashing_reader(ctx):
            fd = yield from ctx.open("/tmp/data")
            for _ in range(3):
                yield from ctx.syscall("pread", fd, 32, 0, nbytes=32)
            raise Segfault("mid-stream")
            yield  # pragma: no cover

        session, _ = run_session([
            VersionSpec("leader", reader),
            VersionSpec("doomed", crashing_reader),
            VersionSpec("steady", reader),
        ])
        # All payload chunks eventually returned to their buckets.
        assert all(bucket.live_chunks == 0
                   for bucket in session.pool.buckets.values())


class TestTinyRing:
    def test_capacity_one_ring_still_correct(self):
        session, _ = run_session(
            [VersionSpec("a", healthy(5)), VersionSpec("b", healthy(5))],
            config=SessionConfig(ring_capacity=1))
        assert session.variants[0].root_task.threads[0].result == \
            session.variants[1].root_task.threads[0].result
        assert session.root_tuple.ring.stats.producer_stalls > 0

    def test_capacity_one_with_crashing_follower(self):
        session, _ = run_session(
            [VersionSpec("a", healthy(8)),
             VersionSpec("b", crash_after(2))],
            config=SessionConfig(ring_capacity=1))
        assert session.variants[0].root_task.threads[0].result == \
            b"still-here"


class TestFollowerLag:
    def test_slow_follower_throttles_leader_via_backpressure(self):
        def fast(ctx):
            for _ in range(600):
                yield from ctx.time()
            return "done"

        def slow(ctx):
            for _ in range(600):
                yield from ctx.time()
                yield from ctx.compute(4000)  # slower than the leader
            return "done"

        world = World()
        session = NvxSession(world, [VersionSpec("fast", fast),
                                     VersionSpec("slow", slow)],
                             config=SessionConfig(ring_capacity=16)).start()
        world.run()
        assert session.root_tuple.ring.stats.producer_stalls > 0
        assert session.variants[0].root_task.threads[0].result == "done"

    def test_divergent_follower_unblocks_stalled_leader(self):
        # The leader fills the ring; the follower then diverges fatally.
        # Unsubscribing it must release the leader.
        def leader(ctx):
            for _ in range(100):
                yield from ctx.time()
            return "finished"

        def follower(ctx):
            for _ in range(10):
                yield from ctx.time()
            yield from ctx.getuid()  # divergence
            return "never"

        world = World()
        session = NvxSession(world, [VersionSpec("l", leader),
                                     VersionSpec("f", follower)],
                             config=SessionConfig(ring_capacity=8)).start()
        world.run()
        assert session.variants[0].root_task.threads[0].result == \
            "finished"
        assert session.stats.fatal_divergences


def run_planned(specs, plan, ring_capacity=16):
    """Run ``specs`` under a seeded :class:`FaultPlan`."""
    world = World()
    world.kernel.fs(world.server).create("/tmp/data", b"still-here")
    config = SessionConfig(fault_plan=plan, ring_capacity=ring_capacity)
    session = NvxSession(world, specs, config=config).start()
    world.run()
    return session, world


class TestPromotionEdgeCases:
    """Crashes landing inside the failover machinery itself."""

    @staticmethod
    def _laggard_specs():
        def fast(ctx):
            for _ in range(30):
                yield from ctx.time()
            return "done"

        def slow(ctx):
            for _ in range(30):
                yield from ctx.time()
                yield from ctx.compute(200_000)  # deep consumer lag
            return "done"

        return [VersionSpec("lead", fast), VersionSpec("heir", slow),
                VersionSpec("spare", slow)]

    def test_follower_crash_during_in_flight_promotion(self):
        # Phase 1: crash only the leader; the slow heir is promoted with
        # a deep backlog to drain, so the window between "is_leader set"
        # and "await_promotion_complete ran" is wide.  Record when the
        # leader died.
        probe_plan = FaultPlan((Fault(CRASH, variant=0, at_syscall=20),))
        probe, _ = run_planned(self._laggard_specs(), probe_plan)
        assert probe.stats.promotions == 1
        leader_death_ps = probe.stats.crashes[0][2]

        # Phase 2: same workload, second crash shortly after the first —
        # the heir dies mid-drain, still holding its consumer cursor.
        # Before the stale-cursor fix this deadlocked: the spare's
        # publishes blocked forever behind the dead heir's cursor.
        plan = FaultPlan((Fault(CRASH, variant=0, at_syscall=20),
                          Fault(CRASH, variant=1,
                                at_ps=leader_death_ps + 2_000_000)))
        session, _ = run_planned(self._laggard_specs(), plan)
        assert session.stats.promotions == 2
        assert len(session.stats.crashes) == 2
        assert session.variants[2].is_leader
        assert session.variants[2].root_task.threads[0].result == "done"
        assert 1 not in session.root_tuple.ring.cursors

    def test_leader_crash_while_parked_in_producer_stall(self):
        # A capacity-2 ring and a slow follower park the leader in the
        # publish backpressure wait for most of the run.  Killing it
        # there must still promote cleanly: the follower drains what was
        # published, restarts through the leader path and finishes.
        def fast(ctx):
            for _ in range(30):
                yield from ctx.time()
            return "done"

        def slow(ctx):
            for _ in range(30):
                yield from ctx.time()
                yield from ctx.compute(200_000)
            return "done"

        specs = [VersionSpec("lead", fast), VersionSpec("heir", slow)]

        # Probe fault-free for the activity window: session setup eats
        # the early sim time, so time the crash at the window midpoint,
        # when the ring is full and the leader is parked.
        marks = []

        def probed(build):
            def main(ctx):
                marks.append(ctx.task.kernel.sim.now)
                return (yield from build(ctx))
            return main

        world = World()
        world.kernel.fs(world.server).create("/tmp/data", b"still-here")
        probe_specs = [VersionSpec(s.name, probed(s.main)) for s in specs]
        NvxSession(world, probe_specs,
                   config=SessionConfig(ring_capacity=2)).start()
        world.run()
        start, horizon = min(marks), world.sim.now

        plan = FaultPlan((Fault(CRASH, variant=0,
                                at_ps=(start + horizon) // 2),))
        session, _ = run_planned(specs, plan, ring_capacity=2)
        fired = [line for line in session.injector.log if "fired" in line]
        assert fired
        assert session.stats.promotions == 1
        assert session.variants[1].is_leader
        assert session.variants[1].root_task.threads[0].result == "done"
        assert 0 not in session.root_tuple.ring.cursors
