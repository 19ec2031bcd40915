"""Tests for the prior-work baselines: ptrace lockstep and Scribe."""

from repro.core.coordinator import VersionSpec
from repro.costmodel import DEFAULT_COSTS, SEC_PS, cycles
from repro.errors import DivergenceError
from repro.kernel.task import PATCH_INT
from repro.kernel.uapi import O_RDWR
from repro.nvx import LockstepSession, ScribeSession
from repro.world import World


def simple_app(tag):
    def main(ctx):
        fd = yield from ctx.open("/dev/null", O_RDWR)
        total = 0
        for _ in range(5):
            total += (yield from ctx.write(fd, b"x" * 100))
        data = yield from ctx.read(fd, 100)
        yield from ctx.close(fd)
        return (tag, total, data)

    return main


class TestLockstep:
    def test_versions_agree_on_results(self):
        world = World()
        session = LockstepSession(
            world, [VersionSpec("a", simple_app("a")),
                    VersionSpec("b", simple_app("b"))]).start()
        world.run()
        results = [t.threads[0].result for t in session.tasks]
        assert results[0][1] == results[1][1] == 500

    def test_lockstep_is_slower_than_native(self):
        def run_once(monitored):
            world = World()
            if monitored:
                LockstepSession(world,
                                [VersionSpec("a", simple_app("a")),
                                 VersionSpec("b", simple_app("b"))]).start()
            else:
                world.spawn(simple_app("solo"), name="solo")
            world.run()
            return world.now

        native = run_once(False)
        lockstep = run_once(True)
        # Two ptrace stops per call with context switches: much slower.
        assert lockstep > 3 * native

    def test_divergence_is_fatal(self):
        def deviant(ctx):
            yield from ctx.getuid()  # different first syscall
            return "deviant"

        world = World()
        session = LockstepSession(
            world, [VersionSpec("a", simple_app("a")),
                    VersionSpec("d", deviant)]).start()
        world.run(until_ps=SEC_PS)
        assert session.divergence is not None
        failures = [t.threads[0].exception for t in session.tasks]
        assert any(isinstance(e, DivergenceError) for e in failures)

    def test_vdso_calls_invisible_to_ptrace(self):
        # Virtual syscalls execute natively in each version — the
        # §3.2.1 limitation: results may differ across versions.
        def timed(ctx):
            yield from ctx.nanosleep(1_000_000)
            return (yield from ctx.syscall("time")).retval

        world = World()
        session = LockstepSession(
            world, [VersionSpec("a", timed), VersionSpec("b", timed)],
        ).start()
        world.run()
        assert session.stats_syscalls > 0
        # nanosleep went through the monitor, time did not.
        assert all(t.threads[0].result is not None
                   for t in session.tasks)

    def test_monitor_serialises_stops(self):
        world = World()
        session = LockstepSession(
            world, [VersionSpec("a", simple_app("a")),
                    VersionSpec("b", simple_app("b"))]).start()
        world.run()
        # Every syscall from every version passed two stops through the
        # centralized monitor.
        assert session.stats_stops == 2 * session.stats_syscalls

    def test_gate_charges_no_interception(self):
        # ptrace traps instead of rewriting: the gate's per-site charge
        # must be zero, for trapped calls and for the vDSO calls that
        # never reach the monitor.
        def trapped(ctx):
            yield from ctx.getuid(site="hot")

        def virtual(ctx):
            yield from ctx.time()

        native = DEFAULT_COSTS.syscalls.native
        for app, stops, call in ((trapped, 2, "getuid"),
                                 (virtual, 0, "time")):
            world = World()
            session = LockstepSession(
                world, [VersionSpec("a", app), VersionSpec("b", app)])
            session.start()
            for task in session.tasks:
                task.gate.patch_kinds = {"hot": PATCH_INT}
            world.run()
            executor = session.tasks[0].threads[0]
            assert executor.cpu_ps == (
                stops * cycles(session._stop_overhead)
                + cycles(native(call)))
            if not stops:
                assert world.now == cycles(native(call))


class TestScribe:
    def test_gate_charges_no_interception(self):
        def app(ctx):
            yield from ctx.getuid(site="hot")
            yield from ctx.time()

        world = World()
        session = ScribeSession(world, [VersionSpec("a", app)]).start()
        session.tasks[0].gate.patch_kinds = {"hot": PATCH_INT}
        world.run()
        costs = DEFAULT_COSTS
        expected = sum(cycles(costs.syscalls.native(call))
                       + cycles(costs.scribe.per_event)
                       for call in ("getuid", "time"))
        assert session.tasks[0].threads[0].cpu_ps == world.now == expected

    def test_recording_overhead_charged(self):
        def run_once(monitored):
            world = World()
            if monitored:
                session = ScribeSession(
                    world, [VersionSpec("a", simple_app("a"))]).start()
            else:
                session = None
                world.spawn(simple_app("solo"), name="solo")
            world.run()
            return world.now, session

        native, _ = run_once(False)
        scribe, session = run_once(True)
        assert scribe > native
        assert session.events_recorded == 8  # open+5 writes+read+close

    def test_results_unchanged_by_recording(self):
        world = World()
        session = ScribeSession(
            world, [VersionSpec("a", simple_app("a"))]).start()
        world.run()
        assert session.tasks[0].threads[0].result[1] == 500
