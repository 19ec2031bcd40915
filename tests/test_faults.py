"""Tests for the fault-injection plane and the invariant checker."""

import random

import pytest

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.errors import DeadlockError, NvxError, StallError
from repro.faults import (
    BITFLIP,
    CORRUPT_SLOT,
    CRASH,
    LOSS_PROBABILITY,
    PARTITION,
    RETRANSMIT_PS,
    STALL,
    TORN_WRITE,
    Fault,
    FaultPlan,
    InvariantChecker,
    NetworkFaults,
)
from repro.faults.chaos import (
    HORIZON_FACTOR,
    run_chaos,
    run_plan,
    run_workload,
)
from repro.sim import Sleep
from repro.world import World


def reader(n_reads=6):
    def main(ctx):
        parts = []
        fd = yield from ctx.open("/tmp/data")
        for i in range(n_reads):
            parts.append((yield from ctx.pread(fd, 8, i)))
        yield from ctx.close(fd)
        return b"".join(parts)

    return main


def run_faulted(specs, plan, ring_capacity=16, checker=None):
    world = World()
    world.kernel.fs(world.server).create("/tmp/data", b"0123456789abcdef")
    config = SessionConfig(fault_plan=plan, ring_capacity=ring_capacity,
                           invariants=checker)
    session = NvxSession(world, specs, config=config).start()
    world.run()
    return session, world


def activity_window(specs, ring_capacity=16):
    """Run ``specs`` fault-free; return (first_syscall_ps, horizon_ps).

    Session setup occupies the early sim time and ring tuples appear
    lazily, so timed faults must be aimed inside the window where the
    workload actually dispatches system calls.
    """
    marks = []

    def wrap(main):
        def wrapped(ctx):
            marks.append(ctx.task.kernel.sim.now)
            return (yield from main(ctx))
        return wrapped

    probe = [VersionSpec(s.name, wrap(s.main)) for s in specs]
    _session, world = run_faulted(probe, None, ring_capacity=ring_capacity)
    return min(marks), world.sim.now


# ===========================================================================
# FaultPlan: plain data, seed-determined, validated
# ===========================================================================

class TestFaultPlan:
    def test_same_seed_same_plan(self):
        plans = [FaultPlan.random(random.Random(99), 3, 10**9)
                 for _ in range(2)]
        assert plans[0] == plans[1]
        assert plans[0].describe() == plans[1].describe()

    def test_different_seeds_differ(self):
        a = FaultPlan.random(random.Random(1), 3, 10**9)
        b = FaultPlan.random(random.Random(2), 3, 10**9)
        assert a.describe() != b.describe()

    def test_random_plan_keeps_a_survivor(self):
        for seed in range(200):
            plan = FaultPlan.random(random.Random(seed), 2, 10**8)
            crashed = [f for f in plan.faults if f.kind == CRASH]
            assert len(crashed) <= 1  # of 2 variants, one always survives

    def test_unknown_kind_rejected(self):
        with pytest.raises(NvxError):
            Fault("meteor", at_ps=1)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(NvxError):
            Fault(CRASH, variant=0)  # neither
        with pytest.raises(NvxError):
            Fault(CRASH, variant=0, at_ps=1, at_syscall=1)  # both

    def test_syscall_trigger_only_for_variant_faults(self):
        with pytest.raises(NvxError):
            Fault(CORRUPT_SLOT, at_syscall=3)

    @pytest.mark.parametrize("kind, fields, name", [
        (BITFLIP, {"variant": 0, "at_ps": 1, "bit": 9}, "bit"),
        (BITFLIP, {"variant": 0, "at_ps": 1, "bit": -1}, "bit"),
        (BITFLIP, {"variant": 0, "at_ps": 1, "addr": -8}, "addr"),
        (CRASH, {"variant": -7, "at_ps": 10}, "variant"),
        (CRASH, {"variant": True, "at_ps": 10}, "variant"),
        (CRASH, {"variant": 0, "at_syscall": 0}, "at_syscall"),
        (CRASH, {"variant": 0, "at_ps": -1}, "at_ps"),
        (CRASH, {"variant": 0, "at_ps": 2.5}, "at_ps"),
        (STALL, {"variant": 0, "at_syscall": 1, "stall_cycles": -5},
         "stall_cycles"),
        (STALL, {"variant": 0, "at_syscall": 1, "duration_ps": -1},
         "duration_ps"),
        (PARTITION, {"at_ps": 1, "duration_ps": "10"}, "duration_ps"),
        (CORRUPT_SLOT, {"at_ps": 1, "slot_offset": -1}, "slot_offset"),
    ], ids=["bit_9", "bit_negative", "addr_negative", "variant_-7",
            "variant_bool", "at_syscall_0", "at_ps_negative", "at_ps_float",
            "stall_cycles_negative", "duration_ps_negative",
            "duration_ps_str", "slot_offset_negative"])
    def test_out_of_range_field_rejected(self, kind, fields, name):
        with pytest.raises(NvxError, match=f" {name} must be an int"):
            Fault(kind, **fields)

    def test_range_edges_accepted(self):
        assert Fault(BITFLIP, variant=-1, at_ps=0, bit=7,
                     addr=0).describe() == "bitflip[t=0 leader addr=0x0 bit=7]"
        assert Fault(CRASH, variant=0, at_syscall=1).describe() == \
            "crash[sys=1 v0]"

    @pytest.mark.parametrize("faults", [("crash",), [], (None,)],
                             ids=["str_member", "list", "none_member"])
    def test_plan_needs_a_tuple_of_faults(self, faults):
        with pytest.raises(NvxError, match="FaultPlan.faults"):
            FaultPlan(faults)

    def test_describe_is_canonical(self):
        fault = Fault(STALL, variant=1, at_syscall=4,
                      stall_cycles=100, duration_ps=2000)
        assert fault.describe() == "stall[sys=4 v1 stall=100c/2000ps]"
        assert FaultPlan().describe() == "(no faults)"


# ===========================================================================
# Crash injection
# ===========================================================================

class TestCrashInjection:
    def test_syscall_index_crash_drops_follower(self):
        plan = FaultPlan((Fault(CRASH, variant=1, at_syscall=3),))
        session, _ = run_faulted(
            [VersionSpec("lead", reader()), VersionSpec("dies", reader()),
             VersionSpec("lives", reader())], plan)
        assert not session.variants[1].alive
        assert session.variants[0].is_leader
        assert (session.variants[0].root_task.threads[0].result
                == session.variants[2].root_task.threads[0].result)
        assert any("fired in" in line for line in session.injector.log)

    def test_timed_leader_crash_promotes_follower(self):
        specs = [VersionSpec("lead", reader(20)),
                 VersionSpec("heir", reader(20))]
        start, horizon = activity_window(specs)
        plan = FaultPlan((Fault(CRASH, variant=0,
                                at_ps=(start + horizon) // 2),))
        session, _ = run_faulted(specs, plan)
        assert not session.variants[0].alive
        assert session.variants[1].is_leader
        assert session.stats.promotions == 1
        assert session.variants[1].root_task.threads[0].result is not None

    def test_crash_while_parked_in_ring_wait(self):
        # The leader naps mid-stream; the follower drains the backlog and
        # parks in the ring wait.  Killing it there must drop it cleanly
        # (cursor removed, no deadlock), not strand the leader.
        def napping_leader(ctx):
            for _ in range(3):
                yield from ctx.time()
            yield from ctx.nanosleep(80_000_000)
            for _ in range(3):
                yield from ctx.time()
            return "done"

        specs = [VersionSpec("lead", napping_leader),
                 VersionSpec("parked", napping_leader)]
        start, _horizon = activity_window(specs)
        # Mid-nap: the follower has drained the pre-nap backlog and is
        # parked waiting for the leader's next publish.
        plan = FaultPlan((Fault(CRASH, variant=1,
                                at_ps=start + 40_000_000),))
        session, _ = run_faulted(specs, plan)
        fired = [line for line in session.injector.log if "fired" in line]
        assert fired and "blocked" in fired[0]
        assert not session.variants[1].alive
        assert session.variants[0].root_task.threads[0].result == "done"
        assert 1 not in session.root_tuple.ring.cursors

    def test_crash_of_dead_variant_is_skipped(self):
        specs = [VersionSpec("lead", reader()), VersionSpec("dies", reader())]
        _start, horizon = activity_window(specs)
        plan = FaultPlan((Fault(CRASH, variant=1, at_syscall=2),
                          Fault(CRASH, variant=1, at_ps=horizon * 2)))
        session, _ = run_faulted(specs, plan)
        assert any("skipped" in line for line in session.injector.log)


# ===========================================================================
# Ring damage: surfaced as a diagnostic, never a hang
# ===========================================================================

class TestRingDamage:
    def laggard_specs(self):
        def fast(ctx):
            for _ in range(24):
                yield from ctx.time()
            return "done"

        def slow(ctx):
            for _ in range(24):
                yield from ctx.time()
                yield from ctx.compute(60_000)
            return "done"

        return [VersionSpec("fast", fast), VersionSpec("slow", slow)]

    def test_slot_corruption_surfaces_as_nvx_error(self):
        # 4-slot ring, laggy follower: the window of pending slots stays
        # full, so the injected corruption lands on a slot the follower
        # still has to consume.  It must be reported and the follower
        # dropped — the session may not hang or silently misreplay.
        specs = self.laggard_specs()
        start, horizon = activity_window(specs, ring_capacity=4)
        plan = FaultPlan((Fault(CORRUPT_SLOT, at_ps=(start + horizon) // 2,
                                ring=0, slot_offset=1),))
        session, _ = run_faulted(specs, plan, ring_capacity=4)
        assert any("poisoned" in line for line in session.injector.log)
        assert session.stats.ring_faults
        name, message, _ps = session.stats.ring_faults[0]
        assert "slow" in name
        assert "slot corruption" in message
        assert not session.variants[1].alive
        assert session.variants[0].root_task.threads[0].result == "done"

    def test_torn_write_caught_by_seal(self):
        specs = self.laggard_specs()
        start, horizon = activity_window(specs, ring_capacity=4)
        plan = FaultPlan((Fault(TORN_WRITE, at_ps=(start + horizon) // 2,
                                ring=0, slot_offset=0),))
        session, _ = run_faulted(specs, plan, ring_capacity=4)
        assert session.stats.ring_faults
        assert "torn write" in session.stats.ring_faults[0][1]
        assert session.variants[0].root_task.threads[0].result == "done"

    def test_corruption_with_empty_ring_is_skipped(self):
        plan = FaultPlan((Fault(CORRUPT_SLOT, at_ps=1, ring=0),))
        session, _ = run_faulted(self.laggard_specs(), plan)
        assert any("skipped" in line for line in session.injector.log)
        assert session.variants[1].alive


# ===========================================================================
# Stalls and bitflips
# ===========================================================================

class TestStallAndBitflip:
    def test_stall_slows_but_preserves_outputs(self):
        plan = FaultPlan((Fault(STALL, variant=1, at_syscall=2,
                                stall_cycles=40_000,
                                duration_ps=50_000_000),))
        session, world = run_faulted(
            [VersionSpec("lead", reader(10)), VersionSpec("late", reader(10))],
            plan)
        base_session, base_world = run_faulted(
            [VersionSpec("lead", reader(10)), VersionSpec("late", reader(10))],
            None)
        assert any("window opened" in line for line in session.injector.log)
        assert (session.variants[1].root_task.threads[0].result
                == base_session.variants[1].root_task.threads[0].result)
        assert world.sim.now > base_world.sim.now  # the stall cost sim time

    def test_bitflip_without_guest_image_is_skipped(self):
        plan = FaultPlan((Fault(BITFLIP, variant=1, at_ps=10_000_000,
                                addr=0x100, bit=3),))
        session, _ = run_faulted(
            [VersionSpec("lead", reader()), VersionSpec("plain", reader())],
            plan)
        assert any("no guest image" in line for line in session.injector.log)


# ===========================================================================
# Network faults: delay, never drop
# ===========================================================================

class TestNetworkFaults:
    def test_partition_holds_and_redelivers(self):
        net = NetworkFaults(partitions=[(100, 200)], loss_windows=[])
        # Inside the window: held until heal + full transit.
        assert net.adjust(now=150, arrival=160) == 210
        assert net.messages_held == 1
        # Outside the window: untouched.
        assert net.adjust(now=250, arrival=260) == 260

    def test_loss_window_delays_by_retransmit(self):
        net = NetworkFaults(partitions=[], loss_windows=[(0, 10**9)])
        arrivals = [net.adjust(now=t, arrival=t + 10)
                    for t in range(0, 1000, 10)]
        delayed = [a for t, a in zip(range(0, 1000, 10), arrivals)
                   if a != t + 10]
        assert delayed  # some messages lost...
        assert len(delayed) < len(arrivals)  # ...but not all
        for t, a in zip(range(0, 1000, 10), arrivals):
            assert a in (t + 10, t + 10 + RETRANSMIT_PS)  # never dropped
        assert 0.0 < LOSS_PROBABILITY < 1.0

    def test_same_seed_same_losses(self):
        a = NetworkFaults([], [(0, 10**6)])
        b = NetworkFaults([], [(0, 10**6)])
        seq_a = [a.adjust(now=i, arrival=i + 5) for i in range(50)]
        seq_b = [b.adjust(now=i, arrival=i + 5) for i in range(50)]
        assert seq_a == seq_b


# ===========================================================================
# InvariantChecker unit behaviour
# ===========================================================================

class _FakeRing:
    name = "fake0"
    tracer = None
    sim = None


class _FakeEvent:
    def __init__(self, seq, clock):
        self.seq = seq
        self.clock = clock


class TestInvariantChecker:
    def test_dense_publishes_pass(self):
        checker = InvariantChecker(roundtrip_every=10**9)
        ring = _FakeRing()
        for i in range(5):
            checker.on_publish(ring, _FakeEvent(seq=i, clock=i + 1))
        assert checker.violations == []
        assert checker.events_checked == 5

    def test_seq_gap_is_a_violation(self):
        checker = InvariantChecker(roundtrip_every=10**9)
        ring = _FakeRing()
        checker.on_publish(ring, _FakeEvent(seq=0, clock=1))
        checker.on_publish(ring, _FakeEvent(seq=2, clock=2))
        assert any("non-monotonic" in v for v in checker.violations)

    def test_clock_gap_means_dropped_event(self):
        checker = InvariantChecker(roundtrip_every=10**9)
        ring = _FakeRing()
        checker.on_publish(ring, _FakeEvent(seq=0, clock=1))
        checker.on_publish(ring, _FakeEvent(seq=1, clock=3))
        assert any("dropped or duplicated" in v for v in checker.violations)

    def test_consume_gap_is_a_violation(self):
        checker = InvariantChecker()
        ring = _FakeRing()
        checker.on_consume(ring, 1, _FakeEvent(seq=0, clock=1))
        checker.on_consume(ring, 1, _FakeEvent(seq=2, clock=3))
        assert any("consumer 1" in v for v in checker.violations)
        # An independent consumer keeps its own lane.
        checker2 = InvariantChecker()
        checker2.on_consume(ring, 1, _FakeEvent(seq=0, clock=1))
        checker2.on_consume(ring, 2, _FakeEvent(seq=5, clock=6))
        assert checker2.violations == []

    def test_roundtrip_checks_real_events(self):
        from repro.core.events import syscall_event

        checker = InvariantChecker(roundtrip_every=1)
        ring = _FakeRing()
        event = syscall_event("pread", 0, 1, 42, args=(3, 8, 0))
        event.seq = 0
        checker.on_publish(ring, event)
        assert checker.roundtrips_checked == 1
        assert checker.violations == []

    def test_lockstep_hook_flags_escaped_mixed_round(self):
        checker = InvariantChecker()
        checker.on_lockstep_round("p", 1, ["read", "read"])
        assert checker.violations == []
        checker.on_lockstep_round("p", 2, ["read", "write"], caught=True)
        assert checker.violations == []  # the monitor caught it: conformant
        checker.on_lockstep_round("p", 3, ["read", "write"])
        assert len(checker.violations) == 1
        assert "escaped" in checker.violations[0]

    def test_final_check_flags_starved_consumer(self):
        class _Ring:
            name = "r0"
            head = 10
            cursors = {1: 10, 2: 7}

        class _Tuple:
            ring = _Ring()

        class _Variant:
            alive = True

        class _Session:
            leader = _Variant()
            variants = [_Variant()]
            tuples = [_Tuple()]

        checker = InvariantChecker()
        checker.attach_session(_Session())
        violations = checker.final_check()
        assert len(violations) == 1
        assert "3 events behind" in violations[0]

    def test_summary_format(self):
        checker = InvariantChecker()
        assert checker.summary() == ("invariants: 0 publishes, 0 consumes, "
                                     "0 roundtrips, 0 violations")


# ===========================================================================
# End-to-end: sessions under plans keep the invariants green
# ===========================================================================

class TestSessionInvariants:
    def test_fault_free_session_is_conformant(self):
        checker = InvariantChecker(roundtrip_every=1)
        session, _ = run_faulted(
            [VersionSpec("a", reader()), VersionSpec("b", reader())],
            None, checker=checker)
        assert checker.final_check() == []
        assert checker.events_checked > 0
        assert checker.roundtrips_checked == checker.events_checked

    def test_faulted_session_stays_conformant(self):
        # Even with a crash + failover, the checker must see zero
        # violations: failover drops no events and corrupts no streams.
        specs = [VersionSpec("a", reader(15)), VersionSpec("b", reader(15)),
                 VersionSpec("c", reader(15))]
        start, horizon = activity_window(specs)
        checker = InvariantChecker(roundtrip_every=1)
        plan = FaultPlan((Fault(CRASH, variant=0,
                                at_ps=(start + horizon) // 2),))
        session, _ = run_faulted(specs, plan, checker=checker)
        assert session.stats.promotions == 1
        assert checker.final_check() == []

    def test_metrics_expose_invariant_counters(self):
        session, _ = run_faulted(
            [VersionSpec("a", reader()), VersionSpec("b", reader())], None)
        snapshot = session.metrics_snapshot()
        counters = dict(snapshot["counters"])
        assert counters.get("invariant.checks", 0) > 0
        assert counters.get("invariant.violations", 1) == 0


# ===========================================================================
# Chaos runs: deterministic, self-checking
# ===========================================================================

class TestChaosDeterminism:
    def test_one_plan_is_deterministic_and_green(self):
        lines_a, mism_a, viol_a = run_plan(3, 0)
        lines_b, mism_b, viol_b = run_plan(3, 0)
        assert lines_a == lines_b
        assert (mism_a, viol_a) == (0, 0)
        assert (mism_b, viol_b) == (0, 0)

    @pytest.mark.slow
    def test_chaos_journal_byte_identical(self):
        journal_a, failures_a = run_chaos(11, 4)
        journal_b, failures_b = run_chaos(11, 4)
        assert journal_a == journal_b
        assert failures_a == 0 and failures_b == 0
        assert journal_a.endswith("0 output mismatches, "
                                  "0 invariant violations\n")



class TestEntryPoints:
    def test_plans_below_one_is_rejected_naming_the_flag(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["chaos", "--plans", "-3"])
        assert exit_info.value.code == 2
        assert "argument --plans: must be >= 1" in capsys.readouterr().err

    def test_unknown_placement_raises_naming_it(self):
        with pytest.raises(NvxError, match="'bogus'"):
            run_chaos(7, 2, placement="bogus")


class TestBoundedFaultedRun:
    HORIZON = 10_000_000
    BOUND = HORIZON_FACTOR * HORIZON

    def _run(self, daemon):
        def build(_outputs):
            def main(ctx):
                def tick():
                    while True:
                        yield Sleep(1_000_000)

                ctx.task.machine.spawn(tick(), name="ticker", daemon=daemon)
                yield from ctx.getuid()
            return main

        _session, world, _outputs, failure = run_workload(
            build, b"", 2, None, InvariantChecker(), horizon=self.HORIZON)
        assert world.sim.now == self.BOUND
        return world, failure

    def test_a_live_non_daemon_comes_back_as_a_stall_naming_it(self):
        world, failure = self._run(daemon=False)
        assert isinstance(failure, StallError)
        assert not isinstance(failure, DeadlockError)
        assert [p.name for p in world.sim.blocked()] == ["ticker"] * 2
        assert (f"now={self.BOUND}ps, bound {self.BOUND}ps = 64 x baseline "
                f"horizon 10000000ps: ticker, ticker") in str(failure)

    def test_a_live_daemon_is_not_a_stall(self):
        world, failure = self._run(daemon=True)
        assert failure is None and world.sim.blocked() == []
