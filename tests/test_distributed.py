"""Distributed NVX integration: remote followers over the networked
transport, cross-machine failover under whole-machine crash and
partition, and the transport-equivalence property — a session on the
local shared-memory ring and one on the networked ring with all network
costs zeroed must produce identical divergence outcomes and final
application state for any seed."""

import random
from dataclasses import replace

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import VersionSpec
from repro.core.config import SessionConfig
from repro.costmodel import DEFAULT_COSTS, NetworkSpec, US_PS
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import (
    CRASH,
    MACHINE_CRASH,
    PARTITION,
    Fault,
    FaultPlan,
)
from repro.kernel.uapi import O_CREAT, O_WRONLY
from repro.world import World

MACHINES = ("server", "client", "replica1", "replica2")
DATA = bytes((i * 37) & 0xFF for i in range(2048))

#: Network costs zeroed: frames and acks still flow through the full
#: NetRing protocol, they just take no virtual time (the coalescing
#: window, two thirds of the link latency, is zero too) — so any outcome
#: difference against the local transport is a protocol bug, not flow
#: control timing.
ZERO_COST = replace(
    DEFAULT_COSTS,
    network=NetworkSpec(latency_ps=0, ps_per_byte=0),
    stream=replace(DEFAULT_COSTS.stream, net_pack_event=0,
                   net_compress_per_byte=0.0))


def make_world(costs=DEFAULT_COSTS):
    world = World(costs=costs, machine_names=MACHINES)
    for name in ("server", "replica1", "replica2"):
        world.kernel.fs(world.machine(name)).create("/d/data", DATA)
    return world


def workload_from_seed(seed: int):
    """A deterministic pread/write mix drawn from the seed.

    Digests only syscall data and deterministic retvals — never
    wall-clock-like values — so a legitimate failover (or zero-cost
    network timing skew) cannot change the expected output.
    """
    rng = random.Random(seed)
    reads = [(rng.randrange(0, len(DATA) - 64), rng.randint(1, 64))
             for _ in range(rng.randint(3, 7))]
    writes = [bytes([rng.randrange(256)]) * rng.randint(1, 48)
              for _ in range(rng.randint(1, 4))]

    def main(ctx):
        parts = []
        fd = yield from ctx.open("/d/data")
        out = yield from ctx.open("/d/out", O_WRONLY | O_CREAT)
        for (off, size), chunk in zip(reads, writes * 8):
            parts.append((yield from ctx.pread(fd, size, off)))
            parts.append((yield from ctx.write(out, chunk)))
            parts.append((yield from ctx.getuid()))
        yield from ctx.close(out)
        yield from ctx.close(fd)
        return tuple(parts)

    return main


def run_session(n_variants, placement=None, plan=None,
                costs=DEFAULT_COSTS, seed=1, capacity=16):
    world = make_world(costs)
    main = workload_from_seed(seed)
    specs = [VersionSpec(f"v{i}", main) for i in range(n_variants)]
    checker = InvariantChecker(roundtrip_every=1)
    config = SessionConfig(placement=placement, fault_plan=plan,
                           invariants=checker, ring_capacity=capacity)
    session = world.nvx(specs, config=config).start()
    world.run()
    checker.final_check()
    return session, world, checker


def outcome_of(session, checker):
    """The transport-independent outcome summary of one session."""
    survivors = {}
    for variant in session.variants:
        if not variant.alive:
            continue
        thread = variant.root_task.threads[0]
        survivors[variant.vid] = (thread.exception is None, thread.result)
    return {
        "survivors": survivors,
        "promotions": session.stats.promotions,
        "crashes": len(session.stats.crashes),
        "divergences": session.stats.divergences,
        "violations": tuple(checker.violations),
    }


REMOTE_MAP = {1: "replica1", 2: "replica2"}


class TestRemoteFailover:
    def horizon(self):
        session, world, _ = run_session(3, placement=REMOTE_MAP)
        assert all(v.alive for v in session.variants)
        return world.sim.now

    def test_whole_machine_crash_promotes_remote_follower(self):
        plan = FaultPlan((Fault(MACHINE_CRASH, machine="server",
                                at_ps=int(self.horizon() * 0.6)),))
        session, world, checker = run_session(3, placement=REMOTE_MAP,
                                              plan=plan)
        assert session.stats.promotions == 1
        assert session.leader.machine.name in ("replica1", "replica2")
        assert not session.variants[0].alive
        assert checker.violations == []
        # No event lost: both survivors completed with the full result.
        expected = run_session(1)[0].variants[0].root_task.threads[0].result
        for variant in session.variants[1:]:
            thread = variant.root_task.threads[0]
            assert thread.exception is None
            assert thread.result == expected

    def test_dead_machine_never_wins_reelection(self):
        # Crash the leader's machine, then the promoted leader: the
        # second election must skip the dead server machine.
        horizon = self.horizon()
        plan = FaultPlan((
            Fault(MACHINE_CRASH, machine="server",
                  at_ps=int(horizon * 0.5)),
            Fault(CRASH, variant=1, at_ps=int(horizon * 2) + 1),
        ))
        session, world, checker = run_session(3, placement=REMOTE_MAP,
                                              plan=plan)
        assert "server" in session.dead_machines
        for variant in session.variants:
            if variant.alive:
                assert variant.machine.name != "server"

    def test_partition_delays_but_never_loses_events(self):
        horizon = self.horizon()
        plan = FaultPlan((Fault(PARTITION, at_ps=int(horizon * 0.3),
                                duration_ps=int(horizon * 0.5)),))
        session, world, checker = run_session(3, placement=REMOTE_MAP,
                                              plan=plan)
        assert all(v.alive for v in session.variants)
        assert checker.violations == []
        results = {v.root_task.threads[0].result
                   for v in session.variants}
        assert len(results) == 1
        assert session.injector.network_faults.messages_held > 0
        # The partition stretched the run past the fault-free horizon.
        assert world.sim.now > horizon

    def test_machine_crash_plus_partition_together(self):
        horizon = self.horizon()
        plan = FaultPlan((
            Fault(MACHINE_CRASH, machine="server",
                  at_ps=int(horizon * 0.55)),
            Fault(PARTITION, at_ps=int(horizon * 0.2),
                  duration_ps=int(horizon * 0.3)),
        ))
        session, world, checker = run_session(3, placement=REMOTE_MAP,
                                              plan=plan)
        assert session.stats.promotions == 1
        assert checker.violations == []
        expected = run_session(1)[0].variants[0].root_task.threads[0].result
        for variant in session.variants:
            if variant.alive:
                assert variant.root_task.threads[0].result == expected


class TestDescriptorRegeneration:
    """Sole-survivor failover: a descriptor transfer that died with the
    leader's machine, with no surviving replica to rescue from, is
    recovered by natively re-executing the originating call."""

    def lost_transfer_rig(self):
        from repro.core.events import EV_SYSCALL, Event

        session, world, _ = run_session(2)
        monitor = session.root_tuple.replicas[1]
        # Fabricate the loss: the dead regime's boundary covers the
        # event, the channel is gone, and no replica has reached the
        # event's clock (so mirror rescue finds no candidate).
        monitor.tuple.regime_boundary = 10 ** 9
        monitor.tuple.channels.pop(1, None)
        event = Event(EV_SYSCALL, 2, "open", 0, clock=10 ** 8,
                      retval=77, fd_count=1, fd_numbers=(77,))
        return session, monitor, event

    @staticmethod
    def drive(gen):
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def test_regenerates_descriptor_at_leader_number(self):
        from repro.kernel.uapi import Syscall

        session, monitor, event = self.lost_transfer_rig()
        call = Syscall("open", ("/d/data", 0))
        installed = self.drive(monitor.receive_fds(event, call=call))
        assert installed == (77,)
        assert monitor.task.fdtable.get(77) is not None
        assert session.stats.fds_regenerated == 1

    def test_without_call_still_raises(self):
        from repro.errors import NvxError

        _, monitor, event = self.lost_transfer_rig()
        with pytest.raises(NvxError, match="lost in failover"):
            self.drive(monitor.receive_fds(event))

    def test_unregenerable_call_raises(self):
        from repro.errors import NvxError
        from repro.kernel.uapi import Syscall

        _, monitor, event = self.lost_transfer_rig()
        call = Syscall("open", ("/no/such/file", 0))
        with pytest.raises(NvxError, match="native re-execution"):
            self.drive(monitor.receive_fds(event, call=call))

    def test_chaos_repro_seed_3465(self):
        # End-to-end regression: this seeded plan machine-crashes the
        # leader mid-fd-transfer and syscall-crashes the only other
        # replica, leaving a sole survivor with no rescue mirror.
        from repro.faults.chaos import run_plan

        lines, mismatches, violations = run_plan(3465, 3,
                                                 placement="remote")
        assert mismatches == 0, "\n".join(lines)
        assert violations == 0, "\n".join(lines)


class TestFailoverWakesParkedReceiver:
    """A follower parked in ``recv_fd`` for a descriptor that died with
    the leader wakes at promotion and gives up on the channel, so it
    can rescue the descriptor from a mirror."""

    def test_parked_receiver_wakes_once_the_boundary_passes_its_clock(
            self):
        from repro.core.datachannel import DataChannel
        from repro.sim import Machine, Simulator, Sleep
        from repro.sim.core import BLOCKED

        sim = Simulator()
        machine = Machine(sim, name="m0")
        channel = DataChannel(sim, DEFAULT_COSTS)
        boundary = [0]
        got = []

        def receiver():
            got.append((yield from channel.recv_fd(
                expected_clock=5, lost=lambda: 5 <= boundary[0])))

        def coordinator():
            yield Sleep(1000 * US_PS)
            assert receiver_proc.state == BLOCKED and not got
            boundary[0] = 5  # the dead regime ends past clock 5
            channel.notify_failover()

        receiver_proc = machine.spawn(receiver(), name="receiver")
        machine.spawn(coordinator(), name="coordinator")
        sim.run()  # the channel stays empty: no poll event wakes it
        assert got == [None]

    def test_machine_crash_mid_transfer_leaves_no_deadlock(self):
        # v2 parks in recv_fd for the open at clock 1 when the leader's
        # machine dies with the descriptor in flight.
        from repro.faults.chaos import (
            DATA_SIZE,
            _wl_pread_mix,
            draw_bytes,
            run_workload,
        )

        rng = random.Random(1)
        data = draw_bytes(rng, DATA_SIZE)
        build = _wl_pread_mix(rng)
        _, world, baseline, failure = run_workload(
            build, data, 3, None, InvariantChecker(), "remote")
        assert failure is None
        horizon = world.sim.now
        plan = FaultPlan((Fault(MACHINE_CRASH, machine="server",
                                at_ps=horizon * 25 // 40),))
        session, _, outputs, failure = run_workload(
            build, data, 3, plan, InvariantChecker(), "remote",
            horizon=horizon)
        assert failure is None
        assert session.stats.promotions == 1
        expected = {tag: digest for (vid, tag), digest in baseline.items()
                    if vid == 0}
        assert expected
        assert {tag: digest for (vid, tag), digest in outputs.items()
                if vid == 2} == expected


class TestTransportEquivalence:
    def pair(self, seed, plan=None):
        local = run_session(3, plan=plan, seed=seed)
        remote = run_session(
            3, placement=REMOTE_MAP, plan=plan, costs=ZERO_COST,
            seed=seed)
        assert remote[0].root_tuple.ring.coalesce_ps == 0
        return (outcome_of(local[0], local[2]),
                outcome_of(remote[0], remote[2]))

    def test_fault_free_outcomes_identical(self):
        local, remote = self.pair(7)
        assert local == remote
        assert local["violations"] == ()

    def test_leader_crash_outcomes_identical(self):
        # Syscall-index trigger: fires at the same logical point on
        # both transports regardless of virtual-time skew.
        plan = FaultPlan((Fault(CRASH, variant=0, at_syscall=5),))
        local, remote = self.pair(11, plan=plan)
        assert local == remote
        assert local["promotions"] == 1

    def test_follower_crash_outcomes_identical(self):
        plan = FaultPlan((Fault(CRASH, variant=2, at_syscall=3),))
        local, remote = self.pair(13, plan=plan)
        assert local == remote
        assert set(local["survivors"]) == {0, 1}

    def test_remote_journal_deterministic(self):
        from repro.faults.chaos import run_plan
        assert run_plan(3, 1, placement="remote") == \
            run_plan(3, 1, placement="remote")


@pytest.mark.slow
class TestTransportEquivalenceProperty:
    """Hypothesis sweep of the equivalence property across seeds and
    fault points (slow: each example is two full DES sessions)."""

    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           crash_variant=st.integers(min_value=-1, max_value=2),
           at_syscall=st.integers(min_value=1, max_value=10))
    def test_local_equals_zero_cost_remote(self, seed, crash_variant,
                                           at_syscall):
        plan = None
        if crash_variant >= 0:
            plan = FaultPlan((Fault(CRASH, variant=crash_variant,
                                    at_syscall=at_syscall),))
        local = run_session(3, plan=plan, seed=seed)
        remote = run_session(
            3, placement=REMOTE_MAP, plan=plan, costs=ZERO_COST,
            seed=seed)
        assert outcome_of(local[0], local[2]) == \
            outcome_of(remote[0], remote[2])

    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           index=st.integers(min_value=0, max_value=5))
    def test_remote_chaos_survivors_match_baseline(self, seed, index):
        from repro.faults.chaos import run_plan
        lines, mismatches, violations = run_plan(seed, index,
                                                 placement="remote")
        assert mismatches == 0, "\n".join(lines)
        assert violations == 0, "\n".join(lines)
