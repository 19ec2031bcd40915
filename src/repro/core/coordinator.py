"""The coordinator and zygote: session setup (Figure 2), the control
channel, transparent failover (§5.1) and divergence handling.

The coordinator is the only centralized component and it is *not* on the
syscall hot path: it prepares address spaces, establishes the ring and
data channels, and thereafter only reacts to crash/divergence
notifications arriving over its control socket.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.bpf.rules import RewriteRules
from repro.core.config import Session, SessionConfig
from repro.core.datachannel import DataChannel
from repro.core.events import EV_EXIT
from repro.core.monitor import PROMOTED, ReplicaMonitor, RingTuple
from repro.core.netring import NetRing
from repro.core.ringbuffer import RingBuffer
from repro.core.shm import SharedMemoryPool
from repro.core.tables import install_tables
from repro.costmodel import cycles
from repro.errors import FailoverError, NvxError
from repro.obs import metrics as obs_metrics
from repro.sim.core import Compute
from repro.sim.sync import WaitQueue


@dataclass
class VersionSpec:
    """One program version to run inside the NVX session."""

    name: str
    main: Callable  # generator function taking a ProcessContext
    #: Optional VX86 image; when present it is really loaded and
    #: rewritten, and per-site patch kinds drive dispatch costs.
    image: Optional[object] = None


class Variant:
    """Runtime state of one version."""

    def __init__(self, vid: int, spec: VersionSpec, machine) -> None:
        self.vid = vid
        self.spec = spec
        self.machine = machine
        self.is_leader = False
        self.alive = True
        self.tasks: List = []
        self.patch_kinds: Dict[str, str] = {}
        self.rewrite_stats = None
        #: LoadedImage when this version runs a real VX86 image — kept so
        #: guest-memory fault injection can reach the address space.
        self.loaded = None
        #: Leader pid → local pid for children created through replayed
        #: forks.  The app only ever sees leader pids; after promotion
        #: the leader table translates pid-bearing calls through this
        #: map so e.g. wait4 finds the *local* child (§5.1).
        self.pid_map: Dict[int, int] = {}

    @property
    def name(self) -> str:
        return f"v{self.vid}:{self.spec.name}"

    @property
    def root_task(self):
        return self.tasks[0] if self.tasks else None


@dataclass
class SessionStats:
    divergences: int = 0
    divergences_allowed: int = 0
    divergences_skipped: int = 0
    events_skipped: int = 0
    #: Descriptors whose transfer died with the leader's machine and
    #: that no surviving replica could rescue, recovered by natively
    #: re-executing the originating call on the replica's own state.
    fds_regenerated: int = 0
    promotions: int = 0
    crashes: List = field(default_factory=list)
    fatal_divergences: List = field(default_factory=list)
    #: Ring integrity failures consumers reported (corruption/torn
    #: writes), as (variant_name, message, sim_ps) triples.
    ring_faults: List = field(default_factory=list)
    setup_ps: int = 0
    #: Sim time from crash notification to promotion, per promotion.
    promotion_latencies_ps: List[int] = field(default_factory=list)


def count_rings(session, reg: obs_metrics.MetricsRegistry) -> None:
    """The ``count`` of the kinds that stream events through rings
    (NvxSession, ReplaySession): their stats and every tuple's ring."""
    stats = session.stats
    reg.inc("session.divergences", stats.divergences)
    reg.inc("session.divergences_allowed", stats.divergences_allowed)
    reg.inc("session.divergences_skipped", stats.divergences_skipped)
    reg.inc("session.events_skipped", stats.events_skipped)
    reg.inc("session.promotions", stats.promotions)
    reg.inc("session.crashes", len(stats.crashes))
    reg.inc("session.fatal_divergences", len(stats.fatal_divergences))
    reg.inc("session.ring_faults", len(stats.ring_faults))
    reg.gauge_max("session.setup_ns", stats.setup_ps // 1000)
    for latency_ps in stats.promotion_latencies_ps:
        reg.observe("failover.promotion_latency_ns", latency_ps // 1000)
    for tuple_ in session.tuples:
        ring = tuple_.ring
        rs = ring.stats
        reg.inc("ring.published", rs.published)
        reg.inc("ring.consumed", rs.consumed)
        reg.inc("ring.producer_stalls", rs.producer_stalls)
        reg.inc("ring.stall_ns", rs.stall_ps // 1000)
        reg.inc("ring.waitlock_sleeps", rs.waitlock_sleeps)
        reg.inc("ring.spin_waits", rs.spin_waits)
        reg.gauge_max("ring.occupancy", ring.head - ring.min_cursor())
        for distance in rs.distance_samples:
            reg.observe("ring.occupancy_at_publish", distance)
        for vid in ring.cursors:
            reg.observe("follower.lag_events", ring.lag_of(vid))
        for vid, replica in tuple_.replicas.items():
            role = "leader" if replica.is_leader else "follower"
            reg.observe(f"{role}.wait_ns", replica.wait_ps // 1000)
        if isinstance(ring, NetRing):
            for name, value in ring.net.as_dict().items():
                reg.inc(name, value)


class NvxSession(Session):
    """One Varan NVX group: N versions behaving as a single process.

    Options arrive through a shared :class:`SessionConfig`.
    """

    checks_invariants = True
    #: Replay-phase sessions synthesise descriptors locally instead of
    #: collecting them from a data channel.
    replay_mode = False

    def __init__(self, world, specs: List[VersionSpec],
                 config: Optional[SessionConfig] = None) -> None:
        super().__init__(world, specs, config)
        cfg = self.config
        self.rules = cfg.rules or RewriteRules()
        self.ring_capacity = cfg.ring_capacity
        #: The world's tracer (usually None: zero-cost hot-path no-ops).
        self.tracer = world.tracer
        self.pool = SharedMemoryPool(world.sim, world.costs)
        self.stats = SessionStats()
        #: The conformance oracle observes every ring publish/consume
        #: and failover, and asserts the contract.
        self.invariants.attach_session(self)
        #: Scheduled fault injection, armed at start().
        self.injector = None
        if cfg.fault_plan is not None:
            from repro.faults.injector import FaultInjector
            self.injector = FaultInjector(self, cfg.fault_plan)
        self.variants = [Variant(i, spec, self.placement[i])
                         for i, spec in enumerate(specs)]
        self.variants[0].is_leader = True
        #: Machines declared dead by whole-machine fault injection;
        #: leader election avoids them.
        self.dead_machines: set = set()
        self.tuples: List[RingTuple] = []
        self._next_tuple_id = 0
        self.control = WaitQueue(world.sim, name="varan.control")
        self._pending: Deque = deque()
        self.coordinator = None
        #: Callables invoked with each newly created RingTuple — used by
        #: auxiliary clients such as the record-phase follower (§5.4).
        self.tuple_hooks: List[Callable] = []

    # -- public API -----------------------------------------------------------

    @property
    def leader(self) -> Optional[Variant]:
        for variant in self.variants:
            if variant.is_leader and variant.alive:
                return variant
        return None

    @property
    def followers(self) -> List[Variant]:
        return [v for v in self.variants if v.alive and not v.is_leader]

    @property
    def root_tuple(self) -> RingTuple:
        return self.tuples[0]

    def start(self) -> "NvxSession":
        """Launch the coordinator; versions start once setup completes."""
        if self.injector is not None:
            self.injector.arm()
        self.coordinator = self.machine.spawn(
            self._coordinator_main(), name="varan.coordinator", daemon=True)
        return self

    # -- coordinator ------------------------------------------------------------

    def _coordinator_main(self):
        sim = self.world.sim
        start_ps = sim.now
        yield from self._perform_setup()
        self.stats.setup_ps = sim.now - start_ps
        tracer = self.tracer
        if tracer is not None:
            tracer.span_here(sim, start_ps, "session", "setup",
                             (("versions", len(self.variants)),))
        self.ready = True
        while True:
            while not self._pending:
                yield from self.control.wait()
            kind, variant, reported_ps = self._pending.popleft()
            yield Compute(cycles(
                self.costs.failover.detect_signal
                + self.costs.failover.coordinator_handling))
            if not variant.alive:
                continue
            if variant.is_leader and kind in ("crash", "corruption"):
                self._promote_new_leader(variant, reported_ps)
            else:
                self._drop_follower(variant, kind)

    def _perform_setup(self):
        """Steps A-D of Figure 2, with their system-call costs."""
        syscalls = self.costs.syscalls
        setup_cycles = syscalls.native("mmap")  # shm segment (step A)
        setup_cycles += syscalls.native("fork")  # zygote (step B)
        for _ in self.variants:  # steps C/D per version
            setup_cycles += (syscalls.native("socketpair")
                             + syscalls.native("fork")
                             + 2 * syscalls.native("sendmsg")
                             + syscalls.native("mmap"))
        yield Compute(cycles(setup_cycles))

        # Load + selectively rewrite each version's image (§3.2).
        for variant in self.variants:
            if variant.spec.image is not None:
                yield from self._load_and_rewrite(variant)

        root = self.new_tuple()
        for variant in self.variants:
            task = self.spawn(variant.vid, self._wrap_main(variant))
            variant.tasks.append(task)
            self._bind(variant, task, root)

    def _load_and_rewrite(self, variant: Variant):
        from repro.runtime.loader import load_image

        loaded = load_image(variant.spec.image, seed=variant.vid)
        variant.loaded = loaded
        variant.patch_kinds = loaded.patch_kinds
        variant.rewrite_stats = loaded.rewriter.patchset.stats
        # Charge the scan: ~2 cycles/byte plus per-site patch work.
        stats = loaded.rewriter.patchset.stats
        yield Compute(cycles(2 * stats.bytes_scanned
                             + 500 * stats.sites_found
                             + 700 * stats.vdso_patched))

    def _wrap_main(self, variant: Variant):
        """Wrap the app main so normal return streams an EXIT event."""
        spec_main = variant.spec.main

        def wrapped(ctx):
            result = yield from spec_main(ctx)
            monitor = ctx.task.monitor_state
            if monitor is not None and not ctx.task.exited:
                if variant.is_leader:
                    # A variant promoted while it was finishing never
                    # passes through the dispatch path again, so the
                    # role switch (which drops its stale consumer
                    # cursor) must complete here before the exit event
                    # is streamed.  Idempotent for born leaders.
                    if ctx.task.gate.role != "leader":
                        yield from self.await_promotion_complete(ctx.task)
                    yield from monitor.publish_control(EV_EXIT, retval=0)
                else:
                    outcome = yield from monitor.await_event(True)
                    if outcome is PROMOTED:
                        # Backlog drained; as the new leader, stream the
                        # exit so surviving followers are not left
                        # parked waiting for one (no-op without them).
                        yield from self.await_promotion_complete(ctx.task)
                        yield from monitor.publish_control(EV_EXIT,
                                                           retval=0)
                    elif outcome.etype == EV_EXIT:
                        yield from monitor.consume(outcome)
            return result

        return wrapped

    def _bind(self, variant: Variant, task, tuple_: RingTuple) -> None:
        """Attach a task to a tuple: monitor, tables, patch map, hooks."""
        monitor = ReplicaMonitor(self, variant, task, tuple_)
        task.gate.patch_kinds = variant.patch_kinds
        install_tables(monitor)
        task.segv_hook = self._crash_hook(variant)
        if self.injector is not None:
            self.injector.on_bind(variant, task)

    # -- tuples ---------------------------------------------------------------------

    def new_tuple(self) -> RingTuple:
        """Allocate the ring + data channels for one process tuple.

        Follower cursors are pre-registered so no event published before
        the followers attach can be missed.
        """
        leader = self.leader
        leader_machine = (leader.machine if leader is not None
                          else self.machine)
        network = self.world.network
        name = f"ring{self._next_tuple_id}"
        cfg = self.config
        # A distributed session streams over a NetRing with the config's
        # dMVX policy, a single-host one over the shared-memory ring.
        if self.distributed:
            ring = NetRing(
                self.world.sim, self.costs, network, leader_machine,
                {v.vid: v.machine for v in self.variants},
                capacity=self.ring_capacity, name=name, tracer=self.tracer,
                compress=cfg.compress, replicate=cfg.replicate)
        else:
            ring = RingBuffer(self.world.sim, self.costs,
                              capacity=self.ring_capacity, name=name,
                              tracer=self.tracer)
        ring.sample_distances = cfg.sample_distances
        # Session rings always run with slot integrity checks so injected
        # corruption surfaces diagnostically; the conformance oracle
        # rides the same per-ring observer hook.
        ring.integrity = True
        ring.observer = self.invariants
        channels = {}
        for variant in self.followers:
            ring.add_consumer(variant.vid)
            channels[variant.vid] = DataChannel(
                self.world.sim, self.costs,
                network=network, producer_machine=leader_machine,
                consumer_machine=variant.machine)
        tuple_ = RingTuple(self._next_tuple_id, ring, channels)
        self._next_tuple_id += 1
        self.tuples.append(tuple_)
        for hook in self.tuple_hooks:
            hook(tuple_)
        return tuple_

    def tuple_by_id(self, tuple_id: int) -> RingTuple:
        for tuple_ in self.tuples:
            if tuple_.id == tuple_id:
                return tuple_
        raise NvxError(f"unknown tuple {tuple_id}")

    def attach_leader_child(self, variant: Variant, child_task,
                            tuple_: RingTuple) -> None:
        variant.tasks.append(child_task)
        self._bind(variant, child_task, tuple_)

    def attach_follower_child(self, variant: Variant, child_task,
                              tuple_id: int) -> None:
        variant.tasks.append(child_task)
        self._bind(variant, child_task, self.tuple_by_id(tuple_id))

    # -- failover (§5.1) ---------------------------------------------------------------

    def _crash_hook(self, variant: Variant):
        def hook(task, fault):
            now = self.world.sim.now
            self.stats.crashes.append((variant.name, str(fault), now))
            tracer = self.tracer
            if tracer is not None:
                tracer.instant(now, variant.machine.name, task.name,
                               "failover", "crash",
                               (("variant", variant.name),
                                ("fault", str(fault)),
                                ("was_leader", variant.is_leader)))
            self._pending.append(("crash", variant, now))
            self.control.notify()

        return hook

    def report_divergence(self, monitor: ReplicaMonitor, call,
                          event) -> None:
        """A follower diverged fatally: schedule its removal."""
        self.stats.fatal_divergences.append(
            (monitor.variant.name, call.name, event.name))
        self._pending.append(
            ("divergence", monitor.variant, self.world.sim.now))
        self.control.notify()

    def report_ring_fault(self, monitor: ReplicaMonitor, exc) -> None:
        """A consumer observed ring damage (corruption/torn write).

        Schedule the replica's removal: dropping it releases any
        producer backpressure its cursor was holding, so the session
        degrades instead of hanging.  A post-promotion leader draining
        a damaged backlog triggers another promotion.
        """
        now = self.world.sim.now
        self.stats.ring_faults.append((monitor.variant.name, str(exc), now))
        tracer = self.tracer
        if tracer is not None:
            tracer.instant_here(self.world.sim, "failover", "ring_fault",
                                (("variant", monitor.variant.name),
                                 ("error", str(exc))))
        self._pending.append(("corruption", monitor.variant, now))
        self.control.notify()

    def _drop_follower(self, variant: Variant, kind: str) -> None:
        """Unsubscribe a crashed/diverged follower; others are unaffected."""
        tracer = self.tracer
        if tracer is not None:
            tracer.instant_here(self.world.sim, "failover", "drop_follower",
                                (("variant", variant.name),
                                 ("reason", kind)))
        variant.alive = False
        for tuple_ in self.tuples:
            tuple_.ring.remove_consumer(variant.vid)
            channel = tuple_.channels.pop(variant.vid, None)
            if channel is not None:
                channel.close()
            tuple_.replicas.pop(variant.vid, None)
        for task in variant.tasks:
            if not task.exited:
                task.kill_now()

    def _promote_new_leader(self, old_leader: Variant,
                            reported_ps: Optional[int] = None) -> None:
        """Elect the follower with the smallest ID (§5.1)."""
        old_leader.alive = False
        old_leader.is_leader = False
        for task in old_leader.tasks:
            if not task.exited:
                task.kill_now()
        candidates = self.followers
        if not candidates:
            raise FailoverError("leader crashed with no followers left")
        # Whole-machine loss: prefer a follower on a machine not marked
        # dead — electing a co-located victim would only cascade another
        # promotion.  If every survivor sits on a dead machine the crash
        # notifications will arrive anyway; keep the smallest-id rule.
        live = [v for v in candidates
                if v.machine.name not in self.dead_machines]
        new_leader = min(live or candidates, key=lambda v: v.vid)
        new_leader.is_leader = True
        self.stats.promotions += 1
        now = self.world.sim.now
        latency = now - (reported_ps if reported_ps is not None else now)
        self.stats.promotion_latencies_ps.append(latency)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant_here(self.world.sim, "failover", "promote",
                                (("old_leader", old_leader.name),
                                 ("new_leader", new_leader.name),
                                 ("latency_ps", latency)))
        for tuple_ in self.tuples:
            # If the dead leader was itself promoted mid-flight (crash
            # before await_promotion_complete ran), its consumer cursor
            # is still registered and would hold producer backpressure
            # forever.  A born leader has no cursor: this is a no-op.
            tuple_.ring.remove_consumer(old_leader.vid)
            channel = tuple_.channels.pop(new_leader.vid, None)
            if channel is not None:
                channel.close()
            # Everything published so far came from the now-dead regime:
            # transfers for those events can no longer arrive.  Stamp the
            # boundary, then wake receivers parked on a dead leader so
            # they rescue lost descriptors from a mirror.
            tuple_.regime_boundary = tuple_.ring.head
            # A NetRing re-anchors at the new leader's machine (reveal
            # the backlog, restart flow control); a RingBuffer's hook
            # is a no-op.
            tuple_.ring.on_promote(new_leader.vid, new_leader.machine)
            for follower_channel in tuple_.channels.values():
                follower_channel.rebind_producer(new_leader.machine)
                follower_channel.notify_failover()
            # Wake every parked replica so it notices the new regime.
            tuple_.ring.wake_all()

    # -- observability ------------------------------------------------------

    #: Metrics: the session's stats and every tuple's ring.
    count = count_rings

    def await_promotion_complete(self, task):
        """Generator: lazily finish promoting *this* task to leader.

        Called from the follower dispatch path once its ring is drained;
        switches the system call table and restarts the in-flight call
        (-ERESTARTSYS).  Idempotent per task.
        """
        monitor = task.monitor_state
        if task.gate.role == "leader":
            return
        yield Compute(cycles(self.costs.failover.promote_per_tuple
                             + self.costs.failover.restart_syscall))
        monitor.ring.remove_consumer(monitor.vid)
        install_tables(monitor)

