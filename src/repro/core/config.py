"""Shared session configuration and the skeleton every session kind
shares (the unified Session API).

One :class:`SessionConfig` dataclass carries every option the four
session kinds (:class:`~repro.core.coordinator.NvxSession`,
:class:`~repro.nvx.lockstep.LockstepSession`,
:class:`~repro.nvx.scribe.ScribeSession` and
:class:`~repro.recordreplay.replayer.ReplaySession`) understand.  Each
session consumes the fields it cares about and ignores the rest, so one
config can be reused across monitor kinds when an experiment swaps
them.  :class:`Session` is their common base: it validates the config,
resolves the placement (:func:`resolve_placement`), registers for
metrics and spawns one task per version, so each kind adds only its
synchronisation policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.netring import REPLICATE_FULL, REPLICATE_SELECTIVE
from repro.core.ringbuffer import DEFAULT_CAPACITY
from repro.errors import NvxError
from repro.obs import metrics as obs_metrics
from repro.sim.machine import Machine


@dataclass(frozen=True)
class SessionConfig:
    """Options shared by every monitored-session kind.

    ``placement`` and ``daemon`` apply to all sessions; ``rules`` and
    ``ring_capacity`` to the two kinds that stream events through a
    ring (:class:`NvxSession`, :class:`ReplaySession`); ``invariants``
    to the two that check (:class:`NvxSession`,
    :class:`LockstepSession`); the rest only to :class:`NvxSession`.
    Variant 0 is the born leader, and an NVX session traces into its
    world's tracer.
    """

    #: Variant placement: maps variant index or version name to a
    #: machine (a Machine or its name in the world).  Variants absent
    #: from the map run on the world's server.
    #: A placement naming a second machine makes the session
    #: *distributed*: each process tuple streams over a
    #: ``repro.core.netring.NetRing`` instead of the shared-memory
    #: ``RingBuffer``, and whole-machine faults become survivable.
    placement: Optional[dict] = None
    #: dMVX replication policy of a distributed session's rings:
    #: ``"full"`` ships every payload, ``"selective"`` only the ones a
    #: replica cannot regenerate from its own files.
    replicate: str = REPLICATE_FULL
    #: Compress a distributed session's frames (leader CPU for bytes).
    compress: bool = False
    rules: Optional[object] = None
    ring_capacity: int = DEFAULT_CAPACITY
    daemon: bool = False
    sample_distances: bool = False
    #: Scheduled fault injection (``repro.faults.FaultPlan``); None runs
    #: fault-free.  Only :class:`NvxSession` executes plans.
    fault_plan: Optional[object] = None
    #: NVX conformance oracle: None (the default) lets the session build
    #: its own always-on ``repro.faults.InvariantChecker``; pass a
    #: checker to share one across sessions.
    invariants: Optional[object] = None

    def __post_init__(self) -> None:
        # A ring the coordinator cannot build fails inside the
        # simulation, where no caller would see it: refuse it here.
        capacity = self.ring_capacity
        if (not isinstance(capacity, int) or isinstance(capacity, bool)
                or capacity < 1):
            raise NvxError(f"SessionConfig.ring_capacity must be an int "
                           f">= 1, got {capacity!r}")
        if self.replicate not in (REPLICATE_FULL, REPLICATE_SELECTIVE):
            raise NvxError(f"SessionConfig.replicate must be "
                           f"{REPLICATE_FULL!r} or {REPLICATE_SELECTIVE!r}, "
                           f"got {self.replicate!r}")
        for name in ("compress", "daemon", "sample_distances"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise NvxError(f"SessionConfig.{name} must be a bool, got "
                               f"{value!r}")
        # Imported here: the faults package imports the core.
        from repro.bpf.rules import RewriteRules
        from repro.faults.invariants import InvariantChecker
        from repro.faults.plan import FaultPlan
        for name, kind in (("rules", RewriteRules),
                           ("fault_plan", FaultPlan),
                           ("invariants", InvariantChecker)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise NvxError(f"SessionConfig.{name} must be None or of "
                               f"type {kind.__name__}, got {value!r}")


def resolve_placement(placement, specs, world, default_machine) -> List:
    """Resolve a ``placement=`` mapping into one machine per variant.

    ``placement`` maps variant index *or* spec name to a machine of
    ``world`` (a :class:`~repro.sim.machine.Machine` or its name).
    Variants absent from the map stay on ``default_machine``.  Anything
    else raises, so a typo never silently runs everything locally or
    leaves a variant with no machine to start on.
    """
    machines = [default_machine for _ in specs]
    if placement is None:
        return machines
    if not isinstance(placement, Mapping):
        raise NvxError(f"placement: expected a mapping, got "
                       f"{type(placement).__name__}")
    by_name = {spec.name: index for index, spec in enumerate(specs)}
    for key, value in placement.items():
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise NvxError(f"placement: key {key!r} is neither a variant "
                           f"index nor a version name")
        if isinstance(key, int):
            if not 0 <= key < len(specs):
                raise NvxError(
                    f"placement: variant index {key} out of range "
                    f"(session has {len(specs)} versions)")
            index = key
        else:
            index = by_name.get(key)
            if index is None:
                raise NvxError(
                    f"placement: no version named {key!r} "
                    f"(versions: {sorted(by_name)})")
        machine = value
        if isinstance(machine, str):
            machine = world.machine(machine)
        elif (not isinstance(machine, Machine)
              or world.machines.get(machine.name) is not machine):
            raise NvxError(f"placement: {key!r} -> {value!r} is not a "
                           f"machine of this world")
        machines[index] = machine
    return machines


class Session:
    """What every monitored-session kind shares: config and placement
    resolution, the invariant checker, metrics registration and the
    snapshot skeleton, and one task per version.

    A kind supplies its own ``start`` and synchronisation policy, and
    a ``count(reg)`` that adds its own metrics to the snapshot.
    """

    #: Whether the kind runs an ``InvariantChecker`` (see
    #: ``SessionConfig.invariants``).
    checks_invariants = False
    #: Version ``i`` runs as the task ``f"{task_prefix}{i}:{name}"``.
    task_prefix = "v"
    #: The tracer the kind's replicas trace into (NvxSession: the
    #: world's); None keeps every hot-path trace call a no-op.
    tracer = None

    def __init__(self, world, specs: List,
                 config: Optional[SessionConfig] = None) -> None:
        kind = type(self).__name__
        if not specs:
            raise NvxError(f"{kind}: needs at least one version")
        if config is None:
            config = SessionConfig()
        elif not isinstance(config, SessionConfig):
            raise NvxError(f"{kind}: config must be a SessionConfig, "
                           f"got {type(config).__name__}")
        self.config = config
        self.world = world
        self.costs = world.costs
        #: The coordinator's (or centralized monitor's) machine.
        self.machine = world.server
        self.specs = specs
        try:
            #: One machine per version; unplaced versions stay on
            #: ``machine``.
            self.placement = resolve_placement(config.placement, specs,
                                               world, self.machine)
        except NvxError as exc:
            raise NvxError(f"{kind}: {exc}") from None
        #: A version placed off version 0's machine makes the session
        #: distributed; the replication policy applies to nothing else.
        self.distributed = any(machine is not self.placement[0]
                               for machine in self.placement)
        if not self.distributed and (config.replicate != REPLICATE_FULL
                                     or config.compress):
            raise NvxError(
                f"{kind}: SessionConfig(replicate={config.replicate!r}, "
                f"compress={config.compress!r}) needs a follower placed "
                f"on another machine")
        self.tasks: List = []
        self.ready = False
        self.invariants = None
        if self.checks_invariants:
            self.invariants = config.invariants
            if self.invariants is None:
                from repro.faults.invariants import InvariantChecker
                self.invariants = InvariantChecker()
        obs_metrics.register(self)

    def spawn(self, index: int, main=None):
        """Start version ``index`` (its spec's ``main`` unless a wrapped
        one is given) as a task on its placed machine."""
        spec = self.specs[index]
        task = self.world.kernel.spawn_task(
            self.placement[index], main or spec.main,
            name=f"{self.task_prefix}{index}:{spec.name}",
            daemon=self.config.daemon)
        self.tasks.append(task)
        return task

    def report_ring_fault(self, monitor, exc) -> None:
        """A replica observed ring damage (corruption, a torn write).

        With no coordinator to fail over, the replica is only dropped:
        its dead cursor must not hold the producer back.
        """
        monitor.variant.alive = False
        monitor.ring.remove_consumer(monitor.vid)

    # -- observability ------------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """Session metrics as a mergeable registry snapshot (``repro.obs``).

        Everything derives from sim-side counters, so snapshots of the
        same run are identical no matter when or where they are taken.
        """
        reg = obs_metrics.MetricsRegistry()
        self.count(reg)
        checker = self.invariants
        if checker is not None:
            reg.inc("invariant.checks",
                    checker.events_checked + checker.consumes_checked
                    + checker.lockstep_rounds)
            reg.inc("invariant.violations", len(checker.violations))
        return reg.snapshot()
