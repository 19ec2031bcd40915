"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live
session.

Two trigger mechanisms, both fully deterministic:

* **sim-time triggers** (``at_ps``) are armed on the simulator's event
  heap when the session starts; when one fires, the injector acts from
  *outside* any process — interrupting a victim thread with a
  :class:`Segfault`, poisoning a pending ring slot, flipping a guest
  memory bit — exactly as asynchronous hardware/kernel failures land in
  the real system;
* **syscall-index triggers** (``at_syscall``) ride the task's
  ``SyscallGate.pre_dispatch`` hook: the injector counts the target
  variant's dispatches (across all its tasks) and fires just before the
  N-th one, in the victim's own context.

A fault whose target is already gone (variant crashed earlier, slot
window empty) is *skipped*, and the skip is journalled — the journal of
fired/skipped faults is part of the chaos run's deterministic output.

Network faults live in :class:`NetworkFaults`, a small hook the
:class:`~repro.sim.network.Network` consults per delivery: partitions
hold messages and release them when the window heals (TCP
retransmission: traffic is delayed, never silently dropped), packet
loss delays individual messages by a retransmission timeout.  Liveness
is preserved by construction, so a fault plan can never turn a healthy
workload into a hang.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.costmodel import US_PS, cycles
from repro.kernel.uapi import Segfault
from repro.sim.core import Compute

from repro.faults.plan import (
    BITFLIP,
    CORRUPT_SLOT,
    CRASH,
    MACHINE_CRASH,
    NETWORK_KINDS,
    PARTITION,
    STALL,
    TORN_WRITE,
    Fault,
    FaultPlan,
)

#: Modelled TCP retransmission timeout for a lost packet.
RETRANSMIT_PS = 200 * US_PS

#: Deterministic per-message loss probability inside a loss window.
LOSS_PROBABILITY = 0.5


class NetworkFaults:
    """Per-delivery fault hook installed on :class:`Network.faults`.

    Window membership is decided by *send* time (``now``); the loss
    draw uses a private seeded rng, and the network's message order is
    itself deterministic, so reruns lose exactly the same packets.
    """

    def __init__(self, partitions: List[Tuple[int, int]],
                 loss_windows: List[Tuple[int, int]]) -> None:
        self.partitions = sorted(partitions)
        self.loss_windows = sorted(loss_windows)
        self._rng = random.Random(0)
        self.messages_held = 0

    def adjust(self, now: int, arrival: int) -> int:
        """Return the (possibly delayed) arrival time for one message."""
        transit = arrival - now
        for start, end in self.partitions:
            if start <= now < end:
                # Held at the sender until the partition heals, then
                # retransmitted: full transit time after the heal.
                self.messages_held += 1
                arrival = max(arrival, end + transit)
        for start, end in self.loss_windows:
            if start <= now < end and self._rng.random() < LOSS_PROBABILITY:
                arrival += RETRANSMIT_PS
        return arrival


class FaultInjector:
    """Drives one plan against one :class:`NvxSession`."""

    def __init__(self, session, plan: FaultPlan) -> None:
        self.session = session
        self.plan = plan
        #: Journal of "fired"/"skipped" lines, in deterministic order.
        self.log: List[str] = []
        self._sys_counts: Dict[int, int] = {}
        #: vid → at_syscall-sorted pending faults for that variant.
        self._sys_faults: Dict[int, List[Fault]] = {}
        #: vid → (window_end_ps, extra_cycles) for an open stall window.
        self._stall_windows: Dict[int, Tuple[int, int]] = {}
        self.network_faults: Optional[NetworkFaults] = None
        for fault in plan.faults:
            if fault.at_syscall is not None:
                self._sys_faults.setdefault(fault.variant, []).append(fault)
        for pending in self._sys_faults.values():
            pending.sort(key=lambda f: f.at_syscall)

    # -- wiring -----------------------------------------------------------

    def arm(self) -> None:
        """Schedule every sim-time fault; install the network hook."""
        sim = self.session.world.sim
        partitions, losses = [], []
        for fault in self.plan.faults:
            if fault.at_ps is None:
                continue
            if fault.kind in NETWORK_KINDS:
                window = (fault.at_ps, fault.at_ps + fault.duration_ps)
                (partitions if fault.kind == PARTITION
                 else losses).append(window)
                continue
            sim.schedule(max(0, fault.at_ps - sim.now),
                         lambda f=fault: self._fire_async(f))
        if partitions or losses:
            self.network_faults = NetworkFaults(partitions, losses)
            self.session.world.network.faults = self.network_faults

    def on_bind(self, variant, task) -> None:
        """Install the counting pre-dispatch hook on a newly bound task."""
        if (variant.vid in self._sys_faults
                or any(f.kind == STALL for f in self.plan.faults)):
            task.gate.pre_dispatch = self._make_pre_dispatch(variant.vid)

    # -- syscall-index triggers (victim context) ---------------------------

    def _make_pre_dispatch(self, vid: int):
        def pre_dispatch(task, call):
            count = self._sys_counts.get(vid, 0) + 1
            self._sys_counts[vid] = count
            pending = self._sys_faults.get(vid)
            while pending and pending[0].at_syscall <= count:
                fault = pending.pop(0)
                if fault.kind == CRASH:
                    self._note(fault, f"fired in {call.name}")
                    raise Segfault(
                        f"injected crash at syscall {count} ({call.name})")
                if fault.kind == STALL:
                    sim = task.kernel.sim
                    self._stall_windows[vid] = (
                        sim.now + fault.duration_ps, fault.stall_cycles)
                    self._note(fault, "window opened")
                elif fault.kind == BITFLIP:
                    self._bitflip(fault)
            window = self._stall_windows.get(vid)
            if window is not None:
                end_ps, extra_cycles = window
                if task.kernel.sim.now < end_ps:
                    yield Compute(cycles(extra_cycles))
                else:
                    del self._stall_windows[vid]
        return pre_dispatch

    # -- sim-time triggers (asynchronous context) --------------------------

    def _fire_async(self, fault: Fault) -> None:
        if fault.kind == CRASH:
            self._crash(fault)
        elif fault.kind == STALL:
            target = self._target(fault)
            if target is None:
                self._note(fault, "skipped: target gone")
                return
            sim = self.session.world.sim
            self._stall_windows[target.vid] = (
                sim.now + fault.duration_ps, fault.stall_cycles)
            self._note(fault, "window opened")
        elif fault.kind in (CORRUPT_SLOT, TORN_WRITE):
            self._poison_slot(fault)
        elif fault.kind == BITFLIP:
            self._bitflip(fault)
        elif fault.kind == MACHINE_CRASH:
            self._machine_crash(fault)

    def _target(self, fault: Fault):
        """Resolve the victim variant; None when it no longer exists."""
        if fault.variant < 0:
            return self.session.leader
        if fault.variant >= len(self.session.variants):
            return None
        variant = self.session.variants[fault.variant]
        return variant if variant.alive else None

    def _crash(self, fault: Fault) -> None:
        variant = self._target(fault)
        if variant is None:
            self._note(fault, "skipped: target gone")
            return
        for task in variant.tasks:
            if task.exited:
                continue
            for thread in task.threads:
                if not thread.done:
                    self._note(fault, f"fired in {thread.name} "
                                      f"({thread.state})")
                    thread.interrupt(Segfault(
                        f"injected crash of {variant.name}"))
                    return
        self._note(fault, "skipped: no live thread")

    def _machine_crash(self, fault: Fault) -> None:
        """Whole-machine loss: mark the machine dead for leader
        election, then kill every variant hosted on it at once."""
        victims = [v for v in self.session.variants
                   if v.alive and v.machine.name == fault.machine]
        if not victims:
            self._note(fault, "skipped: no live variant on machine")
            return
        self.session.dead_machines.add(fault.machine)
        killed = []
        for variant in victims:
            for task in variant.tasks:
                if task.exited:
                    continue
                for thread in task.threads:
                    if not thread.done:
                        thread.interrupt(Segfault(
                            f"machine {fault.machine} crashed under "
                            f"{variant.name}"))
                        killed.append(variant.name)
                        break
                else:
                    continue
                break
        self._note(fault, f"fired: killed {' '.join(killed)}"
                   if killed else "skipped: no live thread")

    def _poison_slot(self, fault: Fault) -> None:
        tuples = self.session.tuples
        if not tuples:
            self._note(fault, "skipped: no rings")
            return
        ring = tuples[fault.ring % len(tuples)].ring
        floor = ring.min_cursor()
        pending = ring.head - floor
        if pending <= 0 or not ring.cursors:
            self._note(fault, "skipped: no pending slots")
            return
        seq = floor + fault.slot_offset % pending
        event = ring.slots[seq % ring.capacity]
        if fault.kind == CORRUPT_SLOT:
            # A lost/overwritten publish: the slot no longer holds the
            # sequence its consumers are gated on.
            event.seq += ring.capacity
        else:
            # Half-written event: the result word changes under the
            # consumer's feet; the integrity seal stays stale.
            event.retval ^= 0x5A5A
        self._note(fault, f"poisoned seq {seq} on {ring.name}")
        # Parked consumers re-examine the ring (and surface the damage
        # in their own context) instead of sleeping through it.
        ring.wake_all()

    def _bitflip(self, fault: Fault) -> None:
        variant = self._target(fault)
        if variant is None:
            self._note(fault, "skipped: target gone")
            return
        loaded = variant.loaded
        if loaded is None:
            self._note(fault, "skipped: no guest image")
            return
        if loaded.space.bitflip(fault.addr, fault.bit):
            self._note(fault, f"flipped bit {fault.bit} "
                              f"at {fault.addr:#x}")
        else:
            self._note(fault, "skipped: address unmapped")

    # -- journal ----------------------------------------------------------

    def _note(self, fault: Fault, what: str) -> None:
        now = self.session.world.sim.now
        self.log.append(f"t={now} {fault.describe()}: {what}")
