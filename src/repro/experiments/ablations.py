"""Ablations of Varan's design choices (§2.2, §3.3.1, §6).

Three studies, one per design decision the paper motivates:

* **Event pump vs shared ring** — the authors' initial design used one
  queue per follower with the coordinator as an event pump; it "worked
  well for a low system call rate, but at higher rates the event pump
  quickly became a bottleneck" (§3.3.1).  We model both and measure the
  virtual time to stream a fixed event count to N consumers.
* **Ring capacity** — §6: buffering is essential for performance but
  delays divergence detection; capacity 1 (the security configuration)
  vs the default 256.
* **Waitlock vs pure busy-waiting** — §3.3.1: followers that never
  degrade to the futex waitlock burn a hardware thread while blocked.
"""

from __future__ import annotations

from typing import Dict

from repro.core.events import syscall_event
from repro.core.ringbuffer import RingBuffer
from repro.costmodel import DEFAULT_COSTS, cycles
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.sim import Machine, Simulator
from repro.sim.core import Compute
from repro.sim.sync import WaitQueue


# -- shared plumbing ----------------------------------------------------------


def _stream_through_ring(events: int, consumers: int,
                         capacity: int = 256,
                         consumer_work_cycles: int = 100) -> int:
    """Virtual time to push ``events`` through a shared ring."""
    sim = Simulator()
    machine = Machine(sim, name="m")
    ring = RingBuffer(sim, DEFAULT_COSTS, capacity=capacity)
    for vid in range(1, consumers + 1):
        ring.add_consumer(vid)

    def producer():
        for i in range(events):
            yield from ring.publish(syscall_event("close", 0, i + 1, 0))

    def consumer(vid):
        for _ in range(events):
            while ring.peek(vid) is None:
                yield from ring.wait_published(
                    False, lambda: ring.peek(vid) is not None)
            yield Compute(cycles(consumer_work_cycles))
            ring.advance(vid)

    machine.spawn(producer(), name="prod")
    for vid in range(1, consumers + 1):
        machine.spawn(consumer(vid), name=f"c{vid}")
    sim.run()
    return sim.now


def _stream_through_pump(events: int, consumers: int) -> int:
    """The rejected design: per-follower queues fed by an event pump.

    The pump is a separate process that pops each event from the
    leader's queue and *copies* it into every follower's queue — N
    copies per event, serialised through one process.
    """
    sim = Simulator()
    machine = Machine(sim, name="m")
    leader_queue = []
    follower_queues = {vid: [] for vid in range(1, consumers + 1)}
    pump_wake = WaitQueue(sim)
    follower_wakes = {vid: WaitQueue(sim) for vid in follower_queues}
    publish_cost = cycles(DEFAULT_COSTS.stream.ring_publish)
    copy_cost = cycles(DEFAULT_COSTS.stream.ring_publish
                       + DEFAULT_COSTS.stream.ring_consume)

    def producer():
        for i in range(events):
            yield Compute(publish_cost)
            leader_queue.append(syscall_event("close", 0, i + 1, 0))
            pump_wake.notify_all()

    def pump():
        dispatched = 0
        while dispatched < events:
            if not leader_queue:
                yield from pump_wake.wait()
                continue
            event = leader_queue.pop(0)
            dispatched += 1
            for vid, queue in follower_queues.items():
                yield Compute(copy_cost)  # dispatch into each queue
                queue.append(event)
                follower_wakes[vid].notify_all()

    def consumer(vid):
        consumed = 0
        queue = follower_queues[vid]
        while consumed < events:
            if not queue:
                yield from follower_wakes[vid].wait()
                continue
            queue.pop(0)
            consumed += 1
            yield Compute(cycles(100))

    machine.spawn(producer(), name="prod")
    machine.spawn(pump(), name="pump")
    for vid in follower_queues:
        machine.spawn(consumer(vid), name=f"c{vid}")
    sim.run()
    return sim.now


# -- the three studies -----------------------------------------------------------


def pump_vs_ring(events: int = 2000,
                 consumer_counts=(1, 2, 4, 6)) -> ExperimentResult:
    result = ExperimentResult(
        "ablation-pump", "Event pump vs shared ring buffer (§3.3.1)")
    for consumers in consumer_counts:
        ring_ps = _stream_through_ring(events, consumers)
        pump_ps = _stream_through_pump(events, consumers)
        result.rows.append({
            "consumers": consumers,
            "ring_us": ring_ps / 1e6,
            "pump_us": pump_ps / 1e6,
            "pump_penalty": pump_ps / ring_ps,
        })
    result.notes = ("the pump's per-follower dispatch serialises: its "
                    "penalty grows with the number of followers")
    return result


def ring_capacity(events: int = 1500,
                  capacities=(1, 16, 256)) -> ExperimentResult:
    result = ExperimentResult(
        "ablation-capacity", "Ring capacity vs producer stalls (§6)")
    for capacity in capacities:
        sim_ps = _stream_through_ring(events, consumers=2,
                                      capacity=capacity,
                                      consumer_work_cycles=600)
        result.rows.append({
            "capacity": capacity,
            "time_us": sim_ps / 1e6,
        })
    result.notes = ("capacity 1 = the no-buffering security "
                    "configuration: divergence detection is immediate "
                    "but the leader stalls on every event")
    return result


def waitlock(events: int = 300) -> ExperimentResult:
    """Cost of waking waitlocked vs busy-waiting followers."""
    result = ExperimentResult(
        "ablation-waitlock", "Waitlock wake cost vs spin (§3.3.1)")
    # Blocking-hint consumers take the waitlock immediately; non-blocking
    # ones spin first. The leader pays the futex wake only for sleepers.
    for hint, label in ((True, "waitlock"), (False, "spin-first")):
        sim = Simulator()
        machine = Machine(sim, name="m")
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=256)
        ring.add_consumer(1)

        def producer():
            from repro.sim.core import Sleep

            for i in range(events):
                yield Sleep(3_000_000)  # slow producer: 3 µs apart
                yield from ring.publish(
                    syscall_event("close", 0, i + 1, 0))

        def consumer(blocking_hint):
            for _ in range(events):
                while ring.peek(1) is None:
                    yield from ring.wait_published(
                        blocking_hint,
                        lambda: ring.peek(1) is not None)
                ring.advance(1)

        machine.spawn(producer(), name="p")
        machine.spawn(consumer(hint), name="c")
        sim.run()
        result.rows.append({
            "mode": label,
            "time_us": sim.now / 1e6,
            "waitlock_sleeps": ring.stats.waitlock_sleeps,
            "spin_waits": ring.stats.spin_waits,
        })
    result.notes = ("with a slow producer, spinning degrades to the "
                    "waitlock after the spin budget — both modes "
                    "converge, but pure spinning would burn a core")
    return result


def run(config=None) -> ExperimentResult:
    """All three ablations merged into one report."""
    apply_config(config)
    merged = ExperimentResult("ablations",
                              "Design-choice ablations (§2.2/§3.3.1/§6)")
    for sub in (pump_vs_ring(), ring_capacity(), waitlock()):
        merged.rows.append({"study": sub.title})
        merged.rows.extend(sub.rows)
    return merged
