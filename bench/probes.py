"""Untraced probes that drive one layer's public API on its own.

They answer "how fast is this layer when nothing else is in the way",
which is the top of the 774k -> 268k -> 87k events/s ladder in
ROADMAP.md; the traced workloads say where the rest goes.  The shapes
are those of ``benchmarks/perf_harness.py`` (engine_churn, pump_ring,
cpu_loop), copied so the benchmark imports nothing from that file.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.core.events import syscall_event
from repro.core.ringbuffer import RingBuffer
from repro.costmodel import DEFAULT_COSTS
from repro.isa import AddressSpace, Cpu, Segment, assemble
from repro.sim.core import Block, Compute, Simulator, Sleep
from repro.sim.machine import Machine

REPEATS = 3


def _engine_churn(procs: int = 20, iters: int = 1000) -> int:
    """Compute/Sleep/Block dispatch churn; returns events processed."""
    sim = Simulator()
    machine = Machine(sim, name="probe")

    def worker(k):
        for i in range(iters):
            yield Compute(100 + (i + k) % 7)
            if i % 5 == 0:
                yield Sleep(50)
            if i % 11 == 0:
                yield Block(timeout_ps=25)

    for k in range(procs):
        machine.spawn(worker(k), name=f"w{k}")
    sim.run()
    return sim.events_processed


def _ring_pump(events: int = 3000, consumers: int = 3) -> int:
    """One producer, three spin-waiting consumers on a 256-slot ring."""
    sim = Simulator()
    machine = Machine(sim, name="probe")
    ring = RingBuffer(sim, DEFAULT_COSTS, capacity=256)
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
            ring.advance(vid)

    machine.spawn(producer(), name="leader")
    for vid in range(1, consumers + 1):
        machine.spawn(consumer(vid), name=f"follower{vid}")
    sim.run()
    return sim.events_processed


_CPU_LOOP = """
    movi rbx, {iterations}
    movi rcx, 0x20000000
    movi rdx, 7
    movi rsi, 3
loop:
    add rdx, rsi
    store [rcx+0], rdx
    load rax, [rcx+0]
    add rax, rdx
    push rax
    pop rdi
    addi rdx, 13
    cmp rdx, rsi
    subi rbx, 1
    jnz loop
    hlt
"""


def _cpu_loop(iterations: int, translate: bool) -> Callable[[], int]:
    def run() -> int:
        space = AddressSpace()
        space.map(Segment(0x1000, assemble(
            _CPU_LOOP.format(iterations=iterations), origin=0x1000),
            perms="rx", name="text"))
        space.map(Segment(0x2000_0000, bytes(0x1000), perms="rw",
                          name="data"))
        space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw",
                          name="stack"))
        cpu = Cpu(space, 0x1000, 0x7FF0_4000, name="probe",
                  translate=translate)
        cpu.run_sync(max_insns=20_000_000)
        return cpu.insns_retired
    return run


#: metric -> (callable returning work done, divisor for the unit)
PROBES: Dict[str, Tuple[Callable[[], int], float]] = {
    "probe.sim.engine_churn_eps": (_engine_churn, 1.0),
    "probe.core.ringbuffer.pump_eps": (_ring_pump, 1.0),
    "probe.isa.cached_mips": (_cpu_loop(30_000, True), 1e6),
    "probe.isa.interp_mips": (_cpu_loop(3_000, False), 1e6),
}


def run_probes() -> Dict[str, float]:
    """Median-of-:data:`REPEATS` rate of every probe."""
    out = {}
    for name, (probe, divisor) in PROBES.items():
        rates = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            work = probe()
            rates.append(work / (time.perf_counter() - started) / divisor)
        out[name] = statistics.median(rates)
    return out
