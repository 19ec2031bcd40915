#!/usr/bin/env python
"""Wall-clock performance harness for the simulation substrate.

Three suites:

``substrate``
    Microbenchmarks of the DES engine hot path — events processed per
    wall-clock second for (a) raw process churn (Compute/Sleep/Block
    dispatch) and (b) the leader→followers ring-buffer pump.  Results go
    to ``benchmarks/BENCH_substrate.json``; ``--check`` re-measures and
    fails if any workload regressed more than ``--tolerance`` (default
    30%) against the committed numbers — that is the CI smoke gate.

``cpu``
    Guest-MIPS of the VX86 interpreter on the ``cpu_loop`` workload,
    through the translation cache and through per-step decode.  Results
    go to ``benchmarks/BENCH_cpu.json``; ``--check`` fails if cached
    MIPS regressed beyond ``--tolerance`` *or* the cached/per-step
    speedup drops below the committed floor (machine-independent).

``sweep``
    Wall-clock seconds for a representative experiment-sweep slice run
    through :mod:`repro.experiments.runner`, serial and with ``--jobs``.
    Results go to ``benchmarks/BENCH_sweep.json``.

Wall-clock only: none of this touches virtual time.  The invariant that
these optimizations never shift simulated results is enforced
separately by ``python -m repro sweep --check-reference`` and
``tests/test_runner.py``.

Usage::

    python benchmarks/perf_harness.py substrate
    python benchmarks/perf_harness.py substrate --check --tolerance 0.30
    python benchmarks/perf_harness.py cpu
    python benchmarks/perf_harness.py cpu --check
    python benchmarks/perf_harness.py cpu --profile   # cProfile hot paths
    python benchmarks/perf_harness.py sweep --jobs 2
    python benchmarks/perf_harness.py all
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

SUBSTRATE_JSON = os.path.join(_REPO_ROOT, "benchmarks",
                              "BENCH_substrate.json")
CPU_JSON = os.path.join(_REPO_ROOT, "benchmarks", "BENCH_cpu.json")
SWEEP_JSON = os.path.join(_REPO_ROOT, "benchmarks", "BENCH_sweep.json")

#: The cached/per-step guest-MIPS ratio the cpu gate enforces.  Wall
#: clocks differ across machines but the *ratio* is stable, so this part
#: of the gate travels.
CPU_SPEEDUP_FLOOR = 3.0

#: Superblock+chaining+fusion over the plain basic-block cache
#: (``translate="blocks"``) — the machine-independent floor for the
#: direct-threaded hot path itself.
SUPERBLOCK_VS_BLOCK_FLOOR = 2.0

#: The last committed ``cached_mips`` before superblock translation
#: (PR 3's basic-block cache as measured by the CI runner).  The cpu
#: gate requires the current cached rate to clear 3x this figure.
PR3_CACHED_BASELINE = 0.65
PR3_RATIO_FLOOR = 3.0

#: Sweep slice used for the wall-clock benchmark: small enough for CI,
#: broad enough to exercise servers, failover and the ring ablations.
SWEEP_SLICE = ("ablations", "failover-5.1", "figure6", "sanitization-5.3")
SWEEP_SCALE = 0.008


# -- substrate workloads ----------------------------------------------------

def engine_churn(procs: int = 20, iters: int = 2000) -> int:
    """Raw engine throughput: Compute/Sleep/Block dispatch churn.

    Returns the number of simulator events processed.
    """
    from repro.sim.core import Block, Compute, Simulator, Sleep
    from repro.sim.machine import Machine

    sim = Simulator()
    machine = Machine(sim, name="bench")

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


def pump_ring(events: int = 3000, consumers: int = 3,
              capacity: int = 256) -> int:
    """Leader→followers event pump through the shared ring buffer.

    One producer publishes ``events`` syscall events; ``consumers``
    spin-waiting followers drain them.  Returns the number of simulator
    events processed.
    """
    from repro.core.events import syscall_event
    from repro.core.ringbuffer import RingBuffer
    from repro.costmodel import DEFAULT_COSTS
    from repro.sim.core import Simulator
    from repro.sim.machine import Machine

    sim = Simulator()
    machine = Machine(sim, name="bench")
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
            ring.advance(vid)

    machine.spawn(producer(), name="leader")
    for vid in range(1, consumers + 1):
        machine.spawn(consumer(vid), name=f"follower{vid}")
    sim.run()
    return sim.events_processed


SUBSTRATE_WORKLOADS = {
    "engine_churn": engine_churn,
    "pump_ring": pump_ring,
}


def measure_substrate(repeats: int = 3) -> dict:
    """Best-of-``repeats`` events/sec for every substrate workload."""
    results = {}
    for name, workload in SUBSTRATE_WORKLOADS.items():
        best_rate = 0.0
        events = 0
        for _ in range(repeats):
            started = time.perf_counter()
            events = workload()
            elapsed = time.perf_counter() - started
            best_rate = max(best_rate, events / elapsed)
        results[name] = {
            "events": events,
            "events_per_sec": round(best_rate, 1),
        }
    return results


# -- guest MIPS -------------------------------------------------------------

#: Arithmetic + memory + stack + branch mix, 12 instructions/iteration.
_CPU_LOOP_SOURCE = """
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


def _cpu_loop_build(iterations: int, translate: bool):
    from repro.isa.assembler import assemble
    from repro.isa.cpu import Cpu
    from repro.isa.memory import AddressSpace, Segment

    code = assemble(_CPU_LOOP_SOURCE.format(iterations=iterations),
                    origin=0x1000)
    space = AddressSpace()
    space.map(Segment(0x1000, code, perms="rx", name="text"))
    space.map(Segment(0x2000_0000, bytes(0x1000), perms="rw", name="data"))
    space.map(Segment(0x7FF0_0000, bytes(0x4000), perms="rw", name="stack"))
    return Cpu(space, 0x1000, 0x7FF0_4000, name="bench",
               translate=translate)


def cpu_loop(iterations: int = 60_000, translate: bool = True):
    """Run the guest loop; returns (instructions retired, seconds)."""
    cpu = _cpu_loop_build(iterations, translate)
    started = time.perf_counter()
    cpu.run_sync(max_insns=20_000_000)
    elapsed = time.perf_counter() - started
    return cpu.insns_retired, elapsed


def measure_cpu(repeats: int = 3, iterations: int = 60_000) -> dict:
    """Best-of-``repeats`` guest MIPS: superblock cache, plain
    basic-block cache, and per-step decode."""
    rates = {}
    insns = 0
    for label, translate in (("cached", True), ("block", "blocks"),
                             ("interp", False)):
        best = 0.0
        for _ in range(repeats):
            insns, elapsed = cpu_loop(iterations, translate=translate)
            best = max(best, insns / elapsed / 1e6)
        rates[label] = best
    return {
        "cpu_loop": {
            "instructions": insns,
            "cached_mips": round(rates["cached"], 3),
            "block_mips": round(rates["block"], 3),
            "interp_mips": round(rates["interp"], 3),
            "speedup_x": round(rates["cached"] / rates["interp"], 2),
            "superblock_vs_block_x": round(
                rates["cached"] / rates["block"], 2),
        }
    }


def measure_event_codec(repeats: int = 3, count: int = 200_000) -> dict:
    """Packed 64-byte event line vs the per-field encoder it replaced.

    Measures million-packs/sec for :func:`repro.core.events.pack_event`
    (one pre-compiled Struct for the whole line), for a field-at-a-time
    reference doing one ``struct.pack`` per field (the old shape of the
    seal/encode paths), and for the unpack side.
    """
    import struct

    from repro.core.events import (ETYPE_CODES, pack_event, syscall_event,
                                   unpack_event)

    mask = 2 ** 64 - 1
    event = syscall_event("read", 0, 5, 512, args=(3, 512, 4096))

    def per_field_pack(ev):
        out = struct.pack("<B", ETYPE_CODES[ev.etype] | len(ev.args) << 4)
        out += struct.pack("<B", ev.tindex & 0xFF)
        out += struct.pack("<H", ev.nr & 0xFFFF)
        out += struct.pack("<I", ev.clock & 0xFFFF_FFFF)
        out += struct.pack("<Q", ev.retval & mask)
        for arg in ev.args:
            out += struct.pack("<Q", arg & mask)
        return out + b"\x00" * (8 * (6 - len(ev.args)))

    line = pack_event(event)
    assert per_field_pack(event) == line  # same 64 bytes, same layout

    def rate(fn, arg):
        best = 0.0
        loop = range(count)
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in loop:
                fn(arg)
            elapsed = time.perf_counter() - started
            best = max(best, count / elapsed / 1e6)
        return best

    packed = rate(pack_event, event)
    per_field = rate(per_field_pack, event)
    unpack = rate(unpack_event, line)
    return {
        "packed_mops": round(packed, 3),
        "per_field_mops": round(per_field, 3),
        "unpack_mops": round(unpack, 3),
        "packed_vs_per_field_x": round(packed / per_field, 2),
    }


def check_cpu(measured: dict, tolerance: float) -> int:
    """Exit status 1 on MIPS regression or any ratio below its floor."""
    try:
        with open(CPU_JSON) as fh:
            committed = json.load(fh)
    except FileNotFoundError:
        print(f"no committed baseline at {CPU_JSON}; "
              f"run without --check first", file=sys.stderr)
        return 2
    status = 0
    for name, entry in committed["workloads"].items():
        baseline = entry["cached_mips"]
        current = measured[name]["cached_mips"]
        floor = baseline * (1.0 - tolerance)
        verdict = "ok" if current >= floor else "REGRESSED"
        print(f"{name}: {current:.2f} guest MIPS vs baseline "
              f"{baseline:.2f} (floor {floor:.2f}) {verdict}")
        if current < floor:
            status = 1
        for ratio_key, ratio_floor, label in (
                ("speedup_x", CPU_SPEEDUP_FLOOR, "cached/per-step"),
                ("superblock_vs_block_x", SUPERBLOCK_VS_BLOCK_FLOOR,
                 "superblock/basic-block")):
            ratio = measured[name][ratio_key]
            verdict = "ok" if ratio >= ratio_floor else "REGRESSED"
            print(f"{name}: {label} ratio {ratio:.2f}x "
                  f"(floor {ratio_floor:.1f}x) {verdict}")
            if ratio < ratio_floor:
                status = 1
        pr3_ratio = current / PR3_CACHED_BASELINE
        verdict = "ok" if pr3_ratio >= PR3_RATIO_FLOOR else "REGRESSED"
        print(f"{name}: {pr3_ratio:.2f}x over the PR 3 committed "
              f"baseline ({PR3_CACHED_BASELINE} MIPS, floor "
              f"{PR3_RATIO_FLOOR:.1f}x) {verdict}")
        if pr3_ratio < PR3_RATIO_FLOOR:
            status = 1
    return status


# -- sweep wall-clock -------------------------------------------------------

def measure_sweep(jobs: int) -> dict:
    from repro.experiments import runner

    results = {}
    for label, n in (("serial", 1), (f"jobs{jobs}", jobs)):
        if label in results:
            continue
        started = time.perf_counter()
        swept = runner.run_sweep(jobs=n, scale=SWEEP_SCALE,
                                 experiments=list(SWEEP_SLICE))
        elapsed = time.perf_counter() - started
        results[label] = {
            "jobs": n,
            "seconds": round(elapsed, 2),
            "experiments": len(swept),
        }
        if jobs <= 1:
            break
    return results


# -- plumbing ---------------------------------------------------------------

def _meta() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, _REPO_ROOT)}")


def check_substrate(measured: dict, tolerance: float) -> int:
    """Exit status 1 if any workload regressed beyond ``tolerance``."""
    try:
        with open(SUBSTRATE_JSON) as fh:
            committed = json.load(fh)
    except FileNotFoundError:
        print(f"no committed baseline at {SUBSTRATE_JSON}; "
              f"run without --check first", file=sys.stderr)
        return 2
    status = 0
    for name, entry in committed["workloads"].items():
        baseline = entry["events_per_sec"]
        current = measured[name]["events_per_sec"]
        floor = baseline * (1.0 - tolerance)
        verdict = "ok" if current >= floor else "REGRESSED"
        print(f"{name}: {current:.0f} ev/s vs baseline {baseline:.0f} "
              f"(floor {floor:.0f}) {verdict}")
        if current < floor:
            status = 1
    return status


def _profiled(fn, *args, **kwargs):
    """Run ``fn`` under cProfile, print the hottest frames, return its
    result — the hot-path hunting loop behind every perf PR."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=("substrate", "cpu", "sweep",
                                          "all"))
    parser.add_argument("--repeats", type=int, default=3,
                        help="substrate/cpu: repetitions, "
                             "best kept")
    parser.add_argument("--jobs", type=int, default=2,
                        help="sweep: parallel worker count to time")
    parser.add_argument("--check", action="store_true",
                        help="substrate/cpu: compare against the "
                             "committed baseline instead of writing")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="--check: allowed fractional regression "
                             "(default 0.30)")
    parser.add_argument("--profile", action="store_true",
                        help="run the selected suites under cProfile "
                             "and print the hottest frames")
    args = parser.parse_args(argv)
    measure = _profiled if args.profile else lambda fn, **kw: fn(**kw)
    if args.profile:
        # Profiler overhead distorts the numbers: never write them as a
        # baseline or judge a regression gate from them.
        args.check = False

    status = 0
    if args.suite in ("substrate", "all"):
        measured = measure(measure_substrate, repeats=args.repeats)
        for name, entry in measured.items():
            print(f"{name}: {entry['events_per_sec']:.0f} events/sec "
                  f"({entry['events']} events)")
        if args.check:
            status = check_substrate(measured, args.tolerance)
        elif not args.profile:
            write_json(SUBSTRATE_JSON,
                       {"meta": _meta(), "workloads": measured})
    if status == 0 and args.suite in ("cpu", "all"):
        measured = measure(measure_cpu, repeats=args.repeats)
        for name, entry in measured.items():
            print(f"{name}: {entry['cached_mips']:.2f} guest MIPS cached "
                  f"(superblocks), {entry['block_mips']:.2f} basic-block, "
                  f"{entry['interp_mips']:.2f} per-step "
                  f"({entry['speedup_x']:.2f}x over per-step, "
                  f"{entry['superblock_vs_block_x']:.2f}x over blocks, "
                  f"{entry['instructions']} insns)")
        codec = measure_event_codec(repeats=args.repeats)
        print(f"event_codec: {codec['packed_mops']:.2f} M packs/s packed "
              f"vs {codec['per_field_mops']:.2f} per-field "
              f"({codec['packed_vs_per_field_x']:.2f}x), "
              f"{codec['unpack_mops']:.2f} M unpacks/s")
        if args.check:
            status = check_cpu(measured, args.tolerance)
        elif not args.profile:
            write_json(CPU_JSON, {"meta": _meta(), "workloads": measured,
                                  "event_codec": codec})
    if status == 0 and args.suite in ("sweep", "all"):
        timed = measure_sweep(jobs=args.jobs)
        for label, entry in timed.items():
            print(f"sweep[{label}]: {entry['seconds']}s "
                  f"({entry['experiments']} experiments)")
        if not args.check and not args.profile:
            write_json(SWEEP_JSON, {
                "meta": _meta(),
                "scale": SWEEP_SCALE,
                "experiments": list(SWEEP_SLICE),
                "runs": timed,
            })
    return status


if __name__ == "__main__":
    raise SystemExit(main())
