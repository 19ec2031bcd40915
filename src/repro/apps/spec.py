"""SPEC CPU2000 / CPU2006 workload models (Figures 7-8).

Each benchmark is a CPU-bound kernel with a characteristic *syscall
density* (calls per million compute cycles — SPEC programs mostly read
an input once, compute, and write results) and a *memory intensity*
used by the cache/memory-pressure model: the paper attributes SPEC's
poor scaling with follower count to memory pressure and caching effects
on a four-physical-core machine (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.costmodel import MachineSpec
from repro.kernel.uapi import O_CREAT, O_RDWR
from repro.runtime.image import SiteSpec, build_image


@dataclass(frozen=True)
class SpecBenchmark:
    name: str
    suite: str  # "cpu2000" | "cpu2006"
    #: Total compute cycles for our (scaled-down) run.
    compute_cycles: int
    #: File-I/O syscalls issued per million compute cycles.
    syscall_density: float
    #: 0..1: how sensitive the kernel is to sharing caches/memory
    #: bandwidth with its co-running variants.
    memory_intensity: float


CPU2000: Tuple[SpecBenchmark, ...] = (
    SpecBenchmark("164.gzip", "cpu2000", 40_000_000, 0.50, 0.30),
    SpecBenchmark("175.vpr", "cpu2000", 40_000_000, 0.20, 0.45),
    SpecBenchmark("176.gcc", "cpu2000", 40_000_000, 1.50, 0.55),
    SpecBenchmark("181.mcf", "cpu2000", 40_000_000, 0.07, 0.95),
    SpecBenchmark("186.crafty", "cpu2000", 40_000_000, 0.12, 0.15),
    SpecBenchmark("197.parser", "cpu2000", 40_000_000, 0.30, 0.40),
    SpecBenchmark("252.eon", "cpu2000", 40_000_000, 0.15, 0.10),
    SpecBenchmark("253.perlbmk", "cpu2000", 40_000_000, 1.00, 0.35),
    SpecBenchmark("254.gap", "cpu2000", 40_000_000, 0.38, 0.50),
    SpecBenchmark("255.vortex", "cpu2000", 40_000_000, 0.75, 0.60),
    SpecBenchmark("256.bzip2", "cpu2000", 40_000_000, 0.25, 0.45),
    SpecBenchmark("300.twolf", "cpu2000", 40_000_000, 0.10, 0.50),
)

CPU2006: Tuple[SpecBenchmark, ...] = (
    SpecBenchmark("400.perlbench", "cpu2006", 40_000_000, 1.25, 0.40),
    SpecBenchmark("401.bzip2", "cpu2006", 40_000_000, 0.25, 0.50),
    SpecBenchmark("403.gcc", "cpu2006", 40_000_000, 1.50, 0.65),
    SpecBenchmark("429.mcf", "cpu2006", 40_000_000, 0.07, 1.00),
    SpecBenchmark("445.gobmk", "cpu2006", 40_000_000, 0.50, 0.25),
    SpecBenchmark("456.hmmer", "cpu2006", 40_000_000, 0.20, 0.15),
    SpecBenchmark("458.sjeng", "cpu2006", 40_000_000, 0.10, 0.20),
    SpecBenchmark("462.libquantum", "cpu2006", 40_000_000, 0.05, 0.90),
    SpecBenchmark("464.h264ref", "cpu2006", 40_000_000, 0.38, 0.35),
    SpecBenchmark("471.omnetpp", "cpu2006", 40_000_000, 0.25, 0.85),
    SpecBenchmark("473.astar", "cpu2006", 40_000_000, 0.12, 0.75),
    SpecBenchmark("483.xalancbmk", "cpu2006", 40_000_000, 0.75, 0.80),
)

ALL_SPEC: Dict[str, SpecBenchmark] = {
    b.name: b for b in CPU2000 + CPU2006}

SPEC_SITES = [
    SiteSpec("spec_open", "open"),
    SiteSpec("spec_read", "read"),
    SiteSpec("spec_write", "write"),
    SiteSpec("spec_close", "close"),
    SiteSpec("spec_brk", "brk"),
    SiteSpec("spec_time", "time", vdso="time"),
]


def spec_image(benchmark: SpecBenchmark):
    return build_image(benchmark.name, SPEC_SITES)


def memory_pressure_factor(benchmark: SpecBenchmark, variants: int,
                           machine: MachineSpec) -> float:
    """Slowdown from co-running ``variants`` copies of the benchmark.

    Calibrated against Figures 7-8: low-intensity kernels barely notice
    followers, while mcf-class kernels degrade steeply once the variant
    count exceeds the physical core count (hyper-threads share caches)
    and approaches the logical core count.
    """
    if variants <= 1:
        return 1.0
    physical = machine.physical_cores
    # Sharing among hyperthread pairs starts immediately; capacity
    # pressure ramps once variants exceed the physical cores.
    smt_share = 0.18 * benchmark.memory_intensity * min(
        variants - 1, physical)
    over = max(0, variants - physical)
    capacity = 0.55 * benchmark.memory_intensity * over
    return 1.0 + smt_share + capacity


def make_spec(benchmark: SpecBenchmark, compute_scale: float = 1.0):
    """Build the benchmark generator.

    ``compute_scale`` multiplies all compute — the experiment layer sets
    it from :func:`memory_pressure_factor` for the NVX configurations.
    """
    input_path = f"/tmp/{benchmark.name}.in"
    output_path = f"/tmp/{benchmark.name}.out"
    chunk_cycles = 500_000

    def main(ctx):
        fd_in = yield from ctx.open(input_path, O_CREAT | O_RDWR,
                                    site="spec_open")
        fd_out = yield from ctx.open(output_path, O_CREAT | O_RDWR,
                                     site="spec_open")
        yield from ctx.time(site="spec_time")

        total = benchmark.compute_cycles
        per_chunk_calls = (benchmark.syscall_density
                           * chunk_cycles / 1_000_000)
        call_debt = 0.0
        done = 0
        while done < total:
            chunk = min(chunk_cycles, total - done)
            yield from ctx.compute(chunk * compute_scale)
            done += chunk
            call_debt += per_chunk_calls
            while call_debt >= 1.0:
                call_debt -= 1.0
                yield from ctx.read(fd_in, 4096, site="spec_read")
                yield from ctx.write(fd_out, b"r" * 256,
                                     site="spec_write")
        yield from ctx.time(site="spec_time")
        yield from ctx.close(fd_in, site="spec_close")
        yield from ctx.close(fd_out, site="spec_close")
        return done

    return main
