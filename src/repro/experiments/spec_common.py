"""Shared SPEC CPU runner for Figures 7-8 and the Table 2 suite rows.

SPEC programs are CPU-bound: their NVX overhead is dominated by memory
pressure from co-running variants (modelled by
:func:`repro.apps.spec.memory_pressure_factor`) plus the per-syscall
monitor cost, which the DES measures directly.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Tuple

from repro.apps.spec import (
    CPU2000,
    CPU2006,
    SpecBenchmark,
    make_spec,
    memory_pressure_factor,
    spec_image,
)
from repro.core.coordinator import VersionSpec
from repro.nvx.lockstep import MonitorProfile
from repro.world import World


def _scaled(benchmark: SpecBenchmark, scale: float) -> SpecBenchmark:
    return replace(benchmark,
                   compute_cycles=max(1_000_000,
                                      int(benchmark.compute_cycles * scale)))


def run_spec_native(benchmark: SpecBenchmark, scale: float = 1.0) -> int:
    """Virtual completion time (ps) of one native run."""
    world = World()
    bench = _scaled(benchmark, scale)
    task = world.spawn(make_spec(bench), name=bench.name)
    world.run()
    thread = task.threads[0]
    if thread.exception is not None:
        raise thread.exception
    return world.now


def run_spec_varan(benchmark: SpecBenchmark, followers: int,
                   scale: float = 1.0) -> int:
    """Virtual completion time (ps) of the leader under Varan."""
    world = World()
    bench = _scaled(benchmark, scale)
    versions = followers + 1
    pressure = memory_pressure_factor(bench, versions,
                                      world.server.spec)
    specs = [VersionSpec(f"v{i}",
                         make_spec(bench, compute_scale=pressure),
                         image=spec_image(bench))
             for i in range(versions)]
    session = world.nvx(specs).start()
    finish = {}

    def watch():
        # Wait for session setup, then arm a completion callback on the
        # leader's main thread — exact finish time, no polling error.
        from repro.sim.core import Sleep

        while not session.ready:
            yield Sleep(50_000_000)
        leader_thread = session.variants[0].tasks[0].threads[0]
        leader_thread.on_done(lambda _p: finish.setdefault("ps",
                                                           world.sim.now))

    world.server.spawn(watch(), name="watch", daemon=True)
    world.run()
    return finish.get("ps", world.now) - session.stats.setup_ps


def run_spec_lockstep(benchmark: SpecBenchmark,
                      profile: MonitorProfile,
                      scale: float = 1.0) -> int:
    """Virtual completion time (ps) under a ptrace lockstep monitor
    (two versions, like the prior systems)."""
    world = World()
    bench = _scaled(benchmark, scale)
    pressure = memory_pressure_factor(bench, 2, world.server.spec)
    specs = [VersionSpec(f"v{i}",
                         make_spec(bench, compute_scale=pressure))
             for i in range(2)]
    session = world.lockstep(specs, profile=profile).start()
    world.run()
    return world.now


def spec_suite(suite: str) -> Tuple[SpecBenchmark, ...]:
    return CPU2000 if suite == "cpu2000" else CPU2006


def spec_overheads(suite: str, profile: MonitorProfile,
                   scale: float = 0.2):
    """(prior geomean overhead, Varan geomean overhead) over a suite."""
    prior_ratios = []
    varan_ratios = []
    for benchmark in spec_suite(suite):
        native = run_spec_native(benchmark, scale)
        prior_ratios.append(
            run_spec_lockstep(benchmark, profile, scale) / native)
        varan_ratios.append(
            run_spec_varan(benchmark, followers=1, scale=scale) / native)
    return _geomean(prior_ratios), _geomean(varan_ratios)


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
