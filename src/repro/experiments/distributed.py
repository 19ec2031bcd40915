"""Distributed NVX: followers on remote machines (the dMVX trade-off).

Varan's ring assumes shared memory; dMVX (Voulimeneas et al., 2020)
moves followers to other machines for isolation and pays for it in
network bandwidth, then claws most of it back with *selective
replication* — only externally-visible results are shipped, while
locally-regenerable ones (file reads, stat) are re-executed on the
follower's replica of the environment.

This driver measures the same trade-off on our substrate: a
syscall-heavy workload under (a) the local shared-memory ring, (b) the
networked ring with full replication, (c) selective replication, (d)
selective replication plus frame compression — plus a
cross-machine failover run where the *leader's whole machine* is
crashed mid-workload and a remote follower is promoted.
"""

from __future__ import annotations

from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.core.netring import REPLICATE_FULL, REPLICATE_SELECTIVE
from repro.costmodel import US_PS
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.faults.plan import Fault, FaultPlan, MACHINE_CRASH
from repro.world import World

#: dMVX (arXiv:2011.02091) headline shape: naive cross-machine
#: replication is ruinous; selective replication recovers most of it
#: (their geomean overhead drops from ~3.5x to ~1.5x on lighttpd-class
#: workloads, with network volume cut by more than half).
PAPER_DMVX = {
    "remote_full_worse_than_local": True,
    "selective_bytes_saved_fraction_at_least": 0.3,
}

DATA_PATH = "/dmvx/data"
DATA_SIZE = 4096

MACHINES = ("server", "client", "replica1", "replica2")


def _workload(iters: int):
    """A pread-heavy loop: mostly locally-regenerable syscalls, with a
    write mixed in so selective replication still ships something."""

    def main(ctx):
        from repro.kernel.uapi import O_CREAT, O_WRONLY

        acc = 0
        fd = yield from ctx.open(DATA_PATH)
        log = yield from ctx.open("/dmvx/log", O_WRONLY | O_CREAT)
        for i in range(iters):
            data = yield from ctx.pread(fd, 64, (i * 97) % (DATA_SIZE - 64))
            acc = (acc + data[0]) & 0xFFFF
            if i % 8 == 0:
                yield from ctx.write(log, b"tick %d\n" % i)
            yield from ctx.compute(2_000)
        yield from ctx.close(log)
        yield from ctx.close(fd)
        return acc

    return main


def _make_world() -> World:
    world = World(machine_names=MACHINES)
    data = bytes((i * 31) & 0xFF for i in range(DATA_SIZE))
    # Every machine that may host (or inherit) the leader needs its own
    # replica of the data file: a promoted remote follower re-executes
    # reads natively against local state.
    for name in ("server", "replica1", "replica2"):
        world.kernel.fs(world.machine(name)).create(DATA_PATH, data)
    return world


def _run(iters: int, followers: int, placement=None,
         replicate=REPLICATE_FULL, compress=False, fault_plan=None):
    """One session run; returns (session, elapsed_us)."""
    world = _make_world()
    main = _workload(iters)
    specs = [VersionSpec(f"v{i}", main) for i in range(followers + 1)]
    config = SessionConfig(placement=placement, replicate=replicate,
                           compress=compress, fault_plan=fault_plan)
    session = world.nvx(specs, config=config).start()
    world.run()
    return session, world.sim.now / US_PS


def _run_native(iters: int) -> float:
    world = _make_world()
    world.spawn(_workload(iters), name="native")
    world.run()
    return world.sim.now / US_PS


def _net_row(session):
    """Network counters of the session's root ring (zero when local)."""
    if not session.distributed:
        return {"net_frames": 0, "net_kb": 0.0, "saved_kb": 0.0}
    net = session.root_tuple.ring.net
    return {"net_frames": net.frames,
            "net_kb": net.bytes / 1024.0,
            "saved_kb": net.bytes_saved / 1024.0}


def run(config=None, iters: int = 48, followers: int = 2,
        placement: str = "remote") -> ExperimentResult:
    values = apply_config(config, iters=iters, followers=followers,
                          placement=placement)
    iters = values["iters"]
    followers = values["followers"]
    placement = values["placement"]

    result = ExperimentResult(
        "distributed", "Distributed NVX (dMVX selective replication)",
        paper_reference=PAPER_DMVX)

    native_us = _run_native(iters)
    result.rows.append({"scenario": "native", "time_us": native_us,
                        "overhead": 1.0, "net_frames": 0,
                        "net_kb": 0.0, "saved_kb": 0.0})

    remote_map = {i: ("replica1", "replica2")[(i - 1) % 2]
                  for i in range(1, followers + 1)}
    scenarios = [("varan local", None, REPLICATE_FULL, False)]
    if placement == "remote":
        scenarios += [
            ("remote full", remote_map, REPLICATE_FULL, False),
            ("remote selective", remote_map, REPLICATE_SELECTIVE, False),
            ("remote selective+zip", remote_map, REPLICATE_SELECTIVE, True),
        ]
    remote_full_us = None
    for scenario, pmap, replicate, compress in scenarios:
        session, elapsed_us = _run(iters, followers, placement=pmap,
                                   replicate=replicate, compress=compress)
        if scenario == "remote full":
            remote_full_us = elapsed_us
        row = {"scenario": scenario, "time_us": elapsed_us,
               "overhead": elapsed_us / native_us}
        row.update(_net_row(session))
        result.rows.append(row)

    if placement == "remote":
        # Cross-machine failover: kill the leader's whole machine at
        # half the fault-free remote runtime (well past session setup,
        # well before completion); a remote follower must take over
        # and finish.
        plan = FaultPlan((Fault(MACHINE_CRASH, machine="server",
                                at_ps=int(remote_full_us * US_PS) // 2),))
        fsession, failover_us = _run(iters, followers,
                                     placement=remote_map,
                                     fault_plan=plan)
        survivors = [v for v in fsession.variants if v.alive]
        row = {"scenario": "remote machine-crash failover",
               "time_us": failover_us,
               "overhead": failover_us / native_us,
               "promotions": fsession.stats.promotions,
               "survivors": len(survivors)}
        row.update(_net_row(fsession))
        result.rows.append(row)

    result.notes = ("remote full ships every event cross-machine; "
                    "selective elides locally-regenerable payloads "
                    "(pread/stat), reproducing dMVX's bandwidth claw-back")
    return result
