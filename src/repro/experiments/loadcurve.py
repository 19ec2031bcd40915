"""Load curves: the open-loop client plane against NVX'd servers.

Two curves the paper's closed-loop tools cannot draw:

* **throughput-vs-followers** — achieved throughput and latency tails
  for the simulated redis under no monitor, Varan with 1..N local
  followers, and Varan with followers on remote machines (the dMVX
  placement), all at the same offered load; and
* **latency-vs-offered-load** — p50/p99/p999 against a sweep of offered
  loads under Varan, showing where the monitored server's latency knee
  sits relative to native.

Both are driven by :mod:`repro.clients.loadgen`: open-loop arrivals
with seeded determinism, so every cell is byte-stable across runs and
sweep parallelism.
"""

from __future__ import annotations

from repro.apps.redis import make_redis
from repro.clients.loadgen import OpenLoopConfig, make_open_loop, spawn_pool
from repro.clients.topology import LoadTopology
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.core.netring import REPLICATE_FULL, REPLICATE_SELECTIVE
from repro.costmodel import SEC_PS
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.world import World

#: Varan's own server results (§4.3): per-syscall monitor cost stays
#: small, so monitored latency tails should stay the same shape as
#: native until the offered load reaches the (lower) monitored knee.
PAPER_LOADCURVE = {
    "monitored_tail_same_shape": True,
    "remote_worse_than_local": True,
}

_REPLICAS = ("replica1", "replica2")

_PARTS = ("followers", "offered")


def parts():
    """Sweep decomposition: the two curves run independently."""
    return list(_PARTS)


def _run_cell(scenario: str, followers: int, remote: bool,
              clients: int, machines: int, rate_rps: float,
              duration_ps: int, seed: int) -> dict:
    """One (server monitor, offered load) cell; returns its row."""
    topology = LoadTopology(
        clients=clients, machines=machines,
        extra_machines=_REPLICAS if remote else ())
    world = World(machine_names=topology.machine_names())
    if followers == 0:
        world.spawn(make_redis(), name="redis", daemon=True)
    else:
        specs = [VersionSpec(f"v{i}", make_redis())
                 for i in range(followers + 1)]
        placement = None
        replicate = REPLICATE_FULL
        if remote:
            placement = {i: _REPLICAS[(i - 1) % len(_REPLICAS)]
                         for i in range(1, followers + 1)}
            replicate = REPLICATE_SELECTIVE
        world.nvx(specs, config=SessionConfig(
            daemon=True, placement=placement,
            replicate=replicate)).start()
    config = OpenLoopConfig(rate_rps=rate_rps, duration_ps=duration_ps,
                            seed=seed)
    placements, report, stats = make_open_loop(topology, config)
    spawn_pool(world, placements)
    # Arrivals stop at the duration; the slack drains in-flight
    # responses so the tail is measured, not truncated.
    world.run(until_ps=2 * duration_ps + SEC_PS)
    return {
        "scenario": scenario,
        "clients": clients,
        "offered_rps": rate_rps,
        "achieved_rps": report.throughput_rps,
        "p50_us": report.latency_percentile_us(50),
        "p99_us": report.latency_percentile_us(99),
        "p999_us": report.latency_percentile_us(99.9),
        "errors": report.errors,
        "timeouts": stats.timeouts,
        "reconnects": stats.reconnects,
    }


def run(config=None, clients: int = 1000, machines: int = 8,
        rate_rps: float = 20_000.0, followers: int = 2,
        offered_multipliers=(0.25, 0.5, 1.0, 2.0),
        duration_s: float = 1.0, seed: int = 0,
        scale: float = 1.0, curves=None) -> ExperimentResult:
    """``curves`` selects "followers" / "offered" (sweep decomposition);
    ``scale`` shrinks both the pool and the offered load together, so a
    sweep cell stays small while per-client behaviour is unchanged."""
    opts = apply_config(config, parts_key="curves", curves=curves,
                        clients=clients, machines=machines,
                        rate_rps=rate_rps, followers=followers,
                        offered_multipliers=offered_multipliers,
                        duration_s=duration_s, seed=seed, scale=scale)
    scale = opts["scale"]
    clients = max(4, int(round(opts["clients"] * scale)))
    machines = max(1, min(opts["machines"], clients))
    rate_rps = max(200.0, opts["rate_rps"] * scale)
    followers = opts["followers"]
    offered_multipliers = opts["offered_multipliers"]
    duration_ps = int(opts["duration_s"] * SEC_PS)
    seed = opts["seed"]
    selected = _PARTS if opts["curves"] is None else tuple(opts["curves"])

    result = ExperimentResult(
        "loadcurve", "Open-loop load curves vs monitor and placement",
        paper_reference=PAPER_LOADCURVE)

    if "followers" in selected:
        cells = [("native", 0, False)]
        cells += [(f"varan local f{n}", n, False)
                  for n in range(1, followers + 1)]
        cells += [(f"varan remote f{followers}", followers, True)]
        for scenario, n, remote in cells:
            result.rows.append(_run_cell(
                scenario, n, remote, clients, machines, rate_rps,
                duration_ps, seed))

    if "offered" in selected:
        for multiplier in offered_multipliers:
            row = _run_cell(
                f"varan local f{followers} x{multiplier:g}", followers,
                False, clients, machines, rate_rps * multiplier,
                duration_ps, seed)
            result.rows.append(row)

    result.notes = ("open-loop arrivals; latency charged from scheduled "
                    "arrival (coordinated-omission corrected); "
                    "p999 from power-of-2 digest")
    return result
