"""Actor-based open-loop load-generation plane.

The §4/§5 benchmark tools (:mod:`repro.clients.tools`) are
*closed-loop*: each client waits for a response before issuing the next
request, so a slow server quietly throttles its own offered load and
the measured latencies suffer coordinated omission.  This module drives
the opposite design, the one production load tests use:

* **Open-loop arrivals.**  Each pooled actor draws request arrival
  times from its own seeded RNG — Poisson (exponential gaps) or
  uniform (constant gaps, phase-staggered across the pool) — and the
  schedule never slows down because the server is slow.  Latency is
  measured from the *scheduled* arrival, not the send, so queueing
  delay behind a late response is charged to the server (the wrk2
  coordinated-omission correction).
* **A pooled actor plane.**  Thousands of client actors spread over a
  :class:`~repro.clients.topology.LoadTopology` of load-generator
  machines, each with connection churn (periodic reconnects) and a
  per-request retransmit watchdog that is scheduled on issue and
  cancelled on response.
* **Bounded, per-class measurement.**  Results land in a
  :class:`~repro.clients.base.ClientReport` whose digests give
  p50/p99/p999 per request class without holding per-sample lists.

Everything is deterministic: the same topology, config and seed yield
byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.clients.base import ClientReport, connect_with_retry, recv_until
from repro.costmodel import SEC_PS, US_PS
from repro.errors import NvxError
from repro.kernel.uapi import SysError

__all__ = ["RequestClass", "OpenLoopConfig", "LoadStats",
           "make_open_loop", "spawn_pool", "DEFAULT_CLASSES"]


@dataclass(frozen=True)
class RequestClass:
    """One request shape in the offered mix."""

    name: str
    line: bytes
    terminator: bytes = b"\r\n"
    weight: int = 1


#: A redis-benchmark-flavoured default mix: cheap pings, mid-cost reads,
#: heavier writes.
DEFAULT_CLASSES = (
    RequestClass("ping", b"PING\r\n", weight=2),
    RequestClass("get", b"GET lg:key\r\n", weight=2),
    RequestClass("set", b"SET lg:key v\r\n", weight=1),
)


@dataclass(frozen=True)
class OpenLoopConfig:
    """Offered load and client behaviour for one run."""

    #: Aggregate offered load over the whole pool, requests per
    #: (virtual) second.
    rate_rps: float = 50_000.0
    #: How long arrivals keep coming, from each actor's first schedule.
    duration_ps: int = 2 * SEC_PS
    #: "poisson" (exponential gaps) or "uniform" (constant gaps).
    arrivals: str = "poisson"
    seed: int = 0
    #: Reconnect after this many requests (0 disables churn).
    churn_every: int = 64
    #: Per-request retransmit watchdog; fires only if the response is
    #: slower than this (counted, never aborts the wait).
    timeout_ps: int = 50_000 * US_PS
    classes: Tuple[RequestClass, ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise NvxError(f"offered load must be > 0: {self.rate_rps}")
        if self.arrivals not in ("poisson", "uniform"):
            raise NvxError(f"unknown arrival process {self.arrivals!r} "
                           f"(choose 'poisson' or 'uniform')")
        if not self.classes:
            raise NvxError("need at least one request class")


@dataclass
class LoadStats:
    """Plane-level counters the report's digests don't cover."""

    timeouts: int = 0
    reconnects: int = 0
    #: Arrivals issued after their scheduled instant had already passed
    #: (the actor was still waiting on the previous response).
    late_arrivals: int = 0


def _class_of(config: OpenLoopConfig, index: int) -> RequestClass:
    """Deterministic weighted class assignment for actor ``index``."""
    expanded: List[RequestClass] = []
    for cls in config.classes:
        expanded.extend([cls] * max(1, cls.weight))
    return expanded[index % len(expanded)]


def make_open_loop(topology, config: OpenLoopConfig):
    """Build the actor pool.

    Returns ``(placements, report, stats)`` where ``placements`` is a
    list of ``(machine_name, actor_name, main)`` ready for
    :func:`spawn_pool`, and ``report``/``stats`` aggregate the whole
    pool's measurements.
    """
    report = ClientReport(name="open-loop")
    stats = LoadStats()
    mean_gap_ps = int(topology.clients * SEC_PS / config.rate_rps)
    if mean_gap_ps < 1:
        raise NvxError("offered load too high for pool size: "
                       f"{config.rate_rps} rps over {topology.clients}")

    def make_actor(index: int):
        cls = _class_of(config, index)
        # Independent per-actor stream: deterministic, and stable under
        # changes to the pool size ordering.
        rng = random.Random((config.seed << 24) ^ (index * 0x9E3779B1))
        poisson = config.arrivals == "poisson"
        # Phase-stagger the first arrival so "uniform" offers a flat
        # aggregate rate rather than a thundering herd.
        first_gap = (int(rng.expovariate(1.0) * mean_gap_ps) if poisson
                     else 1 + (index * mean_gap_ps) // topology.clients)

        def main(ctx):
            sim = ctx.sim
            fd = yield from connect_with_retry(ctx,
                                               (topology.server, 6379))
            next_at = sim.now + first_gap
            deadline = sim.now + config.duration_ps
            since_churn = 0
            while next_at < deadline:
                if sim.now < next_at:
                    yield from ctx.nanosleep(next_at - sim.now)
                else:
                    stats.late_arrivals += 1
                pending = [True]

                def on_timeout(p=pending):
                    if p[0]:
                        stats.timeouts += 1

                watchdog = sim.schedule(config.timeout_ps, on_timeout)
                try:
                    yield from ctx.send(fd, cls.line)
                    response = yield from recv_until(ctx, fd,
                                                     cls.terminator)
                except SysError:
                    response = b""
                pending[0] = False
                watchdog.cancel()
                if not response:
                    report.errors += 1
                    yield from ctx.close(fd)
                    fd = yield from connect_with_retry(
                        ctx, (topology.server, 6379))
                    stats.reconnects += 1
                else:
                    # Coordinated-omission corrected: charge from the
                    # scheduled arrival, not the (possibly late) send.
                    report.observe(sim.now - next_at, command=cls.name,
                                   now=sim.now)
                since_churn += 1
                if config.churn_every and since_churn >= config.churn_every:
                    yield from ctx.close(fd)
                    fd = yield from connect_with_retry(
                        ctx, (topology.server, 6379))
                    stats.reconnects += 1
                    since_churn = 0
                gap = (int(rng.expovariate(1.0) * mean_gap_ps) if poisson
                       else mean_gap_ps)
                next_at += max(1, gap)
            yield from ctx.close(fd)
            return report.requests

        return main

    placements = [(machine, f"c{index}", make_actor(index))
                  for index, machine in topology.placements()]
    return placements, report, stats


def spawn_pool(world, placements) -> None:
    """Spawn every pool actor on its topology-assigned machine."""
    for machine_name, actor_name, main in placements:
        world.kernel.spawn_task(world.machine(machine_name), main,
                                name=actor_name)
