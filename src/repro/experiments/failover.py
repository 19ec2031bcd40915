"""§5.1 — Transparent failover.

Experiment A: eight consecutive Redis revisions 9a22de8..7fb16ba run in
parallel; the last revision segfaults on a particular HMGET.  We measure
the latency of the triggering command with the buggy version as a
follower (no increase expected) and as the leader (latency covers crash
detection + promotion), plus the throughput of subsequent commands.

Experiment B: Lighttpd revisions 2437/2438, the latter with a crash bug;
latency of the triggering request must not increase in either order.
"""

from __future__ import annotations

from repro.apps import ServerStats, make_httpd, make_redis, redis_image
from repro.apps.httpd import LIGHTTPD
from repro.apps.redis import BUGGY_REVISION, REVISIONS
from repro.clients import make_redis_command_probe, make_wrk
from repro.clients.base import connect_with_retry, recv_until
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.costmodel import US_PS
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.world import World

PAPER_FAILOVER = {
    "redis_baseline_us": 42.36,
    "redis_leader_crash_us": 122.62,
    "redis_follower_crash_increase": 0.0,
    "lighttpd_latency_change_ms": 0.0,
}


def _run_redis_probe(buggy_position: str):
    """Run 8 Redis revisions and probe the crash-triggering HMGET.

    ``buggy_position``: 'leader', 'follower' or 'absent' (baseline).
    """
    world = World()
    if buggy_position == "leader":
        order = (BUGGY_REVISION,) + REVISIONS[:-1]
    elif buggy_position == "follower":
        order = REVISIONS[:-1] + (BUGGY_REVISION,)
    else:
        order = REVISIONS[:-1] + (REVISIONS[0],)
    specs = [VersionSpec(f"redis-{rev}-{i}",
                         make_redis(stats=ServerStats(), revision=rev,
                                    background_thread=False),
                         image=redis_image())
             for i, rev in enumerate(order)]
    session = world.nvx(specs, config=SessionConfig(daemon=True)).start()
    mains, report = make_redis_command_probe(b"HMGET missinghash f1 f2\r\n")
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="probe")
    world.run()
    probe_us = report.command_avg_us("probe")
    after_us = report.command_avg_us("after")
    return probe_us, after_us, session


def _run_lighttpd_pair(buggy_first: bool):
    """Lighttpd 2437/2438 with a request-triggered crash in 2438.

    The paper's triggering request takes ~5 ms, so even a leader-side
    failover (~80 µs) disappears in the noise — we reproduce that regime
    with a correspondingly heavy request handler.
    """
    from dataclasses import replace

    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"p" * 4096)
    trigger = b"GET /crash"
    heavy = replace(LIGHTTPD, respond_cycles=17_000_000)  # ~5 ms

    def rev2437():
        return make_httpd(heavy, stats=ServerStats())

    def rev2438():
        return make_httpd(heavy, stats=ServerStats(),
                          crash_on=trigger)

    factories = ([rev2438, rev2437] if buggy_first
                 else [rev2437, rev2438])
    specs = [VersionSpec(f"lighttpd-{i}", factory())
             for i, factory in enumerate(factories)]
    world.nvx(specs, config=SessionConfig(daemon=True)).start()
    timings = {}

    def client(ctx):
        fd = yield from connect_with_retry(ctx, ("server", 80))
        # Normal request first.
        start = ctx.sim.now
        yield from ctx.send(fd, b"GET / HTTP/1.1\r\n\r\n")
        yield from recv_until(ctx, fd, b"\r\n\r\n")
        timings["normal_us"] = (ctx.sim.now - start) / US_PS
        # The crash-triggering request.
        start = ctx.sim.now
        yield from ctx.send(fd, trigger + b" HTTP/1.1\r\n\r\n")
        response = yield from recv_until(ctx, fd, b"\r\n\r\n")
        timings["trigger_us"] = (ctx.sim.now - start) / US_PS
        timings["served"] = bool(response)
        yield from ctx.close(fd)
        return timings

    world.kernel.spawn_task(world.client, client, name="probe")
    world.run()
    return timings


def run(config=None) -> ExperimentResult:
    apply_config(config)
    result = ExperimentResult("failover-5.1", "Transparent failover",
                              paper_reference=PAPER_FAILOVER)

    baseline_us, baseline_after, _ = _run_redis_probe("absent")
    follower_us, follower_after, fsession = _run_redis_probe("follower")
    leader_us, leader_after, lsession = _run_redis_probe("leader")

    result.rows.append({
        "scenario": "redis HMGET baseline (no buggy version)",
        "latency_us": baseline_us, "after_us": baseline_after,
        "crashes": 0, "promotions": 0,
    })
    result.rows.append({
        "scenario": "redis buggy revision as follower",
        "latency_us": follower_us, "after_us": follower_after,
        "crashes": len(fsession.stats.crashes),
        "promotions": fsession.stats.promotions,
    })
    result.rows.append({
        "scenario": "redis buggy revision as leader",
        "latency_us": leader_us, "after_us": leader_after,
        "crashes": len(lsession.stats.crashes),
        "promotions": lsession.stats.promotions,
    })

    for buggy_first in (False, True):
        timings = _run_lighttpd_pair(buggy_first)
        result.rows.append({
            "scenario": ("lighttpd buggy as leader" if buggy_first
                         else "lighttpd buggy as follower"),
            "latency_us": timings["trigger_us"],
            "after_us": timings["normal_us"],
            "crashes": 1, "promotions": int(buggy_first),
        })
    result.notes = ("paper: 42.36us -> 122.62us when the buggy version "
                    "leads; no increase when it follows")
    return result
