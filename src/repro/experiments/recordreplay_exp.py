"""§5.4 — Record-replay.

Redis runs the redis-benchmark workload while its execution is recorded
to persistent storage, once by Varan's record client (an artificial
follower draining the ring to disk) and once by a Scribe-style in-kernel
recorder.  The paper measured 14% overhead for Varan vs 53% for Scribe.
The recorded log is then replayed against candidate versions to triage
a crash, as §5.4 suggests.
"""

from __future__ import annotations

from repro.apps import ServerStats, make_redis, redis_image
from repro.apps.redis import BUGGY_REVISION, REVISIONS
from repro.clients import make_redis_benchmark
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import (
    MONITOR_NATIVE,
    MONITOR_SCRIBE,
    ExperimentResult,
    overhead,
    run_server_benchmark,
)
from repro.recordreplay import Recorder, ReplaySession
from repro.world import World

PAPER_RECORD = {"scribe_overhead": 1.53, "varan_overhead": 1.14}


def _run_varan_record(scale: float):
    world = World()
    session = world.nvx(
        [VersionSpec("redis", make_redis(stats=ServerStats(),
                                         background_thread=False),
                     image=redis_image())],
        config=SessionConfig(daemon=True))
    recorder = Recorder(session, "/var/varan.log")
    session.start()
    mains, report = make_redis_benchmark(scale=scale)
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="bench")
    world.run()
    return report, recorder


def run(config=None, scale: float = 0.05) -> ExperimentResult:
    scale = apply_config(config, scale=scale)["scale"]
    result = ExperimentResult(
        "recordreplay-5.4", "Record-replay overhead vs Scribe",
        paper_reference=PAPER_RECORD)

    server = lambda: make_redis(stats=ServerStats(),
                                background_thread=False)
    client = lambda: make_redis_benchmark(scale=scale)
    native = run_server_benchmark(server, client, monitor=MONITOR_NATIVE)
    scribe = run_server_benchmark(server, client, monitor=MONITOR_SCRIBE)
    varan_report, recorder = _run_varan_record(scale)

    varan_overhead = (native.throughput
                      / max(1.0, varan_report.throughput_rps))
    result.rows.append({
        "system": "scribe (in-kernel)",
        "overhead": overhead(native, scribe),
        "paper": PAPER_RECORD["scribe_overhead"],
        "events_recorded": scribe.session.events_recorded,
    })
    result.rows.append({
        "system": "varan record client",
        "overhead": varan_overhead,
        "paper": PAPER_RECORD["varan_overhead"],
        "events_recorded": recorder.events_recorded,
    })
    result.notes = (f"log size {recorder.bytes_written} bytes; "
                    "recorded inside the same 'virtual machine' as the "
                    "paper's comparison")
    return result


def triage_crash(scale: float = 0.01):
    """Replay one production log against many revisions to find which
    introduced the crash — the multi-version replay use case of §5.4."""
    world = World()
    session = world.nvx(
        [VersionSpec("redis-prod",
                     make_redis(stats=ServerStats(),
                                revision=REVISIONS[0],
                                background_thread=False),
                     image=redis_image())],
        config=SessionConfig(daemon=True))
    recorder = Recorder(session, "/var/crash.log")
    session.start()
    mains, report = make_redis_benchmark(
        scale=scale, commands=(b"PING", b"SET", b"GET", b"HMGET"))
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="bench")
    world.run()

    replay_world = World()
    candidates = [
        VersionSpec(f"candidate-{rev}",
                    make_redis(stats=ServerStats(), revision=rev,
                               background_thread=False))
        for rev in REVISIONS
    ]
    replay = ReplaySession(replay_world, candidates, recorder.log_bytes,
                           config=SessionConfig(daemon=True))
    replay.start()
    replay_world.run()
    return {
        "requests_served": report.requests,
        "events_recorded": recorder.events_recorded,
        "log_bytes": recorder.bytes_written,
        "events_replayed": replay.events_replayed,
        "crashed_revisions": sorted(
            {name.split("-", 2)[-1] for name in replay.crashed}),
        "expected_buggy": BUGGY_REVISION,
    }
