"""§5.3 — Live sanitization.

Redis revision 7f77235 built twice — once plain, once with
AddressSanitizer — and run together under Varan, the sanitized build as
the follower.  Expectations from the paper: no measurable slowdown of
the leader compared to running two unsanitized versions, and a median
log distance of only a few events (the paper measured six).

We also demonstrate running *several mutually-incompatible* sanitizers
concurrently (one follower each) and that a sanitized follower really
detects an injected use-after-free.
"""

from __future__ import annotations

from repro.apps import ServerStats, make_redis, redis_image
from repro.clients import make_redis_benchmark
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.sanitizers import ASAN, MSAN, TSAN, sanitized_spec
from repro.world import World

PAPER_SANITIZATION = {
    "leader_slowdown": 1.0,  # "no additional slowdown measured"
    "median_log_distance_events": 6,
}


def _run(sanitizers, scale: float):
    world = World()
    reports = []
    specs = [VersionSpec("redis-7f77235",
                         make_redis(stats=ServerStats(),
                                    background_thread=False),
                         image=redis_image())]
    for sanitizer in sanitizers:
        specs.append(sanitized_spec(
            "redis-7f77235",
            make_redis(stats=ServerStats(), background_thread=False),
            sanitizer, reports))
    if not sanitizers:  # comparison baseline: two plain versions
        specs.append(VersionSpec("redis-7f77235-b",
                                 make_redis(stats=ServerStats(),
                                            background_thread=False),
                                 image=redis_image()))
    session = world.nvx(specs, config=SessionConfig(
        daemon=True, sample_distances=True)).start()
    mains, report = make_redis_benchmark(scale=scale)
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="bench")
    world.run()
    return session, report, reports


def run(config=None, scale: float = 0.05) -> ExperimentResult:
    scale = apply_config(config, scale=scale)["scale"]
    result = ExperimentResult(
        "sanitization-5.3", "Live sanitization of Redis",
        paper_reference=PAPER_SANITIZATION)

    plain_session, plain_report, _ = _run([], scale)
    asan_session, asan_report, _ = _run([ASAN], scale)
    all_session, all_report, _ = _run([ASAN, MSAN, TSAN], scale)

    slowdown = (plain_report.throughput_rps
                / max(1.0, asan_report.throughput_rps))
    result.rows.append({
        "configuration": "plain leader + plain follower (baseline)",
        "throughput_rps": plain_report.throughput_rps,
        "leader_slowdown": 1.0,
        "median_log_distance":
            plain_session.root_tuple.ring.stats.median_distance(),
    })
    result.rows.append({
        "configuration": "plain leader + ASan follower",
        "throughput_rps": asan_report.throughput_rps,
        "leader_slowdown": slowdown,
        "median_log_distance":
            asan_session.root_tuple.ring.stats.median_distance(),
    })
    result.rows.append({
        "configuration": "plain leader + ASan + MSan + TSan followers",
        "throughput_rps": all_report.throughput_rps,
        "leader_slowdown": (plain_report.throughput_rps
                            / max(1.0, all_report.throughput_rps)),
        "median_log_distance":
            all_session.root_tuple.ring.stats.median_distance(),
    })
    result.notes = ("paper: no leader slowdown; median log distance 6 "
                    "events; incompatible sanitizers run side by side")
    return result


REVISION_PLAIN = "9a22de8"


def detect_use_after_free():
    """Evidence that a sanitized follower genuinely finds the bug: the
    buggy revision's HMGET handler frees and then touches a block.
    Returns the sanitizer reports and the probing client's report."""
    from repro.apps.redis import BUGGY_REVISION
    from repro.clients import make_redis_command_probe

    world = World()
    reports = []
    specs = [
        VersionSpec("redis-buggy-leader",
                    make_redis(stats=ServerStats(),
                               revision=REVISION_PLAIN,
                               background_thread=False),
                    image=redis_image()),
        sanitized_spec("redis-buggy",
                       make_redis(stats=ServerStats(),
                                  revision=BUGGY_REVISION,
                                  background_thread=False),
                       ASAN, reports),
    ]
    world.nvx(specs, config=SessionConfig(daemon=True)).start()
    mains, probe = make_redis_command_probe(b"HMGET missing f1\r\n")
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="probe")
    world.run()
    return reports, probe
