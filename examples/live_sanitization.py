#!/usr/bin/env python3
"""Live sanitization (§5.3): ASan in production, for free.

The leader runs a plain (uninstrumented) Redis at full speed; a
follower runs the same revision compiled with AddressSanitizer.  The
follower skips all I/O — it replays results from the ring buffer — so
despite its 2x compute slowdown it keeps pace.  When a request triggers
a real use-after-free (the redis issue-344 regression), the sanitized
follower pinpoints it while production traffic is unaffected.

Run:  python examples/live_sanitization.py
"""

from repro import (ASAN, NvxSession, SessionConfig, VersionSpec, World,
                   sanitized_spec)
from repro.apps import ServerStats, make_redis, redis_image
from repro.clients import make_redis_benchmark
from repro.experiments.sanitization import detect_use_after_free


def main():
    # -- phase 1: throughput with a sanitized follower -------------------
    world = World()
    reports = []
    session = NvxSession(world, [
        VersionSpec("redis-7f77235", make_redis(
            stats=ServerStats(), background_thread=False),
            image=redis_image()),
        sanitized_spec("redis-7f77235", make_redis(
            stats=ServerStats(), background_thread=False), ASAN, reports),
    ], config=SessionConfig(daemon=True, sample_distances=True)).start()

    mains, bench = make_redis_benchmark(clients=10, requests=700,
                                        scale=1.0)
    for main_fn in mains:
        world.kernel.spawn_task(world.client, main_fn, name="bench")
    world.run()

    ring = session.root_tuple.ring
    print("=== native leader + ASan follower ===")
    print(f"  client throughput      : {bench.throughput_rps:,.0f} "
          "requests/s")
    print(f"  median log distance    : {ring.stats.median_distance()} "
          "events (paper: 6)")
    print(f"  sanitizer reports      : {len(reports)} "
          "(clean workload, as expected)")

    # -- phase 2: the sanitized follower catches a real bug ---------------
    reports, probe = detect_use_after_free()

    print("\n=== injected use-after-free (issue 344) ===")
    print(f"  client saw errors      : {probe.errors == 0 and 'no' or 'yes'}")
    for report in reports:
        print(f"  ASan: {report.kind} at {report.addr:#x} "
              f"({report.detail})")
    assert any(r.kind == "heap-use-after-free" for r in reports)
    print("\nthe bug was found in production without slowing it down ✓")


if __name__ == "__main__":
    main()
