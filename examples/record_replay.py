#!/usr/bin/env python3
"""Record-replay (§5.4): capture production, triage offline.

Phase 1 records a production Redis serving live traffic: an artificial
follower drains the ring buffer to a persistent log (the application
runs at nearly full speed — the recorder sits on its own core).

Phase 2 replays that single log against EIGHT candidate revisions at
once, to find which revision introduced a crash — the exact use case
the paper sketches.

Run:  python examples/record_replay.py
"""

from repro import (NvxSession, Recorder, ReplaySession, SessionConfig,
                   VersionSpec, World)
from repro.apps import ServerStats, make_redis, redis_image
from repro.apps.redis import BUGGY_REVISION, REVISIONS
from repro.clients import make_redis_benchmark


def main():
    # -- phase 1: record ---------------------------------------------------
    world = World()
    session = NvxSession(world, [
        VersionSpec("redis-prod", make_redis(
            stats=ServerStats(), revision=REVISIONS[0],
            background_thread=False), image=redis_image()),
    ], config=SessionConfig(daemon=True))
    recorder = Recorder(session, "/var/prod.log")
    session.start()

    mains, bench = make_redis_benchmark(
        clients=10, requests=300, scale=1.0,
        commands=(b"PING", b"SET", b"GET", b"HMGET"))
    for main_fn in mains:
        world.kernel.spawn_task(world.client, main_fn, name="bench")
    world.run()

    print("=== record phase ===")
    print(f"  requests served   : {bench.requests}")
    print(f"  events recorded   : {recorder.events_recorded}")
    print(f"  log size          : {recorder.bytes_written:,} bytes")

    # -- phase 2: replay against every candidate revision ------------------
    replay_world = World()
    replay = ReplaySession(replay_world, [
        VersionSpec(f"candidate-{rev}", make_redis(
            stats=ServerStats(), revision=rev, background_thread=False))
        for rev in REVISIONS
    ], recorder.log_bytes, daemon=True)
    replay.start()
    replay_world.run()

    print("\n=== replay phase (8 candidates, one log) ===")
    print(f"  events replayed   : {replay.events_replayed}")
    for variant in replay.variants:
        verdict = ("CRASHED" if variant.name in replay.crashed
                   else "survived")
        print(f"  {variant.name:24s} {verdict}")

    crashed = {name.split('-')[-1] for name in replay.crashed}
    assert crashed == {BUGGY_REVISION}
    print(f"\nregression isolated to revision {BUGGY_REVISION} ✓")


if __name__ == "__main__":
    main()
