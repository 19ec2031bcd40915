#!/usr/bin/env python3
"""Transparent failover (§5.1): surviving a crashing Redis revision.

Eight consecutive revisions of the simulated Redis run in parallel; the
newest one (7fb16ba) segfaults while handling a particular HMGET — the
regression of redis issue 344 used in the paper.  When that revision is
the leader, the coordinator detects the crash, promotes the oldest
follower, restarts the in-flight system call, and the client still gets
its answer — over the very same TCP connection.

Run:  python examples/transparent_failover.py
"""

from repro import NvxSession, SessionConfig, VersionSpec, World
from repro.apps import ServerStats, make_redis, redis_image
from repro.apps.redis import BUGGY_REVISION, REVISIONS
from repro.clients import make_redis_command_probe


def run(buggy_leads: bool):
    world = World()
    order = ((BUGGY_REVISION,) + REVISIONS[:-1] if buggy_leads
             else REVISIONS)
    specs = [VersionSpec(f"redis-{rev}",
                         make_redis(stats=ServerStats(), revision=rev,
                                    background_thread=False),
                         image=redis_image())
             for rev in order]
    session = NvxSession(world, specs,
                         config=SessionConfig(daemon=True)).start()

    mains, report = make_redis_command_probe(b"HMGET missing f1 f2\r\n")
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="client")
    world.run()
    return session, report


def describe(title, session, report):
    print(f"--- {title} ---")
    print(f"  HMGET latency          : "
          f"{report.command_avg_us('probe'):8.2f} us")
    print(f"  follow-up PING latency : "
          f"{report.command_avg_us('after'):8.2f} us")
    print(f"  errors seen by client  : {report.errors}")
    for name, fault, when in session.stats.crashes:
        print(f"  crash: {name}: {fault} (t={when / 1e6:.1f} us)")
    print(f"  promotions             : {session.stats.promotions}")
    leader = session.leader
    print(f"  serving leader now     : {leader.name}")
    print()


def main():
    print("running 8 consecutive Redis revisions under Varan\n")
    session, report = run(buggy_leads=False)
    describe("buggy revision as FOLLOWER (paper: no latency change)",
             session, report)

    session, report = run(buggy_leads=True)
    describe("buggy revision as LEADER (paper: 42us -> 122us)",
             session, report)

    print("the client never saw an error — the crash was survived ✓")


if __name__ == "__main__":
    main()
