#!/usr/bin/env python3
"""Multi-revision execution (§5.2): Lighttpd r2435 + r2436 together.

Revision 2436 replaced ``geteuid()/getegid()`` with ``issetugid()``,
adding ``getuid`` and ``getgid`` system calls — a sequence change that
no lockstep NVX system can tolerate.  Varan's BPF rewrite rules (the
paper's Listing 1, reproduced verbatim below) let the follower execute
its additional calls locally and stay in sync.

Run:  python examples/multi_revision_lighttpd.py
"""

from repro import (NvxSession, RewriteRules, SessionConfig, VersionSpec,
                   World, assemble_bpf)
from repro.apps import ServerStats
from repro.apps.httpd import lighttpd_revision
from repro.clients import make_apachebench
from repro.errors import DivergenceError
from repro.nvx import LockstepSession, MX_PROFILE

LISTING_1 = """
ld event[0]
jeq #108, getegid /* __NR_getegid */
jeq #2, open /* __NR_open */
jmp bad
getegid:
ld [0] /* offsetof(struct seccomp_data, nr) */
jeq #102, good /* __NR_getuid */
open:
ld [0] /* offsetof(struct seccomp_data, nr) */
jeq #104, good /* __NR_getgid */
bad: ret #0 /* SECCOMP_RET_KILL */
good: ret #0x7fff0000 /* SECCOMP_RET_ALLOW */
"""


def specs():
    return [
        VersionSpec("lighttpd-r2435",
                    lighttpd_revision("2435", stats=ServerStats())),
        VersionSpec("lighttpd-r2436",
                    lighttpd_revision("2436", stats=ServerStats())),
    ]


def drive_clients(world, requests=20):
    mains, report = make_apachebench(requests=requests, concurrency=2,
                                     scale=1.0)
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="ab")
    return report


def main():
    print("Listing 1 (verbatim from the paper):")
    print(LISTING_1)

    # -- Varan with the rewrite rule ------------------------------------
    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"x" * 4096)
    rules = RewriteRules([assemble_bpf(LISTING_1, name="listing1")])
    session = NvxSession(world, specs(), config=SessionConfig(
        rules=rules, daemon=True)).start()
    report = drive_clients(world)
    world.run()
    print("=== Varan + BPF rewrite rules ===")
    print(f"  requests served        : {report.requests}")
    print(f"  divergences detected   : {session.stats.divergences}")
    print(f"  resolved via ALLOW     : "
          f"{session.stats.divergences_allowed}")
    print(f"  followers still alive  : {len(session.followers)}")

    # -- the same pair under a classical lockstep monitor ----------------
    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"x" * 4096)
    lockstep = LockstepSession(world, specs(),
                               config=SessionConfig(daemon=True),
                               profile=MX_PROFILE).start()
    drive_clients(world, requests=4)
    try:
        world.run(until_ps=2_000_000_000_000)
    except DivergenceError:
        pass
    print("\n=== classical ptrace lockstep (Mx-style) ===")
    print(f"  outcome: {lockstep.divergence}")
    print("\nonly Varan can run these revisions side by side ✓")


if __name__ == "__main__":
    main()
