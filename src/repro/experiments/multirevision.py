"""§5.2 — Multi-revision execution with BPF rewrite rules.

Three Lighttpd revision pairs whose system-call sequences differ are run
together: the paper's Listing 1 filter resolves the 2435/2436 pair, and
analogous filters resolve 2523/2524 (extra /dev/urandom read) and
2577/2578 (extra fcntl).  A classical lockstep monitor is also run on
the first pair to demonstrate that it cannot tolerate the divergence.
"""

from __future__ import annotations

from repro.apps import ServerStats
from repro.apps.httpd import lighttpd_revision
from repro.bpf import RewriteRules, assemble_bpf
from repro.clients import make_apachebench
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.errors import DivergenceError
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.kernel.uapi import SYSCALL_NUMBERS
from repro.nvx.lockstep import MX_PROFILE
from repro.world import World

#: Listing 1 of the paper, verbatim.
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

#: r2524 adds a read of /dev/urandom (open/read/close) during startup.
FILTER_2524 = f"""
ld [0]
jeq #{SYSCALL_NUMBERS['open']}, good
jeq #{SYSCALL_NUMBERS['read']}, good
jeq #{SYSCALL_NUMBERS['close']}, good
ret #0
good: ret #0x7fff0000
"""

#: r2578 adds an fcntl(F_SETFD, FD_CLOEXEC).
FILTER_2578 = f"""
ld [0]
jeq #{SYSCALL_NUMBERS['fcntl']}, good
ret #0
good: ret #0x7fff0000
"""

PAIRS = (
    ("2435", "2436", LISTING_1, "getuid/getgid added (Listing 1)"),
    ("2523", "2524", FILTER_2524, "extra /dev/urandom read"),
    ("2577", "2578", FILTER_2578, "extra fcntl FD_CLOEXEC"),
)


def _serve_requests(world, requests=20):
    mains, report = make_apachebench(requests=requests, concurrency=2,
                                     scale=1.0)
    for main in mains:
        world.kernel.spawn_task(world.client, main, name="ab")
    return report


def run_pair(old_rev: str, new_rev: str, filter_source: str):
    """Run one revision pair under Varan with the rewrite filter, the
    old revision leading."""
    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"p" * 4096)
    specs = [VersionSpec(f"lighttpd-r{rev}",
                         lighttpd_revision(rev, stats=ServerStats()))
             for rev in (old_rev, new_rev)]
    rules = RewriteRules([assemble_bpf(filter_source,
                                       name=f"r{old_rev}-r{new_rev}")])
    session = world.nvx(specs, config=SessionConfig(
        rules=rules, daemon=True)).start()
    report = _serve_requests(world)
    world.run()
    return session, report


def run_pair_lockstep(old_rev: str, new_rev: str):
    """The same pair under a classical lockstep monitor: must diverge."""
    world = World()
    world.kernel.fs(world.server).create("/var/www/index.html",
                                         b"p" * 4096)
    specs = [VersionSpec(f"lighttpd-r{rev}",
                         lighttpd_revision(rev, stats=ServerStats()))
             for rev in (old_rev, new_rev)]
    session = world.lockstep(specs, config=SessionConfig(daemon=True),
                             profile=MX_PROFILE).start()
    report = _serve_requests(world, requests=5)
    try:
        world.run(until_ps=2_000_000_000_000)
    except DivergenceError:
        pass
    return session, report


def run(config=None) -> ExperimentResult:
    apply_config(config)
    result = ExperimentResult(
        "multirevision-5.2",
        "Multi-revision execution across syscall-sequence divergences")
    for old_rev, new_rev, filter_source, description in PAIRS:
        session, report = run_pair(old_rev, new_rev, filter_source)
        result.rows.append({
            "pair": f"r{old_rev}/r{new_rev}",
            "monitor": "varan+bpf",
            "divergences_resolved": session.stats.divergences_allowed
            + session.stats.divergences_skipped,
            "followers_alive": len(session.followers),
            "requests_served": report.requests,
            "note": description,
        })
    # Lockstep cannot run the 2435/2436 pair at all.
    session, report = run_pair_lockstep("2435", "2436")
    result.rows.append({
        "pair": "r2435/r2436",
        "monitor": "ptrace-lockstep",
        "divergences_resolved": 0,
        "followers_alive": 0 if session.divergence else 1,
        "requests_served": report.requests,
        "note": (session.divergence or "no divergence?!"),
    })
    result.notes = ("prior lockstep systems cannot run these revision "
                    "pairs (§5.2)")
    return result
