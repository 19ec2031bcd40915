"""Integration tests for the Varan NVX session: replay fidelity, fd
transfer, failover, divergence handling, threads and forks."""

from repro.bpf import NVX_RET_SKIP, RewriteRules, assemble_bpf
from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.core.events import EV_EXIT, EV_SYSCALL
from repro.core.monitor import BLOCKING_CALLS
from repro.core.netring import LOCAL_REGENERABLE
from repro.core.tables import (
    EXEC_LOCAL_AFTER_CONSUME,
    LOCAL_CALLS,
    PID_ARG_CALLS,
)
from repro.kernel.kernel import Kernel
from repro.kernel.task import VDSO_CALLS
from repro.kernel.uapi import O_RDWR, SYSCALL_NUMBERS, Segfault
from repro.world import World

LISTING_1 = """
ld event[0]
jeq #108, getegid /* __NR_getegid */
jeq #2, open /* __NR_open */
jmp bad
getegid:
ld [0]
jeq #102, good /* __NR_getuid */
open:
ld [0]
jeq #104, good /* __NR_getgid */
bad: ret #0
good: ret #0x7fff0000
"""


def run_session(specs, world=None, files=None, config=None):
    w = world or World()
    if files:
        fs = w.kernel.fs(w.server)
        for path, data in files.items():
            fs.create(path, data)
    session = NvxSession(w, specs, config=config).start()
    w.run()
    return session, w


def result_of(variant):
    thread = variant.root_task.threads[0]
    if thread.exception is not None:
        raise thread.exception
    return thread.result


class TestReplayFidelity:
    def test_all_variants_see_identical_results(self):
        def app(ctx):
            fd = yield from ctx.open("/tmp/f")
            data = yield from ctx.read(fd, 32)
            t = yield from ctx.time()
            sec, usec = yield from ctx.gettimeofday()
            yield from ctx.close(fd)
            return (fd, data, t, sec, usec)

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app),
             VersionSpec("c", app)],
            files={"/tmp/f": b"identical-bytes"})
        results = [result_of(v) for v in session.variants]
        assert results[0] == results[1] == results[2]
        assert results[0][1] == b"identical-bytes"

    def test_followers_do_not_touch_the_environment(self):
        def app(ctx):
            fd = yield from ctx.open("/tmp/log", O_RDWR)
            yield from ctx.write(fd, b"exactly-once")
            yield from ctx.close(fd)
            return True

        session, world = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)],
            files={"/tmp/log": b""})
        inode = world.kernel.fs(world.server).lookup("/tmp/log")
        # Two variants ran the write; the file received it exactly once.
        assert bytes(inode.data) == b"exactly-once"

    def test_urandom_payload_replayed_not_reread(self):
        def app(ctx):
            return (yield from ctx.getrandom(16))

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        assert result_of(session.variants[0]) == \
            result_of(session.variants[1])

    def test_followers_lag_behind_leader(self):
        def app(ctx):
            for _ in range(20):
                yield from ctx.time()
            return True

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)],
            config=SessionConfig(sample_distances=True))
        stats = session.root_tuple.ring.stats
        assert stats.published >= 21  # 20 times + exit
        assert stats.median_distance() >= 1

    def test_event_counts_scale_with_followers(self):
        def app(ctx):
            yield from ctx.time()
            return True

        session, _ = run_session([VersionSpec(c, app) for c in "abcd"])
        stats = session.root_tuple.ring.stats
        assert stats.consumed == 3 * stats.published


class TestLocalCalls:
    """§3.3: calls local to the process run natively in every variant
    and are never streamed."""

    def test_each_variant_gets_its_own_native_result(self):
        def app(pages):
            def main(ctx):
                first = (yield from ctx.syscall("mmap", 0,
                                                pages * 4096)).retval
                second = (yield from ctx.syscall("mmap", 0, 4096)).retval
                heap = (yield from ctx.syscall("brk",
                                               pages * 0x10000)).retval
                futex = (yield from ctx.syscall("futex", 0)).retval
                yielded = (yield from ctx.syscall("sched_yield")).retval
                uid = yield from ctx.getuid()
                return second - first, heap, futex, yielded, uid

            return main

        session, _ = run_session(
            [VersionSpec("a", app(1)), VersionSpec("b", app(3))])
        uid = session.variants[0].root_task.uid
        # A replayed mmap or brk would hand the follower the leader's
        # addresses; both variants' own lengths show instead.
        assert [result_of(v) for v in session.variants] == [
            (4096, 0x10000, 0, 0, uid), (3 * 4096, 0x30000, 0, 0, uid)]
        ring = session.root_tuple.ring
        assert [(event.etype, event.name)
                for event in ring.slots[:ring.head]] == [
            (EV_SYSCALL, "getuid"), (EV_EXIT, "exit")]


class TestMechanismTables:
    def test_every_name_has_a_kernel_handler(self):
        tables = {
            "LOCAL_CALLS": LOCAL_CALLS,
            "EXEC_LOCAL_AFTER_CONSUME": EXEC_LOCAL_AFTER_CONSUME,
            "PID_ARG_CALLS": PID_ARG_CALLS,
            "BLOCKING_CALLS": BLOCKING_CALLS,
            "LOCAL_REGENERABLE": LOCAL_REGENERABLE,
            "VDSO_CALLS": VDSO_CALLS,
        }
        missing = {table: sorted(name for name in names
                                 if not hasattr(Kernel, f"_sys_{name}"))
                   for table, names in tables.items()}
        assert missing == {table: [] for table in tables}


class TestFdTransfer:
    def test_follower_fd_table_mirrors_leader(self):
        def app(ctx):
            fd_a = yield from ctx.open("/dev/null")
            fd_b = yield from ctx.open("/dev/zero")
            yield from ctx.close(fd_a)
            fd_c = yield from ctx.open("/dev/urandom")
            return (fd_a, fd_b, fd_c)

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        assert result_of(session.variants[0]) == \
            result_of(session.variants[1])
        leader_fds = sorted(session.variants[0].root_task.fdtable._fds)
        follower_fds = sorted(session.variants[1].root_task.fdtable._fds)
        assert leader_fds == follower_fds

    def test_transferred_description_is_shared(self):
        def app(ctx):
            fd = yield from ctx.open("/tmp/f")
            yield from ctx.read(fd, 4)
            return fd

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)],
            files={"/tmp/f": b"abcdefgh"})
        fd = result_of(session.variants[0])
        leader_desc = session.variants[0].root_task.fdtable.get(fd)
        follower_desc = session.variants[1].root_task.fdtable.get(fd)
        assert leader_desc is follower_desc  # dup of the same description

    def test_fds_sent_once_per_follower(self):
        def app(ctx):
            yield from ctx.open("/dev/null")
            return True

        session, _ = run_session(
            [VersionSpec(c, app) for c in "abc"])
        sent = sum(ch.fds_sent
                   for ch in session.root_tuple.channels.values())
        assert sent == 2  # one fd, two followers


class TestFailover:
    def make_apps(self):
        def good(ctx):
            fd = yield from ctx.open("/tmp/f")
            data = yield from ctx.read(fd, 16)
            out = yield from ctx.open("/tmp/out", O_RDWR)
            yield from ctx.write(out, data)
            yield from ctx.close(out)
            yield from ctx.close(fd)
            return data

        def buggy(ctx):
            fd = yield from ctx.open("/tmp/f")
            data = yield from ctx.read(fd, 16)
            raise Segfault("bad pointer")
            yield  # pragma: no cover

        return good, buggy

    def test_follower_crash_does_not_disturb_leader(self):
        good, buggy = self.make_apps()
        session, world = run_session(
            [VersionSpec("good", good), VersionSpec("buggy", buggy)],
            files={"/tmp/f": b"precious", "/tmp/out": b""})
        assert result_of(session.variants[0]) == b"precious"
        assert session.stats.promotions == 0
        assert not session.variants[1].alive
        assert len(session.stats.crashes) == 1

    def test_leader_crash_promotes_follower(self):
        good, buggy = self.make_apps()
        session, world = run_session(
            [VersionSpec("buggy", buggy), VersionSpec("good", good)],
            files={"/tmp/f": b"precious", "/tmp/out": b""})
        assert session.stats.promotions == 1
        assert session.variants[1].is_leader
        assert result_of(session.variants[1]) == b"precious"
        # The promoted leader completed the write for real.
        inode = world.kernel.fs(world.server).lookup("/tmp/out")
        assert bytes(inode.data) == b"precious"

    def test_smallest_id_follower_elected(self):
        good, buggy = self.make_apps()
        session, _ = run_session(
            [VersionSpec("buggy", buggy), VersionSpec("g1", good),
             VersionSpec("g2", good)],
            files={"/tmp/f": b"x", "/tmp/out": b""})
        assert session.variants[1].is_leader
        assert not session.variants[2].is_leader
        assert session.variants[2].alive

    def test_surviving_follower_still_replays_after_promotion(self):
        good, buggy = self.make_apps()
        session, _ = run_session(
            [VersionSpec("buggy", buggy), VersionSpec("g1", good),
             VersionSpec("g2", good)],
            files={"/tmp/f": b"x", "/tmp/out": b""})
        assert result_of(session.variants[1]) == b"x"
        assert result_of(session.variants[2]) == b"x"


class TestDivergence:
    def test_unfiltered_divergence_kills_follower(self):
        def leader(ctx):
            yield from ctx.time()
            return "leader"

        def rogue(ctx):
            yield from ctx.getuid()  # different syscall
            return "rogue"

        session, _ = run_session(
            [VersionSpec("l", leader), VersionSpec("r", rogue)])
        assert result_of(session.variants[0]) == "leader"
        assert not session.variants[1].alive
        assert session.stats.fatal_divergences

    def test_listing1_allows_added_calls(self):
        def rev2435(ctx):
            a = yield from ctx.geteuid()
            b = yield from ctx.getegid()
            fd = yield from ctx.open("/dev/null")
            yield from ctx.close(fd)
            return (a, b)

        def rev2436(ctx):
            a = yield from ctx.geteuid()
            yield from ctx.getuid()
            b = yield from ctx.getegid()
            yield from ctx.getgid()
            fd = yield from ctx.open("/dev/null")
            yield from ctx.close(fd)
            return (a, b)

        rules = RewriteRules([assemble_bpf(LISTING_1)])
        session, _ = run_session(
            [VersionSpec("2435", rev2435), VersionSpec("2436", rev2436)],
            config=SessionConfig(rules=rules))
        assert result_of(session.variants[0]) == \
            result_of(session.variants[1])
        assert session.stats.divergences == 2
        assert session.stats.divergences_allowed == 2
        assert session.variants[1].alive

    def test_skip_rule_tolerates_leader_extra_calls(self):
        # Leader (newer rev) issues getuid/getgid the follower lacks.
        def newer(ctx):
            yield from ctx.geteuid()
            yield from ctx.getuid()
            yield from ctx.getegid()
            yield from ctx.getgid()
            fd = yield from ctx.open("/dev/null")
            yield from ctx.close(fd)
            return "newer"

        def older(ctx):
            yield from ctx.geteuid()
            yield from ctx.getegid()
            fd = yield from ctx.open("/dev/null")
            yield from ctx.close(fd)
            return "older"

        skip_rule = assemble_bpf(
            f"""
            ld event[0]
            jeq #{SYSCALL_NUMBERS['getuid']}, skip
            jeq #{SYSCALL_NUMBERS['getgid']}, skip
            ret #0
            skip: ret #{NVX_RET_SKIP:#x}
            """,
            name="skip-uid-calls")
        session, _ = run_session(
            [VersionSpec("newer", newer), VersionSpec("older", older)],
            config=SessionConfig(rules=RewriteRules([skip_rule])))
        assert result_of(session.variants[1]) == "older"
        assert session.variants[1].alive
        assert session.stats.divergences_skipped == 2


class TestThreadsAndForks:
    def test_thread_tids_virtualised(self):
        def app(ctx):
            def worker(tctx):
                yield from tctx.time()
                return None

            tid = yield from ctx.spawn_thread(worker)
            yield from ctx.nanosleep(10_000_000)
            return tid

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        assert result_of(session.variants[0]) == \
            result_of(session.variants[1])

    def test_fork_creates_tuple_with_own_ring(self):
        def app(ctx):
            def child(cctx):
                yield from cctx.time()
                yield from cctx.syscall("exit_group", 9)

            pid = yield from ctx.fork(child)
            _, status = yield from ctx.wait4(pid)
            return status

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        assert result_of(session.variants[0]) == 9
        assert result_of(session.variants[1]) == 9
        assert len(session.tuples) == 2
        child_ring = session.tuples[1].ring
        assert child_ring.stats.published == child_ring.stats.consumed

    def test_multithreaded_ordering_enforced(self):
        # Two threads each do distinct syscalls; followers must replay
        # them in the leader's publication order without deadlock.
        def app(ctx):
            seen = []

            def worker(tctx):
                for _ in range(10):
                    t = yield from tctx.time()
                    seen.append(("w", t))
                return None

            yield from ctx.spawn_thread(worker)
            for _ in range(10):
                sec, _usec = yield from ctx.gettimeofday()
                seen.append(("m", sec))
            yield from ctx.nanosleep(50_000_000)
            return len(seen)

        session, _ = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        assert result_of(session.variants[0]) == 20
        assert result_of(session.variants[1]) == 20


class TestSetup:
    def test_setup_costs_charged(self):
        def app(ctx):
            yield from ctx.time()
            return True

        session, world = run_session(
            [VersionSpec("a", app), VersionSpec("b", app)])
        # Setup includes at least two fork()s (zygote + versions).
        assert session.stats.setup_ps > 0
        assert session.ready

    def test_single_version_session_works(self):
        def app(ctx):
            yield from ctx.time()
            return "solo"

        session, _ = run_session([VersionSpec("only", app)])
        assert result_of(session.variants[0]) == "solo"
