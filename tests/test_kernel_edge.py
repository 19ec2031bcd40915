"""Edge-case kernel tests: descriptor passing, listener lifecycle,
partial reads, uapi plumbing."""

from repro.kernel.net import DuplexPipe, PipeEnd, StreamBuffer
from repro.kernel.uapi import (
    ERRNO_NAMES,
    SYSCALL_NAMES,
    SYSCALL_NUMBERS,
    Syscall,
    SysError,
    SysResult,
)
from repro.costmodel import SEC_PS
from repro.sim import Simulator
from repro.world import World


class TestUapi:
    def test_listing1_numbers_match_x86_64(self):
        # These exact numbers appear in the paper's Listing 1.
        assert SYSCALL_NUMBERS["getegid"] == 108
        assert SYSCALL_NUMBERS["open"] == 2
        assert SYSCALL_NUMBERS["getuid"] == 102
        assert SYSCALL_NUMBERS["getgid"] == 104

    def test_number_name_roundtrip(self):
        for name, nr in SYSCALL_NUMBERS.items():
            assert SYSCALL_NAMES[nr] == name

    def test_sysresult_errno_accessors(self):
        ok = SysResult(3)
        err = SysResult(-9)
        assert ok.ok and ok.errno == 0
        assert not err.ok and err.errno == 9

    def test_syserror_message_uses_symbolic_name(self):
        error = SysError(9, "write")
        assert "EBADF" in str(error)
        assert ERRNO_NAMES[9] == "EBADF"

    def test_syscall_arg_defaults(self):
        call = Syscall("read", (3,))
        assert call.arg(0) == 3
        assert call.arg(5, default=-1) == -1


class TestStreamBuffer:
    def test_partial_pull(self):
        buffer = StreamBuffer()
        buffer.push(b"abcdef")
        assert buffer.pull(2) == b"ab"
        assert buffer.pull(10) == b"cdef"
        assert buffer.size == 0

    def test_pull_across_chunks(self):
        buffer = StreamBuffer()
        buffer.push(b"abc")
        buffer.push(b"def")
        assert buffer.pull(4) == b"abcd"
        assert buffer.pull(4) == b"ef"

    def test_empty_push_ignored(self):
        buffer = StreamBuffer()
        buffer.push(b"")
        assert buffer.size == 0 and not buffer.chunks


class TestFdPassing:
    def test_scm_rights_increfs(self):
        sim = Simulator()
        a, b = PipeEnd.make_socketpair(sim)
        payload, _ = PipeEnd.make_pipe(sim)
        before = payload.refcount
        assert a.push_fd(payload) == 0
        assert payload.refcount == before + 1
        assert b.fd_queue[0] is payload

    def test_push_fd_to_closed_peer_is_epipe(self):
        from repro.kernel.uapi import EPIPE

        sim = Simulator()
        a, b = PipeEnd.make_socketpair(sim)
        b.closed = True
        payload, _ = PipeEnd.make_pipe(sim)
        assert a.push_fd(payload) == -EPIPE


class TestListenerLifecycle:
    def test_port_reuse_after_server_exit(self):
        world = World()

        def short_server(ctx):
            fd = yield from ctx.socket()
            yield from ctx.bind(fd, ("server", 9090))
            yield from ctx.listen(fd)
            yield from ctx.close(fd)
            return "done"

        first = world.spawn(short_server, name="s1")
        world.run()
        assert first.threads[0].result == "done"

        second = world.spawn(short_server, name="s2")
        world.run()
        assert second.threads[0].result == "done"  # EADDRINUSE would raise

    def test_bind_conflict_detected(self):
        from repro.kernel.uapi import EADDRINUSE

        world = World()

        def holder(ctx):
            fd = yield from ctx.socket()
            yield from ctx.bind(fd, ("server", 9091))
            yield from ctx.listen(fd)
            yield from ctx.nanosleep(int(0.01 * SEC_PS))

        def contender(ctx):
            yield from ctx.nanosleep(1_000_000)
            fd = yield from ctx.socket()
            result = yield from ctx.syscall("bind", fd, ("server", 9091))
            return result.retval

        world.spawn(holder, name="h", daemon=True)
        task = world.spawn(contender, name="c")
        world.run()
        assert task.threads[0].result == -EADDRINUSE

    def test_connect_during_backlog_overflow_refused(self):
        from repro.kernel.uapi import ECONNREFUSED

        world = World()

        def tiny_backlog_server(ctx):
            fd = yield from ctx.socket()
            yield from ctx.bind(fd, ("server", 9092))
            yield from ctx.listen(fd, backlog=1)
            yield from ctx.nanosleep(int(0.05 * SEC_PS))  # never accepts

        def client(ctx):
            yield from ctx.nanosleep(1_000_000)
            outcomes = []
            for _ in range(3):
                fd = yield from ctx.socket()
                result = yield from ctx.syscall("connect", fd,
                                                ("server", 9092))
                outcomes.append(result.retval)
            return outcomes

        world.spawn(tiny_backlog_server, name="s", daemon=True)
        task = world.kernel.spawn_task(world.client, client, name="c")
        world.run()
        outcomes = task.threads[0].result
        assert outcomes[0] == 0
        assert -ECONNREFUSED in outcomes  # backlog filled
