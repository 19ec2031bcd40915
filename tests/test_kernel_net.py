"""Kernel tests: sockets, pipes, epoll, processes, threads, signals."""

import random

import pytest

from repro.errors import DeadlockError
from repro.kernel.epoll import Epoll
from repro.kernel.net import (
    DuplexPipe,
    ListenerSocket,
    PipeEnd,
    Pollable,
    StreamSocket,
)
from repro.kernel.task import FdTable
from repro.kernel.uapi import (
    EAGAIN,
    ECONNREFUSED,
    EINVAL,
    EPIPE,
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLERR,
    EPOLLHUP,
    EPOLLIN,
    EPOLLOUT,
    O_NONBLOCK,
    SIGSEGV,
    SIGTERM,
    Segfault,
    SysError,
)
from repro.kernel.vfs import FileDesc, FileDescription, RegularFile
from repro.sim.core import Simulator
from repro.sim.machine import Machine
from repro.world import World


def finish(thread):
    if thread.exception is not None:
        raise thread.exception
    return thread.result


class TestSockets:
    def test_connect_refused_without_listener(self):
        def main(ctx):
            s = yield from ctx.socket()
            result = yield from ctx.syscall("connect", s, ("server", 9999))
            return result.retval

        w = World()
        task = w.kernel.spawn_task(w.client, main, name="c")
        w.run()
        assert finish(task.threads[0]) == -ECONNREFUSED

    def test_echo_roundtrip_same_machine(self):
        w = World()

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            c = (yield from ctx.syscall("accept", s)).retval
            data = yield from ctx.recv(c, 100)
            yield from ctx.send(c, data.upper())
            yield from ctx.close(c)
            yield from ctx.close(s)

        def client(ctx):
            s = yield from ctx.socket()
            yield from ctx.syscall("connect", s, ("server", 7))
            yield from ctx.send(s, b"hello")
            reply = yield from ctx.recv(s, 100)
            yield from ctx.close(s)
            return reply

        w.spawn(server, name="s")
        task = w.spawn(client, name="c")
        w.run()
        assert finish(task.threads[0]) == b"HELLO"

    def test_cross_machine_latency_visible(self):
        w = World()
        stamps = {}

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            c = (yield from ctx.syscall("accept", s)).retval
            yield from ctx.recv(c, 100)
            yield from ctx.send(c, b"pong")

        def client(ctx):
            s = yield from ctx.socket()
            start = ctx.sim.now
            yield from ctx.syscall("connect", s, ("server", 7))
            yield from ctx.send(s, b"ping")
            yield from ctx.recv(s, 100)
            stamps["rtt"] = ctx.sim.now - start

        w.spawn(server, name="s")
        w.kernel.spawn_task(w.client, client, name="c")
        w.run()
        # At least two round trips across a 30 µs-latency link.
        assert stamps["rtt"] >= 4 * w.costs.network.latency_ps

    def test_recv_eof_after_peer_close(self):
        w = World()

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            c = (yield from ctx.syscall("accept", s)).retval
            yield from ctx.close(c)

        def client(ctx):
            s = yield from ctx.socket()
            yield from ctx.syscall("connect", s, ("server", 7))
            return (yield from ctx.recv(s, 100))

        w.spawn(server, name="s")
        task = w.spawn(client, name="c")
        w.run()
        assert finish(task.threads[0]) == b""

    def test_send_after_peer_gone_is_epipe(self):
        w = World()

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            c = (yield from ctx.syscall("accept", s)).retval
            yield from ctx.close(c)
            yield from ctx.close(s)

        def client(ctx):
            s = yield from ctx.socket()
            yield from ctx.syscall("connect", s, ("server", 7))
            data = yield from ctx.recv(s, 10)  # EOF
            result = yield from ctx.syscall("sendto", s, 1, data=b"x")
            return data, result.retval

        w.spawn(server, name="s")
        task = w.spawn(client, name="c")
        w.run()
        assert finish(task.threads[0]) == (b"", -EPIPE)

    def test_nonblocking_accept_eagain(self):
        def main(ctx):
            s = yield from ctx.socket(flags=O_NONBLOCK)
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            result = yield from ctx.syscall("accept", s)
            return result.retval

        w = World()
        task = w.spawn(main, name="s")
        w.run()
        assert finish(task.threads[0]) == -EAGAIN

    def test_pipe_one_way(self):
        def main(ctx):
            r, wfd = yield from ctx.pipe()
            yield from ctx.write(wfd, b"through the pipe")
            return (yield from ctx.read(r, 100))

        w = World()
        task = w.spawn(main, name="p")
        w.run()
        assert finish(task.threads[0]) == b"through the pipe"


class TestEpoll:
    def test_epoll_wait_timeout_returns_empty(self):
        def main(ctx):
            ep = yield from ctx.epoll_create()
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, s, EPOLLIN)
            events = yield from ctx.epoll_wait(ep, timeout_ms=5)
            return events

        w = World()
        task = w.spawn(main, name="p")
        w.run()
        assert finish(task.threads[0]) == []

    def test_epoll_del_stops_events(self):
        w = World()

        def main(ctx):
            ep = yield from ctx.epoll_create()
            r, wfd = yield from ctx.pipe()
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r, EPOLLIN)
            yield from ctx.write(wfd, b"x")
            first = yield from ctx.epoll_wait(ep, timeout_ms=1)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_DEL, r, 0)
            second = yield from ctx.epoll_wait(ep, timeout_ms=1)
            return len(first), len(second)

        task = w.spawn(main, name="p")
        w.run()
        assert finish(task.threads[0]) == (1, 0)

    def test_epoll_wakes_blocked_waiter(self):
        w = World()
        order = []

        def waiter(ctx):
            ep = yield from ctx.epoll_create()
            r, wfd = yield from ctx.pipe()
            shared["r"], shared["w"] = r, wfd
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r, EPOLLIN)
            shared["task"] = ctx.task
            events = yield from ctx.epoll_wait(ep)
            order.append("woke")
            return events

        shared = {}

        def writer(ctx):
            yield from ctx.nanosleep(1_000_000_000)  # 1 ms
            # Write through the same task's pipe description.
            description = shared["task"].fdtable.get(shared["w"])
            description.write_bytes(b"data")
            order.append("wrote")

        task = w.spawn(waiter, name="waiter")
        w.spawn(writer, name="writer")
        w.run()
        events = finish(task.threads[0])
        assert order == ["wrote", "woke"]
        assert events and events[0][1] & EPOLLIN


    def test_watcher_registry_is_insertion_ordered(self):
        # Pollable.poke iterates the watcher registry and wakes each
        # epoll's sleepers in turn, so the iteration order is part of
        # the deterministic schedule.  A set would order watchers by
        # object address (heap-layout-dependent — it once flipped a
        # reference-sweep cell depending on PYTHONHASHSEED); the
        # registry must preserve registration order exactly, including
        # across unregister/re-register cycles.
        sim = Simulator()
        pollable = Pollable(sim)
        epolls = [Epoll(sim) for _ in range(5)]
        for index, ep in enumerate(epolls):
            assert ep.ctl(EPOLL_CTL_ADD, 10 + index, pollable, EPOLLIN) == 0
        assert list(pollable.watchers) == epolls
        # Each epoll maps to the fds that name the description in it.
        assert list(pollable.watchers.values()) == \
            [[10 + index] for index in range(5)]
        assert epolls[1].ctl(EPOLL_CTL_DEL, 11, pollable, 0) == 0
        assert epolls[1].ctl(EPOLL_CTL_ADD, 11, pollable, EPOLLIN) == 0
        assert list(pollable.watchers) == \
            [epolls[0]] + epolls[2:] + [epolls[1]]  # re-register: to back

    def test_del_of_one_dup_keeps_the_other_registered(self):
        w = World()

        def main(ctx):
            ep = yield from ctx.epoll_create()
            r, wfd = yield from ctx.pipe()
            table = ctx.task.fdtable
            r2 = table.install(table.get(r).incref())  # a dup of r
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r, EPOLLIN)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r2, EPOLLIN)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_DEL, r, 0)
            yield from ctx.write(wfd, b"x")
            events = yield from ctx.epoll_wait(ep, timeout_ms=1)
            return r2, events

        task = w.spawn(main, name="p")
        w.run()
        r2, events = finish(task.threads[0])
        assert events == [(r2, EPOLLIN)]

    def test_connect_pokes_epollout_registration(self):
        # EPOLLOUT rises on the connecting socket when connect() sets
        # its peer; nothing else pokes it.
        w = World()

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            yield from ctx.syscall("accept", s)
            yield from ctx.nanosleep(1_000_000_000)  # hold the connection

        def client(ctx):
            yield from ctx.nanosleep(1_000_000)
            ep = yield from ctx.epoll_create()
            s = yield from ctx.socket()
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, s, EPOLLOUT)
            before = yield from ctx.epoll_wait(ep, timeout_ms=1)
            yield from ctx.syscall("connect", s, ("server", 7))
            after = yield from ctx.epoll_wait(ep, timeout_ms=1)
            return s, before, after

        w.spawn(server, name="s")
        task = w.kernel.spawn_task(w.client, client, name="c")
        w.run()
        s, before, after = finish(task.threads[0])
        assert before == []
        assert after == [(s, EPOLLOUT)]

    def test_peer_close_pokes_hup_only_registration(self):
        # EPOLLHUP needs both EOF and the peer gone; a registration with
        # an empty mask sees neither EPOLLIN nor EPOLLOUT, so it is woken
        # only if the poke comes after the *last* of the two writes.
        w = World()
        shared = {}

        def server(ctx):
            s = yield from ctx.socket()
            yield from ctx.bind(s, ("server", 7))
            yield from ctx.listen(s)
            c = (yield from ctx.syscall("accept", s)).retval
            ep = yield from ctx.epoll_create()
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, c, 0)
            shared["parked"] = True
            events = yield from ctx.epoll_wait(ep)
            return c, events

        def client(ctx):
            s = yield from ctx.socket()
            yield from ctx.syscall("connect", s, ("server", 7))
            yield from ctx.nanosleep(1_000_000_000)
            assert shared["parked"]
            yield from ctx.close(s)

        task = w.spawn(server, name="s")
        w.spawn(client, name="c")  # same machine: the FIN is immediate
        w.run()
        c, events = finish(task.threads[0])
        assert events == [(c, EPOLLHUP)]

    def test_remote_close_after_shutdown_raises_hup_at_once(self):
        # Across the rack link the FIN's poke arrives a latency later;
        # if an earlier shutdown already delivered EOF, HUP rises at the
        # close itself and must be poked there.
        w = World()
        near = StreamSocket(w.sim, w.client, network=w.network)
        far = StreamSocket(w.sim, w.server, network=w.network)
        near.peer, far.peer = far, near
        ep = Epoll(w.sim)
        assert ep.ctl(EPOLL_CTL_ADD, 5, far, 0) == 0
        near.shutdown_write()
        w.run()
        assert far.rx.eof and ep.ready_events() == []
        near.decref()
        assert ep.ready_events() == [(5, EPOLLHUP)]

    def test_ctl_unknown_op_is_einval(self):
        sim = Simulator()
        assert Epoll(sim).ctl(99, 3, Pollable(sim), EPOLLIN) == -EINVAL

    def test_registration_order_survives_mod_and_moves_on_readd(self):
        sim = Simulator()
        ep = Epoll(sim)
        ends = {}
        for fd in (7, 3, 9, 5):  # fd numbers deliberately unsorted
            ends[fd], write_end = PipeEnd.make_pipe(sim)
            assert ep.ctl(EPOLL_CTL_ADD, fd, ends[fd], EPOLLIN) == 0
            write_end.write_bytes(b"x")

        def order():
            return [fd for fd, _ in ep.ready_events()]

        assert order() == [7, 3, 9, 5]
        # Pokes arriving in another order do not reorder the report.
        for fd in (5, 9, 3, 7):
            ends[fd].poke()
        assert order() == [7, 3, 9, 5]
        assert ep.ctl(EPOLL_CTL_MOD, 3, ends[3], EPOLLIN | EPOLLOUT) == 0
        assert order() == [7, 3, 9, 5]  # MOD keeps the position
        assert ep.ctl(EPOLL_CTL_DEL, 7, ends[7], 0) == 0
        assert ep.ctl(EPOLL_CTL_ADD, 7, ends[7], EPOLLIN) == 0
        assert order() == [3, 9, 5, 7]  # DEL + ADD moves to the back

    def test_truncated_wait_repeats_the_same_head(self):
        # Level-triggered: while the first fds stay ready, every wait
        # truncated by max_events reports them again, not the next ones.
        w = World()

        def main(ctx):
            ep = yield from ctx.epoll_create()
            reads = []
            for _ in range(5):
                r, wfd = yield from ctx.pipe()
                yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r, EPOLLIN)
                yield from ctx.write(wfd, b"x")
                reads.append(r)
            waits = []
            for _ in range(3):
                waits.append((yield from ctx.epoll_wait(ep, max_events=2)))
            yield from ctx.read(reads[0], 1)  # drain the first
            waits.append((yield from ctx.epoll_wait(ep, max_events=2)))
            return reads, waits

        task = w.spawn(main, name="p")
        w.run()
        reads, waits = finish(task.threads[0])
        head = [(reads[0], EPOLLIN), (reads[1], EPOLLIN)]
        assert waits[:3] == [head, head, head]
        assert waits[3] == [(reads[1], EPOLLIN), (reads[2], EPOLLIN)]


def _rescan(epoll):
    """The full interest-list scan ``Epoll.ready_events`` replaced.

    Kept as the oracle: same loop as the parent commit's, minus the
    pruning of dead descriptions (skipping them reports the same).
    """
    out = []
    for fd, (description, mask, _seq) in epoll.interest.items():
        if description.refcount <= 0:
            continue
        hit = description.poll_mask() & (mask | EPOLLHUP | EPOLLERR)
        if hit:
            out.append((fd, hit))
    return out


class _EpollWorld:
    """Several epolls over one descriptor table, driven one random
    operation at a time and compared with :func:`_rescan` after each.

    Every stream is local (no network), so an operation's pokes land
    before it returns and ``sim.run()`` only delivers the wake-ups.
    """

    #: Mostly EPOLLIN: EPOLLOUT is ready nearly always, and an epoll
    #: that is never empty never parks a waiter.
    MASKS = (0, EPOLLIN, EPOLLIN, EPOLLIN, EPOLLOUT, EPOLLIN | EPOLLOUT)

    def __init__(self, epolls: int = 3) -> None:
        self.sim = Simulator()
        self.machine = Machine(self.sim, name="m")
        self.table = FdTable()
        self.epolls = [Epoll(self.sim) for _ in range(epolls)]
        self.parked = [None] * epolls
        for _ in range(8):
            for end in PipeEnd.make_pipe(self.sim):
                self.table.install(end)
            for end in PipeEnd.make_socketpair(self.sim):
                self.table.install(end)
            for end in self._stream_pair():
                self.table.install(end)
        for port in range(4):
            self.table.install(
                ListenerSocket(self.sim, self.machine, ("m", port)))
        # Start with every epoll watching a third of these, all idle.
        for fd in sorted(self.table._fds):
            self.epolls[fd % epolls].ctl(
                EPOLL_CTL_ADD, fd, self.table.get(fd), EPOLLIN)
        self.table.install(FileDesc(RegularFile("f"), 0))  # always ready
        self.table.install(FileDescription())  # never ready
        self.operations = (
            self.op_add, self.op_add, self.op_add, self.op_add,
            self.op_mod, self.op_del, self.op_dup, self.op_write,
            self.op_write, self.op_drain, self.op_drain, self.op_drain,
            self.op_shutdown, self.op_close, self.op_enqueue,
            self.op_accept, self.op_accept, self.op_pass_fd) + \
            (self.op_serve,) * 6
        self.park()

    def _stream_pair(self):
        a = StreamSocket(self.sim, self.machine)
        b = StreamSocket(self.sim, self.machine)
        a.peer, b.peer = b, a
        return a, b

    # -- the parked epoll_wait of each epoll ----------------------------

    def park(self) -> None:
        """Park a waiter on every epoll that has none and is not ready."""
        for index, ep in enumerate(self.epolls):
            if self.parked[index] is None and not _rescan(ep):
                self.parked[index] = self.machine.spawn(
                    ep.wait(64), name=f"waiter{index}", daemon=True)
        self.sim.run()

    def check(self) -> None:
        self.sim.run()
        for index, ep in enumerate(self.epolls):
            expected = _rescan(ep)
            assert ep.ready_events() == expected
            # A dying pollable pokes, so the re-poll met and pruned it.
            assert not [fd for fd, (description, _, _) in ep.interest.items()
                        if description.refcount <= 0
                        and isinstance(description, Pollable)]
            waiter = self.parked[index]
            if waiter is not None:
                # Parked while nothing was ready: it returns iff the
                # oracle went non-empty, and with the oracle's events.
                assert waiter.done == bool(expected)
                if waiter.done:
                    assert waiter.result == expected[:64]
                    self.parked[index] = None

    def step(self, rng) -> None:
        self.operations[rng.randrange(len(self.operations))](rng)
        self.check()
        self.park()

    # -- operations -------------------------------------------------------

    @staticmethod
    def _buffer(description):
        """The receive buffer a read of ``description`` drains, if any."""
        return getattr(description, "rx", None) or \
            getattr(description, "buffer", None)

    def _pick(self, rng, kinds=None):
        fds = [fd for fd in sorted(self.table._fds)
               if kinds is None or isinstance(self.table.get(fd), kinds)]
        return fds[rng.randrange(len(fds))] if fds else None

    def op_add(self, rng) -> None:
        fd = self._pick(rng)
        if fd is not None:
            self.epolls[rng.randrange(len(self.epolls))].ctl(
                EPOLL_CTL_ADD, fd, self.table.get(fd),
                self.MASKS[rng.randrange(len(self.MASKS))])

    def _ctl_registered(self, rng, op) -> None:
        # As the kernel does: the fd must be open, and the description
        # passed is whatever the table holds under it *now* (which after
        # a close + reuse of the number is not the one registered).
        ep = self.epolls[rng.randrange(len(self.epolls))]
        fds = [fd for fd in ep.interest if self.table.get(fd) is not None]
        if fds:
            fd = fds[rng.randrange(len(fds))]
            ep.ctl(op, fd, self.table.get(fd),
                   self.MASKS[rng.randrange(len(self.MASKS))])

    def op_mod(self, rng) -> None:
        self._ctl_registered(rng, EPOLL_CTL_MOD)

    def op_del(self, rng) -> None:
        self._ctl_registered(rng, EPOLL_CTL_DEL)

    def op_serve(self, rng) -> None:
        """One turn of a server loop: drain each event, or DEL + close."""
        ep = self.epolls[rng.randrange(len(self.epolls))]
        for fd, hit in _rescan(ep):
            if fd not in ep.interest:  # pruned by a close earlier in the turn
                continue
            description = ep.interest[fd][0]
            buffer = self._buffer(description)
            if hit == EPOLLIN and buffer is not None and buffer.size:
                buffer.pull(buffer.size)
            else:
                ep.ctl(EPOLL_CTL_DEL, fd, description, 0)
                if self.table.get(fd) is description:
                    self.table.close(fd)

    def op_dup(self, rng) -> None:
        fd = self._pick(rng)
        if fd is not None and len(self.table._fds) < 120:
            self.table.install(self.table.get(fd).incref())

    def op_write(self, rng) -> None:
        # A socketpair end (DuplexPipe) only ever carries passed fds.
        fd = self._pick(rng, (PipeEnd, StreamSocket))
        if fd is None:
            return
        description = self.table.get(fd)
        if isinstance(description, StreamSocket):
            description.send_bytes(b"data")
        else:
            description.write_bytes(b"data")

    def op_drain(self, rng) -> None:
        fd = self._pick(rng, (PipeEnd, DuplexPipe, StreamSocket))
        if fd is None:
            return
        description = self.table.get(fd)
        buffer = self._buffer(description)
        buffer.pull(buffer.size)
        if isinstance(description, DuplexPipe):
            description.fd_queue.clear()

    def op_shutdown(self, rng) -> None:
        fd = self._pick(rng, StreamSocket)
        if fd is not None:
            self.table.get(fd).shutdown_write()

    def op_close(self, rng) -> None:
        fd = self._pick(rng)
        if fd is not None:
            self.table.close(fd)

    def op_enqueue(self, rng) -> None:
        fd = self._pick(rng, ListenerSocket)
        if fd is not None:
            server_end, _client_end = self._stream_pair()
            self.table.get(fd).enqueue(server_end)

    def op_accept(self, rng) -> None:
        fd = self._pick(rng, ListenerSocket)
        if fd is not None and self.table.get(fd).pending:
            self.table.install(self.table.get(fd).pending.popleft())

    def op_pass_fd(self, rng) -> None:
        fd = self._pick(rng, DuplexPipe)
        if fd is not None:
            self.table.get(fd).push_fd(FileDescription())


class TestEpollReadyListAgainstRescan:
    @pytest.mark.parametrize("base", range(0, 200, 25))
    def test_random_sequences_match_the_rescan(self, base):
        for seed in range(base, base + 25):
            rng = random.Random(seed)
            world = _EpollWorld()
            assert len(world.epolls) >= 3 and len(world.table._fds) >= 50
            for _ in range(250):
                world.step(rng)

    @pytest.mark.slow
    def test_stateful_sequences_match_the_rescan(self):
        from hypothesis import settings
        from hypothesis import strategies as st
        from hypothesis.stateful import (
            RuleBasedStateMachine,
            rule,
            run_state_machine_as_test,
        )

        class EpollWalk(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.world = _EpollWorld()

            @rule(rng=st.randoms(use_true_random=False))
            def step(self, rng):
                self.world.step(rng)

        run_state_machine_as_test(EpollWalk, settings=settings(
            max_examples=300, stateful_step_count=80, deadline=None))


class TestProcessesAndThreads:
    def test_fork_runs_child_and_wait4_reaps(self):
        w = World()
        log = []

        def child(ctx):
            yield from ctx.nanosleep(500_000)
            log.append("child")
            yield from ctx.syscall("exit_group", 7)

        def parent(ctx):
            pid = yield from ctx.fork(child)
            reaped, status = yield from ctx.wait4(pid)
            log.append("parent")
            return reaped == pid, status

        task = w.spawn(parent, name="parent")
        w.run()
        assert finish(task.threads[0]) == (True, 7)
        assert log == ["child", "parent"]

    def test_fork_child_shares_descriptions(self):
        w = World()

        def child(ctx):
            data = yield from ctx.read(3, 3)  # inherited fd 3
            shared["child_read"] = data
            return None

        shared = {}

        def parent(ctx):
            fd = yield from ctx.open("/tmp/a")
            assert fd == 3
            pid = yield from ctx.fork(child)
            yield from ctx.wait4(pid)
            # Child advanced the shared offset.
            return (yield from ctx.read(fd, 3))

        fs_files = {"/tmp/a": b"abcdef"}
        fs = w.kernel.fs(w.server)
        for path, data in fs_files.items():
            fs.create(path, data)
        task = w.spawn(parent, name="parent")
        w.run()
        assert shared["child_read"] == b"abc"
        assert finish(task.threads[0]) == b"def"

    def test_threads_share_fdtable(self):
        w = World()
        shared = {}

        def worker(ctx):
            shared["data"] = yield from ctx.read(shared["fd"], 5)
            return None

        def main(ctx):
            fd = yield from ctx.open("/tmp/a")
            shared["fd"] = fd
            tid = yield from ctx.spawn_thread(worker)
            yield from ctx.nanosleep(10_000_000)
            return tid

        w.kernel.fs(w.server).create("/tmp/a", b"words")
        task = w.spawn(main, name="m")
        w.run()
        assert shared["data"] == b"words"
        assert len(task.threads) == 2

    def test_exit_group_kills_all_threads(self):
        w = World()

        def worker(ctx):
            yield from ctx.nanosleep(10_000_000_000_000)  # long sleep
            return "never"

        def main(ctx):
            yield from ctx.spawn_thread(worker)
            yield from ctx.syscall("exit_group", 3)

        task = w.spawn(main, name="m")
        w.run()
        assert task.exited and task.exit_status == 3
        assert all(t.done for t in task.threads)


class TestSignals:
    def test_sigterm_default_kills(self):
        w = World()

        def victim(ctx):
            yield from ctx.nanosleep(10_000_000_000_000)
            return "survived"

        victim_task = w.spawn(victim, name="victim")

        def killer(ctx):
            yield from ctx.nanosleep(1_000_000)
            yield from ctx.syscall("kill", victim_task.pid, SIGSEGV)
            return None

        w.spawn(killer, name="killer")
        w.run()
        assert victim_task.exited
        assert victim_task.exit_status == 128 + SIGSEGV

    def test_registered_handler_intercepts(self):
        w = World()
        caught = []

        def victim(ctx):
            yield from ctx.syscall(
                "rt_sigaction", SIGTERM, lambda task, sig: caught.append(sig))
            yield from ctx.nanosleep(5_000_000)
            return "survived"

        victim_task = w.spawn(victim, name="victim")

        def killer(ctx):
            yield from ctx.nanosleep(1_000_000)
            yield from ctx.syscall("kill", victim_task.pid, SIGTERM)
            return None

        w.spawn(killer, name="killer")
        w.run()
        assert caught == [SIGTERM]
        assert finish(victim_task.threads[0]) == "survived"

    def test_segfault_without_hook_exits_139(self):
        w = World()

        def crasher(ctx):
            yield from ctx.compute(100)
            raise Segfault("null deref")

        task = w.spawn(crasher, name="crash")
        w.run()
        assert task.exited and task.exit_status == 139

    def test_segfault_hook_invoked(self):
        w = World()
        seen = []

        def crasher(ctx):
            yield from ctx.compute(100)
            raise Segfault("bad store")

        task = w.spawn(crasher, name="crash")
        task.segv_hook = lambda t, fault: seen.append(str(fault))
        w.run()
        assert seen == ["bad store"]
