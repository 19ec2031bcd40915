"""The simulated kernel: semantics for ~60 system calls.

Costs and semantics are separated: :meth:`Kernel.native` charges the
calibrated native cost and then runs :meth:`Kernel.execute`, which is
pure semantics.  NVX monitors reuse ``execute`` when they need semantics
without the native-trap charge (e.g. a follower installing a transferred
descriptor locally).
"""

from __future__ import annotations

import inspect
import struct
import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.costmodel import CostModel, DEFAULT_COSTS, SEC_PS, US_PS, cycles
from repro.kernel.epoll import Epoll
from repro.kernel.net import (
    ListenerSocket,
    PipeEnd,
    StreamSocket,
)
from repro.kernel.task import StopTask, Task
from repro.kernel.uapi import (
    CLONE_THREAD,
    EBADF,
    ECONNREFUSED,
    EINVAL,
    ENOENT,
    ENOSYS,
    ENOTSOCK,
    O_NONBLOCK,
    SIGKILL,
    SIGSEGV,
    Syscall,
    SysResult,
)
from repro.kernel.vfs import FileDesc, Filesystem
from repro.sim.core import Compute, Simulator, Sleep
from repro.sim.machine import Machine
from repro.sim.network import Network

#: Unix epoch offset applied to the virtual clock, so time() returns
#: plausible absolute timestamps (2015-03-14, the paper's conference).
EPOCH_OFFSET_S = 1_426_291_200


class Kernel:
    """One kernel instance serving every simulated machine in a world."""

    def __init__(self, sim: Simulator, network: Optional[Network] = None,
                 costs: CostModel = DEFAULT_COSTS) -> None:
        self.sim = sim
        self.network = network
        self.costs = costs
        #: Observability hook shared with the simulator; the syscall gate
        #: reads this per dispatch (one attribute load when disabled).
        self.tracer = sim.tracer
        self._filesystems: Dict[str, Filesystem] = {}
        self.tasks: Dict[int, Task] = {}
        self._next_pid = 100
        #: (machine_name, port) → ListenerSocket
        self.listeners: Dict[Tuple[str, int], ListenerSocket] = {}
        #: syscall name → (bound ``_sys_<name>`` handler, whether it is a
        #: generator), filled on first use (only names that resolve are
        #: kept, so it stays bounded).
        self._handlers: Dict[str, Tuple[Callable, bool]] = {}

    # -- world plumbing ---------------------------------------------------

    def fs(self, machine: Machine) -> Filesystem:
        name = machine.name
        if name not in self._filesystems:
            self._filesystems[name] = Filesystem(
                urandom_seed=zlib.crc32(name.encode()) & 0xFFFF)
        return self._filesystems[name]

    def spawn_task(self, machine: Machine, main: Callable, name: str,
                   daemon: bool = False) -> Task:
        """Create a task whose main thread runs ``main(ctx)``.

        ``main`` is a generator function taking a
        :class:`~repro.runtime.context.ProcessContext`.
        """
        from repro.runtime.context import ProcessContext

        task = Task(self, machine, name, self._next_pid)
        task.daemon = daemon
        self._next_pid += 1
        self.tasks[task.pid] = task
        task.add_thread(main(ProcessContext(task)), name=name)
        return task

    def on_task_exit(self, task: Task) -> None:
        self.tasks.pop(task.pid, None)
        # Withdraw any listeners the task still owned (best effort; the
        # descriptions were already closed by close_all()).
        dead = [key for key, listener in self.listeners.items()
                if listener.closed]
        for key in dead:
            del self.listeners[key]

    # -- cost + semantics --------------------------------------------------

    def native(self, task: Task, call: Syscall):
        """Generator: charge the native cost, then run semantics."""
        nbytes = max(call.nbytes, len(call.data))
        yield Compute(cycles(self.costs.syscalls.native(call.name, nbytes)))
        return (yield from self.execute(task, call))

    def execute(self, task: Task, call: Syscall):
        """Generator: pure semantics; returns a SysResult.

        A ``_sys_<name>`` handler returns its SysResult; a handler that
        can block is a generator, driven here with ``yield from``.
        """
        try:
            handler, blocks = self._handlers[call.name]
        except KeyError:
            handler = getattr(self, f"_sys_{call.name}", None)
            if handler is None:
                return SysResult(-ENOSYS)
            blocks = inspect.isgeneratorfunction(handler)
            self._handlers[call.name] = handler, blocks
        if blocks:
            return (yield from handler(task, call))
        return handler(task, call)

    # -- clock -------------------------------------------------------------

    def now_seconds(self) -> int:
        return EPOCH_OFFSET_S + self.sim.now // SEC_PS

    def now_micros(self) -> int:
        return EPOCH_OFFSET_S * 1_000_000 + self.sim.now // US_PS

    def now_nanos(self) -> int:
        return EPOCH_OFFSET_S * 1_000_000_000 + self.sim.now // 1000

    # =====================================================================
    # File syscalls
    # =====================================================================

    def _sys_open(self, task: Task, call: Syscall):
        path, flags = call.arg(0), call.arg(1)
        result = self.fs(task.machine).open(path, flags)
        if isinstance(result, int):
            return SysResult(result)
        fd = task.fdtable.install(result)
        return SysResult(fd, new_fds=(fd,))

    def _sys_close(self, task: Task, call: Syscall):
        return SysResult(task.fdtable.close(call.arg(0)))

    def _sys_read(self, task: Task, call: Syscall):
        fd, size = call.arg(0), call.arg(1)
        description = task.fdtable.get(fd)
        if description is None:
            return SysResult(-EBADF)
        if isinstance(description, FileDesc):
            data = description.read(size)
            return SysResult(len(data), data=data)
        if isinstance(description, StreamSocket):
            data = yield from description.recv_bytes(size)
            if isinstance(data, int):
                return SysResult(data)
            return SysResult(len(data), data=data)
        if isinstance(description, PipeEnd):
            data = yield from description.read_bytes(size)
            if isinstance(data, int):
                return SysResult(data)
            return SysResult(len(data), data=data)
        return SysResult(-EBADF)

    def _sys_write(self, task: Task, call: Syscall):
        fd = call.arg(0)
        data = call.data
        description = task.fdtable.get(fd)
        if description is None:
            return SysResult(-EBADF)
        if isinstance(description, FileDesc):
            return SysResult(description.write(data))
        if isinstance(description, StreamSocket):
            return SysResult(description.send_bytes(data))
        if isinstance(description, PipeEnd):
            return SysResult(description.write_bytes(data))
        return SysResult(-EBADF)

    def _sys_pread(self, task: Task, call: Syscall):
        fd, size, offset = call.arg(0), call.arg(1), call.arg(2)
        description = task.fdtable.get(fd)
        if not isinstance(description, FileDesc):
            return SysResult(-EBADF)
        data = description.inode.read_at(offset, size)
        return SysResult(len(data), data=data)

    def _stat_bytes(self, inode) -> bytes:
        kind = {"file": 0o100000, "dir": 0o040000,
                "chardev": 0o020000}.get(inode.kind, 0)
        return struct.pack("<qq", kind, inode.size())

    def _sys_stat(self, task: Task, call: Syscall):
        inode = self.fs(task.machine).lookup(call.arg(0))
        if inode is None:
            return SysResult(-ENOENT)
        return SysResult(0, data=self._stat_bytes(inode))

    _sys_lstat = _sys_stat

    def _sys_fstat(self, task: Task, call: Syscall):
        description = task.fdtable.get(call.arg(0))
        if description is None:
            return SysResult(-EBADF)
        if isinstance(description, FileDesc):
            return SysResult(0, data=self._stat_bytes(description.inode))
        return SysResult(0, data=struct.pack("<qq", 0o140000, 0))

    def _sys_fcntl(self, task: Task, call: Syscall):
        from repro.kernel.uapi import F_GETFD, F_GETFL, F_SETFD, F_SETFL

        fd, cmd, arg = call.arg(0), call.arg(1), call.arg(2)
        description = task.fdtable.get(fd)
        if description is None:
            return SysResult(-EBADF)
        if cmd == F_GETFD:
            return SysResult(int(description.cloexec))
        if cmd == F_SETFD:
            description.cloexec = bool(arg & 1)
            return SysResult(0)
        if cmd == F_GETFL:
            return SysResult(getattr(description, "flags", 0))
        if cmd == F_SETFL:
            if hasattr(description, "flags"):
                description.flags = arg
            return SysResult(0)
        return SysResult(-EINVAL)

    def _sys_getdents(self, task: Task, call: Syscall):
        return SysResult(0, data=b"")

    def _sys_getcwd(self, task: Task, call: Syscall):
        data = task.cwd.encode()
        return SysResult(len(data), data=data)

    def _sys_chdir(self, task: Task, call: Syscall):
        task.cwd = call.arg(0)
        return SysResult(0)

    # =====================================================================
    # Sockets
    # =====================================================================

    def _sys_socket(self, task: Task, call: Syscall):
        flags = call.arg(2, 0)
        sock = StreamSocket(self.sim, task.machine, network=self.network,
                            flags=flags)
        fd = task.fdtable.install(sock)
        return SysResult(fd, new_fds=(fd,))

    def _sys_bind(self, task: Task, call: Syscall):
        fd, addr = call.arg(0), call.arg(1)
        description = task.fdtable.get(fd)
        if not isinstance(description, StreamSocket):
            return SysResult(-ENOTSOCK)
        key = (task.machine.name, addr[1])
        if key in self.listeners and not self.listeners[key].closed:
            from repro.kernel.uapi import EADDRINUSE

            return SysResult(-EADDRINUSE)
        description.local_addr = (task.machine.name, addr[1])
        return SysResult(0)

    def _sys_listen(self, task: Task, call: Syscall):
        fd, backlog = call.arg(0), call.arg(1, 128)
        description = task.fdtable.get(fd)
        if not isinstance(description, StreamSocket):
            return SysResult(-ENOTSOCK)
        if description.local_addr is None:
            return SysResult(-EINVAL)
        listener = ListenerSocket(self.sim, task.machine,
                                  description.local_addr, backlog=backlog,
                                  flags=description.flags)
        # The fd morphs into a listening socket, like Linux.
        task.fdtable.install(listener, at=fd)
        self.listeners[listener.addr] = listener
        return SysResult(0)

    def _sys_accept(self, task: Task, call: Syscall):
        fd = call.arg(0)
        description = task.fdtable.get(fd)
        if not isinstance(description, ListenerSocket):
            return SysResult(-ENOTSOCK)
        conn = yield from description.accept_one()
        if isinstance(conn, int):
            return SysResult(conn)
        new_fd = task.fdtable.install(conn)
        peer = conn.remote_addr or ("?", 0)
        return SysResult(new_fd, new_fds=(new_fd,),
                         data=f"{peer[0]}:{peer[1]}".encode())

    def _sys_accept4(self, task: Task, call: Syscall):
        result = yield from self._sys_accept(task, call)
        if result.ok and call.arg(1, 0) & O_NONBLOCK:
            sock = task.fdtable.get(result.retval)
            if isinstance(sock, StreamSocket):
                sock.flags |= O_NONBLOCK
        return result

    def _sys_connect(self, task: Task, call: Syscall):
        fd, addr = call.arg(0), call.arg(1)
        description = task.fdtable.get(fd)
        if not isinstance(description, StreamSocket):
            return SysResult(-ENOTSOCK)
        host, port = addr
        listener = self.listeners.get((host, port))
        if listener is None or listener.closed:
            return SysResult(-ECONNREFUSED)
        server_machine = listener.machine
        # Connection handshake: one RTT when crossing the rack link.
        if self.network is not None and server_machine is not task.machine:
            yield Sleep(2 * self.network.spec.latency_ps)
        server_end = StreamSocket(self.sim, server_machine,
                                  network=self.network)
        server_end.peer = description
        description.remote_addr = (host, port)
        server_end.local_addr = (host, port)
        server_end.remote_addr = (task.machine.name, 0)
        if not listener.enqueue(server_end):
            return SysResult(-ECONNREFUSED)
        description.peer = server_end
        description.poke()  # EPOLLOUT rises on the connecting socket
        return SysResult(0)

    _sys_send = _sys_sendto = _sys_write
    _sys_recv = _sys_recvfrom = _sys_recvmsg = _sys_read

    def _sys_setsockopt(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_pipe(self, task: Task, call: Syscall):
        read_end, write_end = PipeEnd.make_pipe(self.sim)
        fd_r = task.fdtable.install(read_end)
        fd_w = task.fdtable.install(write_end)
        return SysResult(0, new_fds=(fd_r, fd_w), aux=(fd_r, fd_w))

    # =====================================================================
    # epoll / poll
    # =====================================================================

    def _sys_epoll_create(self, task: Task, call: Syscall):
        epoll = Epoll(self.sim)
        fd = task.fdtable.install(epoll)
        return SysResult(fd, new_fds=(fd,))

    def _sys_epoll_ctl(self, task: Task, call: Syscall):
        epfd, op, fd, events = (call.arg(0), call.arg(1), call.arg(2),
                                call.arg(3))
        epoll = task.fdtable.get(epfd)
        if not isinstance(epoll, Epoll):
            return SysResult(-EBADF)
        target = task.fdtable.get(fd)
        if target is None:
            return SysResult(-EBADF)
        return SysResult(epoll.ctl(op, fd, target, events))

    def _sys_epoll_wait(self, task: Task, call: Syscall):
        epfd, max_events = call.arg(0), call.arg(1, 64)
        timeout_ms = call.arg(2, -1)
        epoll = task.fdtable.get(epfd)
        if not isinstance(epoll, Epoll):
            return SysResult(-EBADF)
        timeout_ps = None if timeout_ms < 0 else timeout_ms * 1_000_000_000
        ready = yield from epoll.wait(max_events, timeout_ps=timeout_ps)
        payload = struct.pack("<%di" % (2 * len(ready)),
                              *[x for pair in ready for x in pair])
        return SysResult(len(ready), data=payload, aux=tuple(ready))

    def _sys_poll(self, task: Task, call: Syscall):
        # Simplified: poll one fd for readability.
        fd = call.arg(0)
        description = task.fdtable.get(fd)
        if description is None:
            return SysResult(-EBADF)
        from repro.kernel.uapi import EPOLLIN

        while not description.poll_mask() & EPOLLIN:
            waiters = getattr(description, "read_waiters", None)
            if waiters is None:
                break
            yield from waiters.wait()
        return SysResult(1)

    _sys_select = _sys_poll

    # =====================================================================
    # Processes, threads, signals
    # =====================================================================

    def _sys_fork(self, task: Task, call: Syscall):
        """args: (child_main,) — the generator function the child runs."""
        child_main = call.arg(0)
        if child_main is None:
            return SysResult(-EINVAL)
        child = self._fork_task(task, child_main)
        return SysResult(child.pid)

    def _fork_task(self, task: Task, child_main) -> Task:
        from repro.runtime.context import ProcessContext

        child = Task(self, task.machine, f"{task.name}.child",
                     self._next_pid)
        child.daemon = task.daemon
        self._next_pid += 1
        child.fdtable = task.fdtable.clone()
        child.gate.intercepting = task.gate.intercepting
        child.gate.patch_kinds = task.gate.patch_kinds
        self.tasks[child.pid] = child
        task.children.append(child)
        ctx = ProcessContext(child)
        child.add_thread(child_main(ctx), name=child.name)
        return child

    def _sys_clone(self, task: Task, call: Syscall):
        """args: (flags, thread_main) — CLONE_THREAD spawns a thread."""
        flags, thread_main = call.arg(0), call.arg(1)
        if not flags & CLONE_THREAD:
            return self._sys_fork(
                task, Syscall("fork", (thread_main,), site=call.site))
        from repro.runtime.context import ProcessContext

        ctx = ProcessContext(task)
        proc = task.add_thread(thread_main(ctx))
        return SysResult(task.thread_ids[proc])

    def _sys_exit(self, task: Task, call: Syscall):
        raise StopTask(call.arg(0, 0))

    def _sys_exit_group(self, task: Task, call: Syscall):
        raise StopTask(call.arg(0, 0))

    def _sys_wait4(self, task: Task, call: Syscall):
        pid = call.arg(0, -1)
        children = ([c for c in task.children if c.pid == pid]
                    if pid > 0 else list(task.children))
        if not children:
            return SysResult(-ENOENT)
        for child in children:
            if child.exited:
                return SysResult(child.pid, aux=(child.exit_status,))
        # Block on the first child to exit.
        child = children[0]
        status = yield from child.exit_waiters.wait()
        return SysResult(child.pid, aux=(status,))

    def _sys_kill(self, task: Task, call: Syscall):
        pid, sig = call.arg(0), call.arg(1)
        target = self.tasks.get(pid)
        if target is None:
            return SysResult(-ENOENT)
        self.deliver_signal(target, sig)
        return SysResult(0)

    def deliver_signal(self, target: Task, sig: int) -> None:
        handler = target.signal_handlers.get(sig)
        if handler is not None:
            handler(target, sig)
        elif sig in (SIGKILL, SIGSEGV):
            target.kill_now(128 + sig)

    def _sys_rt_sigaction(self, task: Task, call: Syscall):
        sig, handler = call.arg(0), call.arg(1)
        if handler is None:
            task.signal_handlers.pop(sig, None)
        else:
            task.signal_handlers[sig] = handler
        return SysResult(0)

    def _sys_rt_sigprocmask(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_sigaltstack(self, task: Task, call: Syscall):
        return SysResult(0)

    # -- identity (the multi-revision experiment's syscalls, §5.2) --------

    def _sys_getuid(self, task: Task, call: Syscall):
        return SysResult(task.uid)

    def _sys_geteuid(self, task: Task, call: Syscall):
        return SysResult(task.euid)

    def _sys_getgid(self, task: Task, call: Syscall):
        return SysResult(task.gid)

    def _sys_getegid(self, task: Task, call: Syscall):
        return SysResult(task.egid)

    # =====================================================================
    # Time (vDSO family), sleeping, scheduling
    # =====================================================================

    def _sys_time(self, task: Task, call: Syscall):
        return SysResult(self.now_seconds())

    def _sys_gettimeofday(self, task: Task, call: Syscall):
        micros = self.now_micros()
        return SysResult(0, aux=(micros // 1_000_000, micros % 1_000_000))

    def _sys_clock_gettime(self, task: Task, call: Syscall):
        nanos = self.now_nanos()
        return SysResult(0, aux=(nanos // 1_000_000_000,
                                 nanos % 1_000_000_000))

    def _sys_getcpu(self, task: Task, call: Syscall):
        return SysResult(0, aux=(0, 0))

    def _sys_nanosleep(self, task: Task, call: Syscall):
        yield Sleep(max(0, call.arg(0)))
        return SysResult(0)

    _sys_clock_nanosleep = _sys_nanosleep

    def _sys_sched_yield(self, task: Task, call: Syscall):
        yield Sleep(0)
        return SysResult(0)

    # =====================================================================
    # Memory (process-local; executed by every version)
    # =====================================================================

    def _sys_mmap(self, task: Task, call: Syscall):
        length = call.arg(1, 4096)
        addr = task.mmap_base
        task.mmap_base += (length + 0xFFF) & ~0xFFF
        return SysResult(addr)

    def _sys_munmap(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_mprotect(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_madvise(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_brk(self, task: Task, call: Syscall):
        request = call.arg(0, 0)
        if request:
            task.heap_brk = request
        return SysResult(task.heap_brk)

    # =====================================================================
    # Misc
    # =====================================================================

    def _sys_futex(self, task: Task, call: Syscall):
        # Process-local synchronisation; semantics provided by the
        # higher-level sync primitives. Charged but otherwise a no-op.
        return SysResult(0)

    def _sys_uname(self, task: Task, call: Syscall):
        return SysResult(0, data=b"Linux varan-sim 3.13.0 x86_64")

    def _sys_getrandom(self, task: Task, call: Syscall):
        size = call.arg(0, 16)
        inode = self.fs(task.machine).lookup("/dev/urandom")
        data = inode.read_at(0, size)
        return SysResult(len(data), data=data)

    def _sys_getrlimit(self, task: Task, call: Syscall):
        return SysResult(0, aux=(65536, 65536))

    def _sys_setrlimit(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_getrusage(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_umask(self, task: Task, call: Syscall):
        old = task.umask
        task.umask = call.arg(0)
        return SysResult(old)

    def _sys_prctl(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_arch_prctl(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_set_tid_address(self, task: Task, call: Syscall):
        return SysResult(task.current_tid())

    def _sys_set_robust_list(self, task: Task, call: Syscall):
        return SysResult(0)

    def _sys_sched_getaffinity(self, task: Task, call: Syscall):
        return SysResult(task.machine.spec.logical_cores)

    def _sys_sched_setaffinity(self, task: Task, call: Syscall):
        return SysResult(0)
