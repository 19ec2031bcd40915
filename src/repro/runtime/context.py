"""High-level, Pythonic syscall API for simulated programs.

Application code is written as generator functions receiving a
:class:`ProcessContext`; every wrapper drives the task's syscall gate
with ``yield from``, so monitors (Varan, ptrace baselines) interpose
transparently::

    def main(ctx):
        fd = yield from ctx.open("/etc/motd")
        data = yield from ctx.read(fd, 512)
        yield from ctx.close(fd)
        return data
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.costmodel import cycles
from repro.kernel.uapi import (
    CLONE_THREAD,
    O_RDONLY,
    SOCK_STREAM,
    Syscall,
    SysResult,
)
from repro.sim.core import Compute


class ProcessContext:
    """The libc of the simulation."""

    def __init__(self, task) -> None:
        self.task = task

    # -- plumbing ----------------------------------------------------------

    def syscall(self, name: str, *args, site: Optional[str] = None,
                data: bytes = b"", nbytes: int = 0):
        """Generator: issue a raw syscall, returning the SysResult."""
        return self.task.gate.dispatch(
            Syscall(name, args, site or name, data, nbytes))

    def _checked(self, name: str, *args, site=None, data=b"", nbytes=0):
        return self.task.gate.dispatch(
            Syscall(name, args, site or name, data, nbytes), checked=True)

    def compute(self, ncycles: float):
        """Generator: burn CPU (application work between syscalls)."""
        yield Compute(cycles(ncycles))

    @property
    def sim(self):
        return self.task.kernel.sim

    @property
    def machine(self):
        return self.task.machine

    # -- files -------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, site=None):
        result = yield from self._checked("open", path, flags, site=site)
        return result.retval

    def close(self, fd: int, site=None):
        result = yield from self.syscall("close", fd, site=site)
        return result.retval

    def read(self, fd: int, size: int, site=None):
        result = yield from self._checked("read", fd, size, site=site,
                                          nbytes=size)
        return result.data

    def write(self, fd: int, data: bytes, site=None):
        result = yield from self._checked("write", fd, len(data), site=site,
                                          data=data)
        return result.retval

    def pread(self, fd: int, size: int, offset: int, site=None):
        result = yield from self._checked("pread", fd, size, offset,
                                          site=site, nbytes=size)
        return result.data

    def stat(self, path: str, site=None):
        result = yield from self.syscall("stat", path, site=site)
        return result

    def fstat(self, fd: int, site=None):
        result = yield from self._checked("fstat", fd, site=site)
        return result

    def fcntl(self, fd: int, cmd: int, arg: int = 0, site=None):
        result = yield from self._checked("fcntl", fd, cmd, arg, site=site)
        return result.retval

    # -- sockets -------------------------------------------------------------

    def socket(self, flags: int = 0, site=None):
        result = yield from self._checked("socket", 2, SOCK_STREAM, flags,
                                          site=site)
        return result.retval

    def bind(self, fd: int, addr: Tuple[str, int], site=None):
        result = yield from self._checked("bind", fd, addr, site=site)
        return result.retval

    def listen(self, fd: int, backlog: int = 128, site=None):
        result = yield from self._checked("listen", fd, backlog, site=site)
        return result.retval

    def recv(self, fd: int, size: int, site=None):
        result = yield from self._checked("recvfrom", fd, size, site=site,
                                          nbytes=size)
        return result.data

    def send(self, fd: int, data: bytes, site=None):
        result = yield from self._checked("sendto", fd, len(data),
                                          site=site, data=data)
        return result.retval

    def setsockopt(self, fd: int, level: int = 1, opt: int = 2,
                   value: int = 1, site=None):
        result = yield from self.syscall("setsockopt", fd, level, opt,
                                         value, site=site)
        return result.retval

    def pipe(self, site=None):
        result = yield from self._checked("pipe", site=site)
        return result.aux  # (read_fd, write_fd)

    # -- epoll ---------------------------------------------------------------

    def epoll_create(self, site=None):
        result = yield from self._checked("epoll_create", site=site)
        return result.retval

    def epoll_ctl(self, epfd: int, op: int, fd: int, events: int,
                  site=None):
        result = yield from self._checked("epoll_ctl", epfd, op, fd, events,
                                          site=site)
        return result.retval

    def epoll_wait(self, epfd: int, max_events: int = 64,
                   timeout_ms: int = -1, site=None):
        result = yield from self._checked("epoll_wait", epfd, max_events,
                                          timeout_ms, site=site)
        return list(result.aux)  # [(fd, events), ...]

    # -- processes, threads --------------------------------------------------

    def fork(self, child_main: Callable, site=None):
        result = yield from self._checked("fork", child_main, site=site)
        return result.retval  # child pid

    def spawn_thread(self, thread_main: Callable, site=None):
        result = yield from self._checked("clone", CLONE_THREAD,
                                          thread_main, site=site)
        return result.retval  # tid

    def wait4(self, pid: int = -1, site=None):
        result = yield from self._checked("wait4", pid, site=site)
        return result.retval, (result.aux[0] if result.aux else 0)

    # -- identity -------------------------------------------------------------

    def getuid(self, site=None):
        result = yield from self.syscall("getuid", site=site)
        return result.retval

    def geteuid(self, site=None):
        result = yield from self.syscall("geteuid", site=site)
        return result.retval

    def getgid(self, site=None):
        result = yield from self.syscall("getgid", site=site)
        return result.retval

    def getegid(self, site=None):
        result = yield from self.syscall("getegid", site=site)
        return result.retval

    # -- time -----------------------------------------------------------------

    def time(self, site=None):
        result = yield from self.syscall("time", site=site)
        return result.retval

    def gettimeofday(self, site=None):
        result = yield from self.syscall("gettimeofday", site=site)
        return result.aux  # (seconds, micros)

    def clock_gettime(self, site=None):
        result = yield from self.syscall("clock_gettime", site=site)
        return result.aux  # (seconds, nanos)

    def nanosleep(self, ps: int, site=None):
        result = yield from self.syscall("nanosleep", ps, site=site)
        return result.retval

    # -- misc --------------------------------------------------------------------

    def getrandom(self, size: int, site=None):
        result = yield from self._checked("getrandom", size, site=site,
                                          nbytes=size)
        return result.data

