"""User-space ABI of the simulated kernel.

System call numbers follow the real x86-64 Linux table so that BPF
rewrite rules written against ``seccomp_data.nr`` — including Listing 1
of the paper, verbatim — work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


# -- syscall numbers (x86-64) --------------------------------------------

SYSCALL_NUMBERS = {
    "read": 0,
    "write": 1,
    "open": 2,
    "close": 3,
    "stat": 4,
    "fstat": 5,
    "lstat": 6,
    "poll": 7,
    "lseek": 8,
    "mmap": 9,
    "mprotect": 10,
    "munmap": 11,
    "brk": 12,
    "rt_sigaction": 13,
    "rt_sigprocmask": 14,
    "rt_sigreturn": 15,
    "ioctl": 16,
    "pread": 17,
    "pwrite": 18,
    "readv": 19,
    "writev": 20,
    "access": 21,
    "pipe": 22,
    "select": 23,
    "sched_yield": 24,
    "madvise": 28,
    "dup": 32,
    "dup2": 33,
    "nanosleep": 35,
    "getpid": 39,
    "sendfile": 40,
    "socket": 41,
    "connect": 42,
    "accept": 43,
    "sendto": 44,
    "recvfrom": 45,
    "sendmsg": 46,
    "recvmsg": 47,
    "shutdown": 48,
    "bind": 49,
    "listen": 50,
    "getsockname": 51,
    "getpeername": 52,
    "socketpair": 53,
    "setsockopt": 54,
    "getsockopt": 55,
    "clone": 56,
    "fork": 57,
    "vfork": 58,
    "execve": 59,
    "exit": 60,
    "wait4": 61,
    "kill": 62,
    "uname": 63,
    "fcntl": 72,
    "fsync": 74,
    "fdatasync": 75,
    "ftruncate": 77,
    "getdents": 78,
    "getcwd": 79,
    "chdir": 80,
    "rename": 82,
    "mkdir": 83,
    "rmdir": 84,
    "unlink": 87,
    "readlink": 89,
    "chmod": 90,
    "chown": 92,
    "umask": 95,
    "gettimeofday": 96,
    "getrlimit": 97,
    "getrusage": 98,
    "sysinfo": 99,
    "times": 100,
    "getuid": 102,
    "getgid": 104,
    "setuid": 105,
    "setgid": 106,
    "geteuid": 107,
    "getegid": 108,
    "setsid": 112,
    "sigaltstack": 131,
    "prctl": 157,
    "arch_prctl": 158,
    "setrlimit": 160,
    "gettid": 186,
    "time": 201,
    "futex": 202,
    "sched_setaffinity": 203,
    "sched_getaffinity": 204,
    "epoll_create": 213,
    "getdents64": 217,
    "set_tid_address": 218,
    "clock_gettime": 228,
    "clock_nanosleep": 230,
    "exit_group": 231,
    "epoll_wait": 232,
    "epoll_ctl": 233,
    "tgkill": 234,
    "openat": 257,
    "set_robust_list": 273,
    "accept4": 288,
    "eventfd2": 290,
    "epoll_create1": 291,
    "dup3": 292,
    "pipe2": 293,
    "getcpu": 309,
    "getrandom": 318,
    # Not a real Linux syscall: the simulated analogue of BSD's
    # issetugid(), used by the Lighttpd multi-revision experiment.
    "issetugid": 500,
}

SYSCALL_NAMES = {nr: name for name, nr in SYSCALL_NUMBERS.items()}


# -- errno ----------------------------------------------------------------

EPERM = 1
ENOENT = 2
EINTR = 4
EIO = 5
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EACCES = 13
EFAULT = 14
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
EMFILE = 24
ENOSPC = 28
EPIPE = 32
ENOSYS = 38
ENOTSOCK = 88
EADDRINUSE = 98
ECONNREFUSED = 111
ERESTARTSYS = 512  # kernel-internal: restart after signal (§3.2)

ERRNO_NAMES = {
    EPERM: "EPERM", ENOENT: "ENOENT", EINTR: "EINTR", EIO: "EIO",
    EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES",
    EFAULT: "EFAULT", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR",
    EISDIR: "EISDIR", EINVAL: "EINVAL", EMFILE: "EMFILE",
    ENOSPC: "ENOSPC", EPIPE: "EPIPE", ENOSYS: "ENOSYS",
    ENOTSOCK: "ENOTSOCK", EADDRINUSE: "EADDRINUSE",
    ECONNREFUSED: "ECONNREFUSED", ERESTARTSYS: "ERESTARTSYS",
}

# -- open flags, misc constants ------------------------------------------

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000

FD_CLOEXEC = 1
F_GETFD = 1
F_SETFD = 2
F_GETFL = 3
F_SETFL = 4

EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3
EPOLLIN = 0x001
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010

SIGKILL = 9
SIGSEGV = 11
SIGTERM = 15

SOCK_STREAM = 1

CLONE_THREAD = 0x10000


# -- syscall request / result records ------------------------------------

@dataclass(slots=True)
class Syscall:
    """One system call as issued by a program.

    ``site`` names the static call site in the program's text image so
    the gate can look up how the rewriter patched it (JMP vs INT0 vs
    vDSO).  ``data`` carries an outgoing payload (e.g. write buffers);
    ``nbytes`` sizes incoming payloads (e.g. read lengths) for the cost
    model.
    """

    name: str
    args: Tuple = ()
    site: Optional[str] = None
    data: bytes = b""
    nbytes: int = 0

    def arg(self, index: int, default=0):
        return self.args[index] if index < len(self.args) else default


@dataclass(slots=True)
class SysResult:
    """What a system call produced.

    ``retval`` follows the Linux convention (negative = -errno).
    ``data`` carries inbound payloads (read results, accepted peer
    address, time values...). ``new_fds`` lists descriptor numbers the
    call created in the calling task — the monitor uses it to know when
    a descriptor must be transferred to followers (§3.3.2).
    """

    retval: int
    data: bytes = b""
    new_fds: Tuple[int, ...] = ()
    #: Extra values by-value (e.g. the seconds/microseconds pair of
    #: gettimeofday) that fit in the event without a shared-memory
    #: payload.
    aux: Tuple = ()

    @property
    def ok(self) -> bool:
        return self.retval >= 0

    @property
    def errno(self) -> int:
        return -self.retval if self.retval < 0 else 0


class SysError(Exception):
    """Raised by the high-level ProcessContext wrappers on -errno."""

    def __init__(self, errno: int, call: str) -> None:
        name = ERRNO_NAMES.get(errno, str(errno))
        super().__init__(f"{call}: {name}")
        self.errno = errno
        self.call = call


@dataclass
class Segfault(Exception):
    """A simulated SIGSEGV raised inside application code.

    Carries enough context for the monitor's signal handler to report
    the crash to the coordinator (§5.1).
    """

    reason: str = "segmentation fault"

    def __str__(self) -> str:
        return self.reason
