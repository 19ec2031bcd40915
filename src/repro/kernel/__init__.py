"""The simulated Linux-like kernel substrate."""

from repro.kernel.kernel import Kernel
from repro.kernel.task import (
    FdTable,
    PATCH_INT,
    PATCH_JMP,
    PATCH_VDSO,
    StopTask,
    SyscallGate,
    Task,
    VDSO_CALLS,
)
from repro.kernel.uapi import (
    SYSCALL_NAMES,
    SYSCALL_NUMBERS,
    Segfault,
    Syscall,
    SysError,
    SysResult,
)

__all__ = [
    "Kernel",
    "FdTable",
    "PATCH_INT",
    "PATCH_JMP",
    "PATCH_VDSO",
    "StopTask",
    "SyscallGate",
    "Task",
    "VDSO_CALLS",
    "SYSCALL_NAMES",
    "SYSCALL_NUMBERS",
    "Segfault",
    "Syscall",
    "SysError",
    "SysResult",
]
