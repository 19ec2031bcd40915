"""BPF machine: interpreter, verifier, assembler and rewrite rules."""

from repro.bpf.assembler import assemble_bpf
from repro.bpf.insn import (
    NVX_RET_SKIP,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_TRAP,
    BpfInsn,
)
from repro.bpf.interpreter import BpfProgram, pack_seccomp_data
from repro.bpf.rules import (
    ACTION_ALLOW,
    ACTION_KILL,
    ACTION_SKIP,
    RewriteRules,
)
from repro.bpf.verifier import verify

__all__ = [
    "assemble_bpf",
    "NVX_RET_SKIP",
    "SECCOMP_RET_ALLOW",
    "SECCOMP_RET_ERRNO",
    "SECCOMP_RET_KILL",
    "SECCOMP_RET_TRACE",
    "SECCOMP_RET_TRAP",
    "BpfInsn",
    "BpfProgram",
    "pack_seccomp_data",
    "ACTION_ALLOW",
    "ACTION_KILL",
    "ACTION_SKIP",
    "RewriteRules",
    "verify",
]
