"""Classic BPF instruction set, as used by seccomp-bpf (§3.4).

Varan embeds a user-space port of the kernel's BPF interpreter and adds
an ``event`` extension that exposes the leader's event stream to rewrite
rules.  Instruction encoding follows the classic 8-byte layout:
``(u16 code, u8 jt, u8 jf, u32 k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- instruction classes ---------------------------------------------------

BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_MISC = 0x07

# ld/ldx fields
BPF_W = 0x00  # 32-bit word
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_IMM = 0x00
BPF_LEN = 0x80

# alu/jmp fields
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_K = 0x00
BPF_X = 0x08
BPF_A = 0x10

# misc
BPF_TAX = 0x00
BPF_TXA = 0x80

#: Varan extension: ``ld event[k]`` — read word ``k`` of the event-stream
#: view (the leader's pending event). Encoded as LD|W|ABS with the high
#: bit of ``k`` set, mirroring how seccomp encodes its own extensions.
EVENT_EXTENSION_BASE = 0x8000_0000

#: Number of 32-bit scratch memory slots (kernel value).
BPF_MEMWORDS = 16

# -- seccomp-compatible return values --------------------------------------

SECCOMP_RET_KILL = 0x0000_0000
SECCOMP_RET_TRAP = 0x0003_0000
SECCOMP_RET_ERRNO = 0x0005_0000
SECCOMP_RET_TRACE = 0x7FF0_0000
SECCOMP_RET_ALLOW = 0x7FFF_0000
#: Varan's NVX extension: consume and discard the leader's event (the
#: "removal/coalescing" direction of §2.3), then re-match.
NVX_RET_SKIP = 0x7FFE_0000

RET_NAMES = {
    SECCOMP_RET_KILL: "KILL",
    SECCOMP_RET_TRAP: "TRAP",
    SECCOMP_RET_ERRNO: "ERRNO",
    SECCOMP_RET_TRACE: "TRACE",
    SECCOMP_RET_ALLOW: "ALLOW",
    NVX_RET_SKIP: "SKIP",
}


@dataclass(frozen=True)
class BpfInsn:
    """One 8-byte classic BPF instruction."""

    code: int
    jt: int = 0
    jf: int = 0
    k: int = 0

    @property
    def klass(self) -> int:
        return self.code & 0x07

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"(code={self.code:#06x} jt={self.jt} jf={self.jf} k={self.k:#x})"
