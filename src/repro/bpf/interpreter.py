"""User-space BPF interpreter (kernel port, per §3.4) with the NVX
``event`` extension."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from repro.bpf.insn import (
    BPF_A,
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
    BPF_AND,
    BPF_DIV,
    BPF_IMM,
    BPF_IND,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_LEN,
    BPF_LSH,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_MUL,
    BPF_NEG,
    BPF_OR,
    BPF_RET,
    BPF_RSH,
    BPF_ST,
    BPF_STX,
    BPF_SUB,
    BPF_TAX,
    BPF_TXA,
    BPF_X,
    EVENT_EXTENSION_BASE,
    BpfInsn,
)
from repro.bpf.verifier import verify
from repro.errors import BpfRuntimeError

_U32 = 0xFFFF_FFFF
#: ``seccomp_data.arch`` of every filtered call.
AUDIT_ARCH_X86_64 = 0xC000003E


def pack_seccomp_data(nr: int, args: Sequence[int] = ()) -> bytes:
    """Build an x86-64 ``struct seccomp_data`` buffer (``ip`` 0)."""
    padded = list(args)[:6] + [0] * (6 - min(6, len(args)))
    clean = [a & 0xFFFF_FFFF_FFFF_FFFF for a in padded]
    return struct.pack("<iIQ6Q", nr, AUDIT_ARCH_X86_64, 0, *clean)


class BpfProgram:
    """A verified, executable BPF filter."""

    def __init__(self, insns: Sequence[BpfInsn],
                 name: str = "filter") -> None:
        verify(insns)
        self.insns = list(insns)
        self.name = name

    def __len__(self) -> int:
        return len(self.insns)

    def run(self, data: bytes,
            event_words: Optional[Sequence[int]] = ()) -> int:
        """Execute over ``data`` (seccomp_data) with the event view.

        ``event_words`` backs the ``ld event[k]`` extension: word 0 is
        the leader's syscall number, words 1.. are derived from the
        event's by-value payload (see repro.core.events.event_words).
        """
        acc = 0
        idx = 0
        mem = [0] * BPF_MEMWORDS
        pc = 0
        steps = 0
        insns = self.insns
        while pc < len(insns):
            steps += 1
            if steps > len(insns) + 1:  # unreachable given the verifier
                raise BpfRuntimeError(f"{self.name}: runaway filter")
            insn = insns[pc]
            code, k = insn.code, insn.k
            klass = insn.klass
            pc += 1
            if klass == BPF_LD:
                mode = code & 0xE0
                if mode == BPF_ABS:
                    if k & EVENT_EXTENSION_BASE:
                        acc = self._event_word(event_words,
                                               k & ~EVENT_EXTENSION_BASE)
                    else:
                        acc = self._load_word(data, k)
                elif mode == BPF_IND:
                    acc = self._load_word(data, k + idx)
                elif mode == BPF_MEM:
                    acc = mem[k]
                elif mode == BPF_IMM:
                    acc = k & _U32
                elif mode == BPF_LEN:
                    acc = len(data)
                else:
                    raise BpfRuntimeError(f"{self.name}: bad ld mode")
            elif klass == BPF_LDX:
                mode = code & 0xE0
                if mode == BPF_MEM:
                    idx = mem[k]
                elif mode == BPF_IMM:
                    idx = k & _U32
                elif mode == BPF_LEN:
                    idx = len(data)
                else:
                    raise BpfRuntimeError(f"{self.name}: bad ldx mode")
            elif klass == BPF_ST:
                mem[k] = acc
            elif klass == BPF_STX:
                mem[k] = idx
            elif klass == BPF_ALU:
                acc = self._alu(code, acc, idx, k)
            elif klass == BPF_JMP:
                op = code & 0xF0
                src = idx if code & BPF_X else k
                if op == BPF_JA:
                    pc += k
                elif op == BPF_JEQ:
                    pc += insn.jt if acc == src else insn.jf
                elif op == BPF_JGT:
                    pc += insn.jt if acc > src else insn.jf
                elif op == BPF_JGE:
                    pc += insn.jt if acc >= src else insn.jf
                elif op == BPF_JSET:
                    pc += insn.jt if acc & src else insn.jf
                else:
                    raise BpfRuntimeError(f"{self.name}: bad jmp op")
            elif klass == BPF_RET:
                if code & 0x18 == BPF_A:
                    return acc & _U32
                return k & _U32
            elif klass == BPF_MISC:
                if code & 0xF8 == BPF_TAX:
                    idx = acc
                else:
                    acc = idx
            else:  # pragma: no cover - verifier rejects
                raise BpfRuntimeError(f"{self.name}: bad class")
        raise BpfRuntimeError(f"{self.name}: fell off the end")

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _load_word(data: bytes, offset: int) -> int:
        if offset < 0 or offset + 4 > len(data):
            raise BpfRuntimeError(f"load outside packet at {offset}")
        return struct.unpack_from("<I", data, offset)[0]

    @staticmethod
    def _event_word(event_words, index: int) -> int:
        if event_words is None or index >= len(event_words):
            return 0
        return event_words[index] & _U32

    @staticmethod
    def _alu(code: int, acc: int, idx: int, k: int) -> int:
        op = code & 0xF0
        src = idx if code & BPF_X else k
        if op == BPF_ADD:
            acc += src
        elif op == BPF_SUB:
            acc -= src
        elif op == BPF_MUL:
            acc *= src
        elif op == BPF_DIV:
            if src == 0:
                raise BpfRuntimeError("division by zero")
            acc //= src
        elif op == BPF_OR:
            acc |= src
        elif op == BPF_AND:
            acc &= src
        elif op == BPF_LSH:
            acc <<= src & 31
        elif op == BPF_RSH:
            acc >>= src & 31
        elif op == BPF_NEG:
            acc = -acc
        else:
            raise BpfRuntimeError("bad alu op")
        return acc & _U32
