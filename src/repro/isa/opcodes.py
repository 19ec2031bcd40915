"""VX86: a compact x86-64-flavoured instruction encoding.

The reproduction needs *real bytes* for the selective binary rewriter to
scan and patch, with the same geometry the paper relies on:

* a system-call instruction is **one byte** long (``SYSCALL``),
* a relative jump is **five bytes** (``JMP rel32``),
* there is a **one-byte** interrupt (``INT0``) for call sites where detour
  relocation is impossible,

so rewriting a syscall into a jump necessarily clobbers the four following
bytes and forces relocation of neighbouring instructions into a trampoline
— exactly the §3.2 problem.

Registers follow the x86-64 syscall convention: the syscall number lives
in RAX and arguments in RDI, RSI, RDX, R10, R8, R9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# -- registers ----------------------------------------------------------

REGISTERS: Tuple[str, ...] = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

REG_INDEX: Dict[str, int] = {name: i for i, name in enumerate(REGISTERS)}

#: Argument registers of the x86-64 syscall ABI, in order.
SYSCALL_ARG_REGS: Tuple[str, ...] = ("rdi", "rsi", "rdx", "r10", "r8", "r9")


# -- opcode map ----------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    mnemonic: str
    opcode: int
    length: int  # total encoded length in bytes
    operands: str  # encoding shape, see OPERAND SHAPES below
    cycles: int = 1  # base interpreter cost


# OPERAND SHAPES
#   ""        no operands
#   "r"       one register byte
#   "rr"      one byte packing dst<<4 | src
#   "ri32"    register byte + signed 32-bit immediate
#   "ri64"    register byte + signed 64-bit immediate
#   "i32"     signed 32-bit relative displacement
#   "u8"      one unsigned byte
#   "rm"      register byte + base register byte + signed 32-bit disp

_SPECS = (
    OpSpec("nop", 0x90, 1, ""),
    OpSpec("syscall", 0x05, 1, "", cycles=0),  # cost charged by the gate
    OpSpec("int0", 0xCC, 1, "", cycles=0),
    OpSpec("vsys", 0x0B, 2, "u8", cycles=0),  # vDSO fast routine
    OpSpec("vmcall", 0x0F, 1, "", cycles=0),  # bridge into monitor logic
    OpSpec("hlt", 0xF4, 1, ""),
    OpSpec("jmp", 0xE9, 5, "i32"),
    OpSpec("jz", 0x84, 5, "i32"),
    OpSpec("jnz", 0x85, 5, "i32"),
    OpSpec("call", 0xE8, 5, "i32", cycles=2),
    OpSpec("callr", 0xFF, 2, "r", cycles=2),
    OpSpec("ret", 0xC3, 1, "", cycles=2),
    OpSpec("mov", 0x89, 2, "rr"),
    OpSpec("movi", 0xB8, 10, "ri64"),
    OpSpec("add", 0x01, 2, "rr"),
    OpSpec("addi", 0x81, 6, "ri32"),
    OpSpec("sub", 0x29, 2, "rr"),
    OpSpec("subi", 0x2D, 6, "ri32"),
    OpSpec("cmp", 0x39, 2, "rr"),
    OpSpec("cmpi", 0x3D, 6, "ri32"),
    OpSpec("push", 0x50, 2, "r", cycles=2),
    OpSpec("pop", 0x58, 2, "r", cycles=2),
    OpSpec("load", 0x8B, 7, "rm", cycles=3),
    OpSpec("store", 0x8A, 7, "rm", cycles=3),
    OpSpec("pusha", 0x60, 1, "", cycles=16),
    OpSpec("popa", 0x61, 1, "", cycles=16),
)

BY_MNEMONIC: Dict[str, OpSpec] = {s.mnemonic: s for s in _SPECS}
BY_OPCODE: Dict[int, OpSpec] = {s.opcode: s for s in _SPECS}

if len(BY_OPCODE) != len(_SPECS):  # pragma: no cover - sanity at import
    raise AssertionError("duplicate opcode in VX86 spec")

# -- numeric dispatch ---------------------------------------------------
#
# Dense instruction ids for table dispatch: the translation cache indexes
# a compiler table by these instead of comparing mnemonic strings.  The
# id of a mnemonic is its position in _SPECS; OPCODE_TO_ID maps the raw
# opcode byte straight to the id (None for undecodable bytes).

OP_ID: Dict[str, int] = {s.mnemonic: i for i, s in enumerate(_SPECS)}
OP_SPECS: Tuple[OpSpec, ...] = _SPECS

OPCODE_TO_ID: Tuple = tuple(
    {s.opcode: i for i, s in enumerate(_SPECS)}.get(byte)
    for byte in range(256))

OP_NOP = OP_ID["nop"]
OP_SYSCALL = OP_ID["syscall"]
OP_INT0 = OP_ID["int0"]
OP_VSYS = OP_ID["vsys"]
OP_VMCALL = OP_ID["vmcall"]
OP_HLT = OP_ID["hlt"]
OP_JMP = OP_ID["jmp"]
OP_JZ = OP_ID["jz"]
OP_JNZ = OP_ID["jnz"]
OP_CALL = OP_ID["call"]
OP_CALLR = OP_ID["callr"]
OP_RET = OP_ID["ret"]
OP_MOV = OP_ID["mov"]
OP_MOVI = OP_ID["movi"]
OP_ADD = OP_ID["add"]
OP_ADDI = OP_ID["addi"]
OP_SUB = OP_ID["sub"]
OP_SUBI = OP_ID["subi"]
OP_CMP = OP_ID["cmp"]
OP_CMPI = OP_ID["cmpi"]
OP_PUSH = OP_ID["push"]
OP_POP = OP_ID["pop"]
OP_LOAD = OP_ID["load"]
OP_STORE = OP_ID["store"]
OP_PUSHA = OP_ID["pusha"]
OP_POPA = OP_ID["popa"]

#: Ids that terminate a translated block by entering a handler (or halt):
#: the block must stop *before* executing them so handler semantics and
#: ``max_insns`` accounting stay per-instruction exact.
HANDLER_OP_IDS = frozenset(
    {OP_SYSCALL, OP_INT0, OP_VSYS, OP_VMCALL, OP_HLT})

#: Ids that transfer control — the last instruction of their block
#: unless the block spans a direct ``jmp``/``call`` (see
#: ``repro.isa.translator.form_superblock``).
CONTROL_OP_IDS = frozenset(
    {OP_JMP, OP_JZ, OP_JNZ, OP_CALL, OP_CALLR, OP_RET})

#: Opcodes that transfer control (their rel32 targets are branch targets).
BRANCH_MNEMONICS = frozenset({"jmp", "jz", "jnz", "call"})
