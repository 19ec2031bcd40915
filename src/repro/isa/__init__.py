"""VX86: the miniature x86-64-like ISA the binary rewriter operates on."""

from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.disassembler import (
    CodeImage,
    Insn,
    branch_targets,
    decode_one,
)
from repro.isa.memory import AddressSpace, Segment
from repro.isa.opcodes import (
    BRANCH_MNEMONICS,
    BY_MNEMONIC,
    BY_OPCODE,
    OP_ID,
    OPCODE_TO_ID,
    REG_INDEX,
    REGISTERS,
    SYSCALL_ARG_REGS,
    OpSpec,
)
from repro.isa.translator import CodeBlock, TranslationCache

__all__ = [
    "assemble",
    "Cpu",
    "CodeImage",
    "Insn",
    "branch_targets",
    "decode_one",
    "AddressSpace",
    "Segment",
    "BRANCH_MNEMONICS",
    "BY_MNEMONIC",
    "BY_OPCODE",
    "OP_ID",
    "OPCODE_TO_ID",
    "REG_INDEX",
    "REGISTERS",
    "SYSCALL_ARG_REGS",
    "OpSpec",
    "CodeBlock",
    "TranslationCache",
]
