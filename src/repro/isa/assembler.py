"""Two-pass assembler for VX86 source.

Source syntax, one instruction or label per line::

    loop:
        movi rax, 3        ; close
        movi rdi, -1
        syscall
        subi rbx, 1
        cmpi rbx, 0
        jnz loop
        hlt

Labels resolve to byte offsets; ``jmp/jz/jnz/call`` take a label (or an
integer displacement) and are encoded rel32 against the *end* of the
instruction, like x86.
"""

from __future__ import annotations

import functools
import re
import struct
from typing import Dict, List, Tuple

from repro.errors import AssemblyError
from repro.isa.opcodes import BY_MNEMONIC, REG_INDEX

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer operand: {text!r}") from exc


def _encode_reg(name: str) -> int:
    try:
        return REG_INDEX[name]
    except KeyError as exc:
        raise AssemblyError(f"unknown register: {name!r}") from exc


def _split_line(line: str) -> str:
    return line.split(";", 1)[0].strip()


def assemble(source: str, origin: int = 0) -> bytes:
    """Assemble VX86 source into bytes loaded at address ``origin``."""
    code, _labels = assemble_with_symbols(source, origin)
    return code


def assemble_with_symbols(source: str, origin: int = 0):
    """Assemble and also return the label → absolute-address map."""
    code, labels = _assemble(source, origin)
    return code, dict(labels)


@functools.lru_cache(maxsize=128)
def _assemble(source: str, origin: int):
    """Assembly is a pure function of ``(source, origin)`` and every
    load of an image repeats it (vDSO, entry point, text), so results
    are memoised; labels come back as a tuple of pairs because callers
    own — and may mutate — the dict they are handed.  An
    :class:`AssemblyError` is raised afresh each time (``lru_cache``
    stores results only)."""
    lines = source.splitlines()
    parsed: List[Tuple[str, List[str]]] = []
    labels: Dict[str, int] = {}

    # Pass 1: measure and collect labels.
    offset = 0
    for lineno, raw in enumerate(lines, 1):
        line = _split_line(raw)
        if not line:
            continue
        if line.endswith(":"):
            name = line[:-1].strip()
            if not _LABEL_RE.match(name):
                raise AssemblyError(f"line {lineno}: bad label {name!r}")
            if name in labels:
                raise AssemblyError(f"line {lineno}: duplicate label {name!r}")
            labels[name] = offset
            continue
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        spec = BY_MNEMONIC.get(mnemonic)
        if spec is None:
            raise AssemblyError(f"line {lineno}: unknown mnemonic {mnemonic!r}")
        operands = [op.strip() for op in rest.split(",")] if rest.strip() else []
        parsed.append((mnemonic, operands))
        offset += spec.length

    # Pass 2: encode.
    out = bytearray()
    for mnemonic, operands in parsed:
        spec = BY_MNEMONIC[mnemonic]
        out.append(spec.opcode)
        shape = spec.operands
        try:
            if shape == "":
                _expect(operands, 0, mnemonic)
            elif shape == "u8":
                _expect(operands, 1, mnemonic)
                out.append(_parse_int(operands[0]) & 0xFF)
            elif shape == "r":
                _expect(operands, 1, mnemonic)
                out.append(_encode_reg(operands[0]))
            elif shape == "rr":
                _expect(operands, 2, mnemonic)
                out.append((_encode_reg(operands[0]) << 4)
                           | _encode_reg(operands[1]))
            elif shape == "ri32":
                _expect(operands, 2, mnemonic)
                out.append(_encode_reg(operands[0]))
                out += struct.pack("<i", _parse_int(operands[1]))
            elif shape == "ri64":
                _expect(operands, 2, mnemonic)
                out.append(_encode_reg(operands[0]))
                out += struct.pack("<q", _resolve(operands[1], labels, origin,
                                                  absolute=True))
            elif shape == "i32":
                _expect(operands, 1, mnemonic)
                end = origin + len(out) - 1 + spec.length
                target = _resolve(operands[0], labels, origin, absolute=True)
                out += struct.pack("<i", target - end)
            elif shape == "rm":
                _expect(operands, 2, mnemonic)
                reg, mem = operands
                if mnemonic == "store":
                    reg, mem = mem, reg  # store [base+disp], src
                base, disp = _parse_mem(mem)
                out.append(_encode_reg(reg))
                out.append(_encode_reg(base))
                out += struct.pack("<i", disp)
            else:  # pragma: no cover - spec table is closed
                raise AssemblyError(f"unhandled shape {shape!r}")
        except struct.error as exc:
            raise AssemblyError(f"{mnemonic}: operand out of range") from exc
    return bytes(out), tuple((name, origin + off)
                             for name, off in labels.items())


def _expect(operands: List[str], count: int, mnemonic: str) -> None:
    if len(operands) != count:
        raise AssemblyError(
            f"{mnemonic}: expected {count} operand(s), got {len(operands)}")


def _resolve(text: str, labels: Dict[str, int], origin: int,
             absolute: bool) -> int:
    if _LABEL_RE.match(text) and text not in REG_INDEX:
        if text not in labels:
            raise AssemblyError(f"undefined label: {text!r}")
        return labels[text] + (origin if absolute else 0)
    return _parse_int(text)


def _parse_mem(text: str) -> Tuple[str, int]:
    """Parse ``[reg+disp]`` / ``[reg-disp]`` / ``[reg]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise AssemblyError(f"bad memory operand: {text!r}")
    inner = text[1:-1].strip()
    match = re.match(r"^([a-z0-9]+)\s*([+-]\s*\d+)?$", inner)
    if not match:
        raise AssemblyError(f"bad memory operand: {text!r}")
    base = match.group(1)
    disp = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return base, disp
