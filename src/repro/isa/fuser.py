"""Fused code generation for hot superblocks.

A cold :class:`~repro.isa.translator.CodeBlock` runs its decoded
instructions one by one on the per-step executor
(``repro.isa.cpu.EXECUTORS``); every instruction pays a Python call
and an opcode dispatch.  Once a block runs hot (see
``TranslationCache.fuse_threshold``) it is *fused*: the instruction
sequence is compiled — ``compile``/``exec`` of generated source — into a
single function with the touched guest registers held in Python locals
and spilled back to ``cpu.regs`` only at block exit and at every point
the per-step interpreter could observe partial state:

* every faulting memory access spills the registers written so far (in
  interpreter update order: e.g. ``push`` spills the decremented rsp,
  ``pop`` the un-incremented one), then sets ``cpu.rip`` to the faulting
  instruction, from which ``Cpu._run_cached`` charges the cycles and
  instructions retired before it;
* ``pusha``/``popa`` — bulk ops whose cost is dominated by 15 memory
  accesses anyway — spill, run on the per-step executor inside the same
  fault guard, and reload.

Loop slot promotion: a self-loop whose memory ops are all ``load``,
``store``, ``push`` and ``pop``, through base registers that only
constant push/pop/addi/subi steps move and that are back at their entry
value after each trip, touches the same slots on every trip.  Its fused
function checks each slot once per call, before the loop — page cached,
in bounds, readable if loaded, writable if stored, no two slots
overlapping — and then runs the loop with every slot in a local: a slot
read before it is written is loaded once, each memory op is a move
between locals, and on exit each stored slot is written back once.  A
stored slot is writable, so under W^X it is never code.  Nothing in such
a body can fault or remap memory once the guard passed.  Only a promoted
loop iterates in place.  If the guard fails (a page not yet cached, a
permission, aliasing slots), or ``_loop_slots`` refuses the loop, the
function runs one trip of the plain body, the code every other block
gets, and returns 1; ``Cpu._run_cached`` follows the block's self-chain
link to run the next trip.  A fault thus lands where it would without
promotion, and a guard that failed on an uncached page passes on the
next call, since the trip's slow-path access cached it.  A loop with no
memory op at all is promoted with no guard.

Trip loops: since nothing in a promoted trip can fault, no
statement needs the trip number, and the loop is ``for _it in range(1,
_k + 1):``.  A conditional terminator with one edge back to the entry
becomes ``if <leave>: cpu.rip = <exit>; break`` with ``else: cpu.rip =
<entry>``; a ``jmp`` (or both edges to the entry) tests nothing.  Within
the trip, a ``cmp``/``cmpi``/``sub``/``subi`` whose zf a later one
overwrites writes no ``zf`` (the terminator reads only the last one,
which stays, live-out); a slot base that only promoted ``push``/``pop``
and dead-flag ``addi``/``subi`` write, and nothing else reads, is not
updated at all, since it is back at its entry value after every trip;
a closing ``subi rC, 1; jnz <entry>`` whose rC nothing else touches is
a *counted* loop of ``min(_k, rC)`` trips (rC = 0 means 2**64) with no
per-trip test, and rC, zf and rip are set once after it; and each move
between locals folds into the statement next to it.

The generated function is observably identical to running the block
instruction by instruction: same registers, zf, rip, cycles and
exceptions at every exit.  Fusion shares no instruction semantics with
the per-step executor beyond ``pusha``/``popa``, so the differential
property in ``tests/test_translator.py``, run with fusion forced on from
the first execution, is the independent check of both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.memory import _U64
from repro.isa.opcodes import (
    OP_ADD,
    OP_ADDI,
    OP_CALL,
    OP_CALLR,
    OP_CMP,
    OP_CMPI,
    OP_JMP,
    OP_JNZ,
    OP_JZ,
    OP_LOAD,
    OP_MOV,
    OP_MOVI,
    OP_NOP,
    OP_POP,
    OP_POPA,
    OP_PUSH,
    OP_PUSHA,
    OP_RET,
    OP_STORE,
    OP_SUB,
    OP_SUBI,
    REG_INDEX,
)
from repro.isa.translator import T_BRANCH

_MASK = 2 ** 64 - 1
_RSP = REG_INDEX["rsp"]

#: Ops run on the per-step executor even in fused code.
_EXECUTOR_OP_IDS = frozenset({OP_PUSHA, OP_POPA})

#: Memory ops a promoted loop cannot hold in a local: the executor-run
#: bulk ops and the control transfers through the stack.
_UNPROMOTABLE = _EXECUTOR_OP_IDS | {OP_CALL, OP_CALLR, OP_RET}

#: Ops that read zf (conditional terminators) or write it.
_ZF_WRITERS = frozenset({OP_SUB, OP_SUBI, OP_CMP, OP_CMPI})
_ZF_READERS = frozenset({OP_JZ, OP_JNZ})


def _insn_regs(insn) -> List[int]:
    """Guest registers an instruction touches through locals."""
    op_id = insn.op_id
    ops = insn.operands
    if op_id in (OP_MOV, OP_ADD, OP_SUB, OP_CMP):
        return [ops[0], ops[1]]
    if op_id in (OP_MOVI, OP_ADDI, OP_SUBI, OP_CMPI):
        return [ops[0]]
    if op_id in (OP_PUSH, OP_POP):
        return [ops[0], _RSP]
    if op_id in (OP_LOAD, OP_STORE):
        return [ops[0], ops[1]]
    if op_id == OP_CALLR:
        return [ops[0], _RSP]
    if op_id in (OP_CALL, OP_RET):
        return [_RSP]
    return []  # nop, jmp, jz, jnz, pusha/popa (executor-run)


class _Emitter:
    """Builds the fused function source, tracking which locals are dirty
    so fault-site spills restore exactly the interpreter-visible state."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: Guest registers the block holds in locals, and whether it
        #: reads or writes zf.
        self.localized: set = set()
        self.zf_used = False
        #: Guest registers (and zf) whose local differs from ``regs``.
        self.dirty: set = set()
        self.zf_dirty = False
        #: Extra indent applied to every emit (a promoted loop sits one
        #: level inside its guard).
        self.base = 0

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * (indent + self.base) + line)

    def spills(self) -> List[str]:
        out = [f"regs[{i}] = r{i}" for i in sorted(self.dirty)]
        if self.zf_dirty:
            out.append("cpu.zf = zf")
        return out

    def emit_fault_guard(self, body: str, addr: int, indent: int = 1) -> None:
        """``try: <body>`` with the per-step-identical fault epilogue."""
        self.emit("try:", indent)
        self.emit(body, indent + 1)
        self.emit("except BaseException:", indent)
        for line in self.spills():
            self.emit(line, indent + 1)
        self.emit(f"cpu.rip = {addr}", indent + 1)
        self.emit("raise", indent + 1)

    # The u64 fast paths of AddressSpace.read_u64/write_u64, inlined:
    # same page-cache lookup, same bounds + permission re-checks, with
    # the real accessor (and the fault epilogue) as the fallback — so a
    # fused access is observably identical to the per-step one while a
    # hit costs no Python call at all.

    def emit_load(self, dest: str, addr_expr: str, addr: int) -> None:
        self.emit(f"_a = {addr_expr}")
        self.emit("_s = pages.get(_a >> 12)")
        self.emit("if (_s is not None and _s.r_ok and _s.start <= _a "
                  "and _a + 8 <= _s.end):")
        self.emit(f"{dest} = unpack(_s.data, _a - _s.start)[0]", 2)
        self.emit("else:")
        self.emit_fault_guard(f"{dest} = read_u64(_a)", addr, indent=2)

    def emit_store(self, addr_expr: str, value: str, addr: int) -> None:
        self.emit(f"_a = {addr_expr}")
        self.emit("_s = pages.get(_a >> 12)")
        self.emit("if (_s is not None and _s.w_ok and _s.start <= _a "
                  "and _a + 8 <= _s.end):")
        self.emit(f"pack(_s.data, _a - _s.start, {value})", 2)
        self.emit("else:")
        self.emit_fault_guard(f"write_u64(_a, {value})", addr, indent=2)


def _is_self_loop(block) -> bool:
    """Whether the block's terminating branch can target its own entry."""
    insns = block.insns
    if not insns or block.terminator != T_BRANCH:
        return False
    last = insns[-1]
    if last.op_id == OP_JMP:
        return last.end + last.operands[0] == block.entry
    if last.op_id in (OP_JZ, OP_JNZ):
        return (last.end + last.operands[0] == block.entry
                or last.end == block.entry)
    return False


def _loop_slots(insns):
    """The memory slots of a self-loop body, if the loop can be promoted.

    Returns ``(slots, at)``: ``slots`` maps each slot, keyed ``(base
    register, offset, disp)``, to ``[loads, stores, read_first]`` in
    first-access order, and ``at`` maps the index of every memory op to
    its slot.  The slot's address is the base register's value at loop
    entry plus ``offset`` (what push/pop/addi/subi moved it by earlier in
    the trip, mod 2**64), plus ``disp``.  A body with no memory access
    has no slots and is promoted too.  ``None`` when the body has a
    memory op that is not ``load``/``store``/``push``/``pop``, or uses a
    base register that is not back at its entry value after one trip
    (written by anything but constant push/pop/addi/subi steps, or by
    steps that do not sum to zero): only then is every slot's address
    the same on every trip.
    """
    moved: Dict[int, Optional[int]] = {}  # None: written otherwise
    slots: Dict[tuple, list] = {}
    at: Dict[int, tuple] = {}

    def step(reg: int, delta: int) -> None:
        offset = moved.get(reg, 0)
        moved[reg] = None if offset is None else offset + delta

    def access(i: int, base: int, disp: int, is_store: bool) -> bool:
        offset = moved.get(base, 0)
        if offset is None:
            return False
        key = at[i] = (base, offset % 2 ** 64, disp)
        slots.setdefault(key, [0, 0, not is_store])[is_store] += 1
        return True

    for i, insn in enumerate(insns):
        op_id = insn.op_id
        ops = insn.operands
        if op_id in _UNPROMOTABLE:
            return None
        if op_id == OP_PUSH:
            step(_RSP, -8)
            if not access(i, _RSP, 0, True):
                return None
        elif op_id == OP_POP:
            if not access(i, _RSP, 0, False):
                return None
            step(_RSP, 8)
            moved[ops[0]] = None
        elif op_id == OP_LOAD:
            if not access(i, ops[1], ops[2], False):
                return None
            moved[ops[0]] = None
        elif op_id == OP_STORE:
            if not access(i, ops[1], ops[2], True):
                return None
        elif op_id == OP_ADDI:
            step(ops[0], ops[1])
        elif op_id == OP_SUBI:
            step(ops[0], -ops[1])
        elif op_id in (OP_MOV, OP_MOVI, OP_ADD, OP_SUB):
            moved[ops[0]] = None
    for base, _offset, _disp in slots:
        offset = moved.get(base, 0)
        if offset is None or offset % 2 ** 64:
            return None
    return slots, at


def _emit_body(em: _Emitter, block) -> None:
    """Emit one run of the block's instructions."""
    insns = block.insns
    n = len(insns)
    terminator = block.terminator
    for i, insn in enumerate(insns):
        op_id = insn.op_id
        opnd = insn.operands
        addr = insn.addr
        is_term = i == n - 1 and terminator == T_BRANCH

        if op_id == OP_NOP:
            continue
        if op_id == OP_MOV:
            d, s = opnd
            if d != s:
                em.emit(f"r{d} = r{s}")
                em.dirty.add(d)
        elif op_id == OP_MOVI:
            d, imm = opnd
            em.emit(f"r{d} = {imm & _MASK}")
            em.dirty.add(d)
        elif op_id == OP_ADD:
            d, s = opnd
            em.emit(f"r{d} = (r{d} + r{s}) & {_MASK}")
            em.dirty.add(d)
        elif op_id == OP_ADDI:
            d, imm = opnd
            em.emit(f"r{d} = (r{d} + {imm}) & {_MASK}")
            em.dirty.add(d)
        elif op_id == OP_SUB:
            d, s = opnd
            em.emit(f"r{d} = (r{d} - r{s}) & {_MASK}")
            em.emit(f"zf = r{d} == 0")
            em.dirty.add(d)
            em.zf_dirty = True
        elif op_id == OP_SUBI:
            d, imm = opnd
            em.emit(f"r{d} = (r{d} - {imm}) & {_MASK}")
            em.emit(f"zf = r{d} == 0")
            em.dirty.add(d)
            em.zf_dirty = True
        elif op_id == OP_CMP:
            d, s = opnd
            em.emit(f"zf = r{d} == r{s}")
            em.zf_dirty = True
        elif op_id == OP_CMPI:
            d, imm = opnd
            em.emit(f"zf = r{d} == {imm & _MASK}")
            em.zf_dirty = True
        elif op_id == OP_PUSH:
            s = opnd[0]
            # Source read before rsp moves (matters for `push rsp`).
            if s == _RSP:
                em.emit(f"_t = r{_RSP}")
                value = "_t"
            else:
                value = f"r{s}"
            em.emit(f"r{_RSP} = (r{_RSP} - 8) & {_MASK}")
            em.dirty.add(_RSP)
            em.emit_store(f"r{_RSP}", value, addr)
        elif op_id == OP_POP:
            d = opnd[0]
            em.emit_load("_t", f"r{_RSP}", addr)
            em.emit(f"r{_RSP} = (r{_RSP} + 8) & {_MASK}")
            em.dirty.add(_RSP)
            em.emit(f"r{d} = _t")
            em.dirty.add(d)
        elif op_id == OP_LOAD:
            d, b, disp = opnd
            em.emit_load(f"r{d}", f"r{b} + {disp}", addr)
            em.dirty.add(d)
        elif op_id == OP_STORE:
            s, b, disp = opnd
            em.emit_store(f"r{b} + {disp}", f"r{s}", addr)
        elif op_id in _EXECUTOR_OP_IDS:
            # Run on the per-step executor: spill so it sees (and on a
            # fault leaves) exact state, then reload every local.
            for line in em.spills():
                em.emit(line)
            em.dirty.clear()
            em.zf_dirty = False
            em.emit_fault_guard(f"execute(insns[{i}])", addr)
            for r in sorted(em.localized):
                em.emit(f"r{r} = regs[{r}]")
        elif op_id == OP_JMP:
            if is_term:
                em.emit(f"cpu.rip = {insn.end + opnd[0]}")
            # else: spanned — pure accounting, no state moves.
        elif op_id == OP_JZ:
            em.emit(f"cpu.rip = {insn.end + opnd[0]} if zf else {insn.end}")
        elif op_id == OP_JNZ:
            em.emit(f"cpu.rip = {insn.end} if zf else {insn.end + opnd[0]}")
        elif op_id == OP_CALL:
            em.emit(f"r{_RSP} = (r{_RSP} - 8) & {_MASK}")
            em.dirty.add(_RSP)
            em.emit_store(f"r{_RSP}", str(insn.end), addr)
            if is_term:
                em.emit(f"cpu.rip = {insn.end + opnd[0]}")
            # else: spanned — the callee follows in this block.
        elif op_id == OP_CALLR:
            r = opnd[0]
            em.emit(f"r{_RSP} = (r{_RSP} - 8) & {_MASK}")
            em.dirty.add(_RSP)
            em.emit_store(f"r{_RSP}", str(insn.end), addr)
            # Target read after the push, like the interpreter (matters
            # for callr rsp).
            em.emit(f"cpu.rip = r{r}")
        elif op_id == OP_RET:
            em.emit_load("_t", f"r{_RSP}", addr)
            em.emit(f"r{_RSP} = (r{_RSP} + 8) & {_MASK}")
            em.dirty.add(_RSP)
            em.emit("cpu.rip = _t")
        else:  # pragma: no cover - closed opcode table
            raise AssertionError(f"unfusable op id {op_id}")


def _trip(block, at: Dict[int, tuple], names: Dict[tuple, str]):
    """One trip of a promoted loop, trimmed as the module docstring's
    "Trip loops" says: its statement lines in program order (every body
    instruction but the terminator) and ``counter``, the ``(index,
    register)`` of a closing ``subi rC, 1`` the caller turns into a trip
    count, or None.  A *silent* base is a slot base no statement updates.
    """
    insns = block.insns
    body = insns[:-1]
    term = insns[-1]
    writers = [i for i, insn in enumerate(body) if insn.op_id in _ZF_WRITERS]
    last_zf = writers[-1] if writers else None
    counter = None
    if (term.op_id == OP_JNZ and last_zf is not None
            and term.end + term.operands[0] == block.entry):
        insn = body[last_zf]
        reg = insn.operands[0]
        if (insn.op_id == OP_SUBI and insn.operands[1] == 1
                and not any(reg in _insn_regs(other)
                            for i, other in enumerate(body)
                            if i != last_zf)):
            counter = (last_zf, reg)
    silent = set()
    for base in {key[0] for key in names}:
        for i, insn in enumerate(body):
            op_id = insn.op_id
            ops = insn.operands
            if i in at:
                # Promoted: only a stored value reads a register.
                reads = op_id in (OP_STORE, OP_PUSH) and ops[0] == base
            elif op_id == OP_ADDI or op_id == OP_SUBI:
                reads = ops[0] == base and op_id == OP_SUBI and i == last_zf
            else:
                reads = base in _insn_regs(insn)
            if reads:
                break
        else:
            silent.add(base)

    out: List[list] = []

    def put(target: str, template: str, *args: str) -> None:
        stmt = [[target], template, list(args)]
        if out:
            prev = out[-1]
            moved = prev[0][0]
            if prev[1] == "{}" and moved == target and moved in args:
                # ``t = x`` then ``t = f(t)``: ``t = f(x)``.
                stmt[2] = [prev[2][0] if a == moved else a for a in args]
                out.pop()
        out.append(stmt)

    rsp = f"r{_RSP}"
    for i, insn in enumerate(body):
        op_id = insn.op_id
        ops = insn.operands
        dead_zf = i != last_zf
        if counter is not None and i == counter[0]:
            continue
        if i in at:
            slot = names[at[i]]
            if op_id == OP_PUSH:
                put(slot, "{}", f"r{ops[0]}")
                if _RSP not in silent:
                    put(rsp, f"({{}} - 8) & {_MASK}", rsp)
            elif op_id == OP_POP:
                if _RSP not in silent:
                    put(rsp, f"({{}} + 8) & {_MASK}", rsp)
                put(f"r{ops[0]}", "{}", slot)
            elif op_id == OP_LOAD:
                put(f"r{ops[0]}", "{}", slot)
            else:  # OP_STORE
                put(slot, "{}", f"r{ops[0]}")
        elif op_id == OP_MOV:
            if ops[0] != ops[1]:
                put(f"r{ops[0]}", "{}", f"r{ops[1]}")
        elif op_id == OP_MOVI:
            put(f"r{ops[0]}", str(ops[1] & _MASK))
        elif op_id == OP_ADD:
            put(f"r{ops[0]}", f"({{}} + {{}}) & {_MASK}", f"r{ops[0]}",
                f"r{ops[1]}")
        elif op_id == OP_ADDI:
            if ops[0] not in silent:
                put(f"r{ops[0]}", f"({{}} + {ops[1]}) & {_MASK}",
                    f"r{ops[0]}")
        elif op_id == OP_SUB or op_id == OP_SUBI:
            if op_id == OP_SUBI and ops[0] in silent:
                continue
            d = f"r{ops[0]}"
            if op_id == OP_SUB:
                put(d, f"({{}} - {{}}) & {_MASK}", d, f"r{ops[1]}")
            else:
                put(d, f"({{}} - {ops[1]}) & {_MASK}", d)
            if not dead_zf:
                put("zf", "{} == 0", d)
        elif op_id == OP_CMP:
            if not dead_zf:
                put("zf", "{} == {}", f"r{ops[0]}", f"r{ops[1]}")
        elif op_id == OP_CMPI:
            if not dead_zf:
                put("zf", f"{{}} == {ops[1] & _MASK}", f"r{ops[0]}")
        # else: nop or a spanned jmp — no state moves.
    statements: List[list] = []
    for stmt in out:
        if statements and stmt[1] == "{}" and stmt[2][0] in statements[-1][0]:
            # ``p = e`` then ``t = p``: ``p = t = e``.
            statements[-1][0] += stmt[0]
        else:
            statements.append(stmt)
    return [" = ".join(targets) + " = " + template.format(*args)
            for targets, template, args in statements], counter


def _emit_promoted_loop(em: _Emitter, block, slots: dict,
                        at: Dict[int, tuple]) -> None:
    """The loop with its slots in locals, behind a once-per-call guard.

    ``_k``, the most trips the insn budget and cycle batch allow, bounds
    the loop.  The guard re-makes, once, every check the body's accesses
    would make on every trip (page cached, bounds, ``r_ok``/``w_ok``),
    and adds one: no two slots overlap (so a local holds all of its
    slot).  If any fails, control falls through to the code after this,
    one trip of the plain body; a loop with no slots has no guard and no
    fallback.  Nothing in the promoted loop can fault, so it is a
    counted ``for`` whose trip number ``_it`` no statement reads (see
    :func:`_trip`).
    """
    em.emit(f"_k = (remaining - 1) // {len(block.insns)}")
    em.emit(f"_kb = budget // {block.cycles}")
    em.emit("if _kb < _k:")
    em.emit("_k = _kb", 2)
    em.emit("if _k < 1:")
    em.emit("_k = 1", 2)
    conds = []
    for j, ((base, offset, disp), (loads, stores, _first)) in enumerate(
            slots.items()):
        addr = (f"r{base}" if not offset else
                f"((r{base} + {offset}) & {_MASK})")
        if disp:
            addr += f" + {disp}"
        em.emit(f"_a{j} = {addr}")
        em.emit(f"_p{j} = pages.get(_a{j} >> 12)")
        conds.append(f"_p{j} is not None")
        if loads:
            conds.append(f"_p{j}.r_ok")
        if stores:
            conds.append(f"_p{j}.w_ok")
        conds += [f"_p{j}.start <= _a{j}", f"_a{j} + 8 <= _p{j}.end"]
    for j in range(len(slots)):
        for k in range(j):
            conds.append(f"(_a{j} - _a{k} >= 8 or _a{k} - _a{j} >= 8)")
    if conds:
        em.emit(f"if {' and '.join(conds)}:")
        em.base += 1
    for j, (_loads, _stores, read_first) in enumerate(slots.values()):
        if read_first:
            em.emit(f"_m{j} = unpack(_p{j}.data, _a{j} - _p{j}.start)[0]")
    names = {key: f"_m{j}" for j, key in enumerate(slots)}
    statements, counter = _trip(block, at, names)
    entry = block.entry
    term = block.insns[-1]
    taken = term.end + term.operands[0]
    # A conditional with one edge to the entry tests the other per trip.
    tested = (counter is None and term.op_id != OP_JMP
              and taken != term.end)
    if counter is not None:
        reg = f"r{counter[1]}"
        em.emit(f"_k = {reg} if 0 < {reg} < _k else _k")
    if statements or tested:
        em.emit("for _it in range(1, _k + 1):")
        for line in statements:
            em.emit(line, 2)
    else:
        em.emit("_it = _k")
    if tested:
        leave_on_zf = (term.op_id == OP_JNZ) == (taken == entry)
        em.emit(f"if {'zf' if leave_on_zf else 'not zf'}:", 2)
        em.emit(f"cpu.rip = {term.end if taken == entry else taken}", 3)
        em.emit("break", 3)
        em.emit("else:")
        em.emit(f"cpu.rip = {entry}", 2)
    elif counter is not None:
        em.emit(f"{reg} = ({reg} - _it) & {_MASK}")
        em.emit(f"zf = {reg} == 0")
        em.emit(f"cpu.rip = {term.end} if zf else {entry}")
    else:
        em.emit(f"cpu.rip = {entry}")
    for j, (_loads, stores, _first) in enumerate(slots.values()):
        if stores:
            em.emit(f"pack(_p{j}.data, _a{j} - _p{j}.start, _m{j})")
    for r in sorted(em.localized):
        em.emit(f"regs[{r}] = r{r}")
    if em.zf_used:
        em.emit("cpu.zf = zf")
    em.emit("return _it")
    if conds:
        em.base -= 1


def fuse_block(cpu, block):
    """Compile ``block`` into a single callable; see module docstring."""
    insns = block.insns
    em = _Emitter()
    for insn in insns:
        em.localized.update(_insn_regs(insn))
        if insn.op_id in _ZF_WRITERS or insn.op_id in _ZF_READERS:
            em.zf_used = True

    for i in sorted(em.localized):
        em.emit(f"r{i} = regs[{i}]")
    if em.zf_used:
        em.emit("zf = cpu.zf")
    # A promotable self-loop iterates in place (bounded by the
    # caller-supplied insn budget and cycle batch), so a hot loop costs
    # one Python call per ~batch instead of one per trip.  Any other
    # block, and a self-loop whose guard fails, runs one trip of the
    # plain body, whose fault sites then need no trip count;
    # ``Cpu._run_cached``'s self-chain runs the next trip.
    promotable = _loop_slots(insns) if _is_self_loop(block) else None
    if promotable is not None:
        _emit_promoted_loop(em, block, *promotable)
    if promotable is None or promotable[0]:
        _emit_body(em, block)
        for line in em.spills():
            em.emit(line)
        em.emit("return 1")

    header = ("def _fused(remaining, budget, cpu=_cpu, regs=_regs, "
              "read_u64=_read_u64, write_u64=_write_u64, insns=_insns, "
              "execute=_execute, pages=_pages, unpack=_unpack, "
              "pack=_pack):")
    source = header + "\n" + "\n".join(em.lines) + "\n"
    namespace = {
        "_cpu": cpu,
        "_regs": cpu.regs,
        "_read_u64": cpu.space.read_u64,
        "_write_u64": cpu.space.write_u64,
        "_insns": insns,
        "_execute": cpu._execute_plain,
        "_pages": cpu.space._pages,
        "_unpack": _U64.unpack_from,
        "_pack": _U64.pack_into,
    }
    exec(compile(source, f"<fused:{block.entry:#x}>", "exec"), namespace)
    return namespace["_fused"]
