"""VX86 interpreter with cycle accounting.

The interpreter is generator-based so it can run inside a simulated
process: it yields :class:`~repro.sim.core.Compute` batches for plain
instructions and delegates to pluggable *handlers* for ``syscall``,
``int0``, ``vsys`` and ``vmcall`` instructions.  Handlers are themselves
generators (so they may block on kernel objects or Varan's ring buffer)
and return the value to place in RAX.

Execution normally runs through a :class:`~repro.isa.translator.
TranslationCache`: code is cut once into superblocks of decoded
instructions, a cold block runs them on the per-step executor
(:data:`EXECUTORS`), a hot one runs as a fused compiled body
(:mod:`repro.isa.fuser`), and each block's cycles are charged as one
batch.  Pass ``translate=False`` to get the original
decode-every-instruction loop — the two are observably identical (same
registers, cycles, instructions retired, faults and sim-time totals;
only wall-clock speed and Compute chunking differ), which
``tests/test_translator.py`` checks differentially.

For handler-free unit tests, :meth:`Cpu.run_sync` drives execution
without a simulator.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.costmodel import CYCLE_PS
from repro.errors import ExecutionFault
from repro.isa.fuser import fuse_block
from repro.isa.memory import AddressSpace
from repro.isa.opcodes import (
    HANDLER_OP_IDS,
    OP_ADD,
    OP_ADDI,
    OP_CALL,
    OP_CALLR,
    OP_CMP,
    OP_CMPI,
    OP_HLT,
    OP_INT0,
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
    OP_SPECS,
    OP_STORE,
    OP_SUB,
    OP_SUBI,
    OP_SYSCALL,
    OP_VSYS,
    REG_INDEX,
    REGISTERS,
)
from repro.isa.translator import (
    T_BRANCH,
    T_FALL,
    T_HLT,
    T_INT0,
    T_SYSCALL,
    T_VSYS,
    TranslationCache,
)
from repro.sim.core import Block, Compute

_U64 = 2 ** 64
_MASK = _U64 - 1
_RAX = REG_INDEX["rax"]
_RSP = REG_INDEX["rsp"]


class Cpu:
    """One hardware thread executing VX86 code."""

    def __init__(self, space: AddressSpace, entry: int, stack_top: int,
                 name: str = "cpu", translate: bool = True) -> None:
        self.space = space
        self.regs = [0] * len(REGISTERS)
        self.rip = entry
        self.zf = False
        self.name = name
        self.cycles = 0  # total retired instruction cycles
        self.halted = False
        self.insns_retired = 0
        self.regs[_RSP] = stack_top
        # translate=True: superblocks + chaining + fused hot blocks.
        # translate=False: per-step decode (the differential oracle).
        self.tcache: Optional[TranslationCache] = (
            TranslationCache(space) if translate else None)
        # Handler hooks — generator functions taking (cpu,) or (cpu, idx).
        self.syscall_handler: Optional[Callable] = None
        self.int0_handler: Optional[Callable] = None
        self.vsys_handler: Optional[Callable] = None
        self.vmcall_handler: Optional[Callable] = None

    # -- register helpers ------------------------------------------------

    def get(self, reg: str) -> int:
        return self.regs[REG_INDEX[reg]]

    def push(self, value: int) -> None:
        rsp = (self.regs[_RSP] - 8) & (_U64 - 1)
        self.regs[_RSP] = rsp
        self.space.write_u64(rsp, value)

    def pop(self) -> int:
        rsp = self.regs[_RSP]
        value = self.space.read_u64(rsp)
        self.regs[_RSP] = (rsp + 8) & (_U64 - 1)
        return value

    # -- execution ---------------------------------------------------------

    def step_decode(self):
        segment = self.space.find(self.rip)
        if not segment.x_ok:
            raise ExecutionFault(
                f"{self.name}: rip {self.rip:#x} not executable")
        return segment.image().at(self.rip - segment.start)

    def run(self, max_insns: int = 10_000_000,
            batch_cycles: int = 20_000) -> Generator:
        """Execute until HLT, yielding sim commands (returns a generator)."""
        if self.tcache is not None:
            return self._run_cached(max_insns, batch_cycles)
        return self._run_interp(max_insns, batch_cycles)

    def run_sync(self, max_insns: int = 10_000_000) -> int:
        """Drive :meth:`run` outside a simulator (tests, tools).

        Compute/Sleep commands are swallowed; a Block (a handler trying
        to wait) is an error in sync mode.
        """
        gen = self.run(max_insns=max_insns)
        try:
            cmd = next(gen)
            while True:
                if isinstance(cmd, Block):
                    raise ExecutionFault("handler blocked in run_sync()")
                cmd = gen.send(None)
        except StopIteration as stop:
            return stop.value

    # -- the translated hot loop -------------------------------------------

    def _run_cached(self, max_insns: int, batch_cycles: int) -> Generator:
        """Chained block-at-a-time execution through the translation
        cache.

        Retired-instruction and cycle accounting are per-instruction
        exact on every exit, a fault included (see translator
        docstring); only the Compute chunking is coarser — one batch per
        block run instead of per instruction.
        A cold block runs its decoded instructions on the per-step
        executor; one that stays hot is promoted to a fused compiled
        body (repro.isa.fuser).  The inner loop follows direct-threaded
        chain links (validated against segment version and mapping
        generation at every follow, because a Compute yield can hand the
        sim to code that remaps or rewrites memory), so hot loops never
        return to the dispatch lookup; each exit taken through the
        dispatch loop patches a new chain link into its predecessor.
        """
        pending = 0
        executed = 0
        tcache = self.tcache
        lookup = tcache.lookup
        stats = tcache.stats
        space = self.space
        executors = EXECUTORS
        fuse_threshold = tcache.fuse_threshold
        # Chain/dispatch tallies accumulate in locals and flush in the
        # finally, keeping the per-block path free of attribute stores.
        follows = 0
        dispatches = 0
        chain_src = None
        try:
            while not self.halted:
                if executed >= max_insns:
                    raise ExecutionFault(
                        f"{self.name}: exceeded {max_insns} insns")
                block = lookup(self)
                dispatches += 1
                if chain_src is not None:
                    # Patch the predecessor's exit straight to this
                    # block; nothing can have invalidated either since
                    # the exit (no yields in between).
                    chain_src.chain[self.rip] = block
                    stats.chains_linked += 1
                    chain_src = None
                while True:
                    n = block.n_insns
                    remaining = max_insns - executed
                    fn = block.fn
                    insns = block.insns
                    if remaining <= n:
                        # The max_insns budget expires inside this
                        # block: run its first `remaining` instructions
                        # one by one so the fault carries the exact
                        # rip/cycles the per-step interpreter reports.
                        fn = None
                        insns = insns[:remaining]
                    elif fn is None and n:
                        hot = block.hot = block.hot + 1
                        if hot >= fuse_threshold:
                            fn = block.fn = fuse_block(self, block)
                            stats.fused_blocks += 1
                    try:
                        if fn is not None:
                            # Fused bodies return how many times they ran
                            # the block: a promoted self-loop iterates in
                            # place until its branch leaves the entry,
                            # the insn budget nears expiry, or the cycle
                            # batch fills; any other body runs once, and
                            # a self-loop's next trip is the self-chain
                            # follow below (see repro.isa.fuser).
                            it = fn(remaining, batch_cycles - pending)
                        else:
                            it = 1
                            for insn in insns:
                                executors[insn.op_id](self, insn)
                    except BaseException:
                        # Cold or fused, the body left rip at the faulting
                        # instruction of this run of the block (a promoted
                        # loop cannot fault, and block addresses are
                        # distinct), so its index is the count that
                        # retired before it; charge their cycles.
                        i = block.bounds.index(self.rip)
                        if i:
                            executed += i
                            self.cycles += block.cum[i - 1]
                        raise
                    if remaining <= n:
                        executed += remaining
                        self.cycles += block.cum[remaining - 1]
                        raise ExecutionFault(
                            f"{self.name}: exceeded {max_insns} insns")
                    executed += n * it
                    cycles = block.cycles * it
                    self.cycles += cycles
                    pending += cycles
                    # In-place iterations are self-chain-follows: count
                    # them so dispatches + follows still equals block
                    # entries.
                    follows += it - 1
                    term = block.terminator
                    if term == T_BRANCH:
                        pass  # the last instruction set rip
                    elif term == T_FALL:
                        self.rip = block.end_rip
                    elif term == T_HLT:
                        self.halted = True
                        self.rip = block.term_addr
                        executed += 1
                        self.cycles += block.term_cycles
                        pending += block.term_cycles
                        break
                    else:
                        # Like hardware: rip points past the instruction
                        # while the handler runs (and is where sigreturn
                        # resumes for int0).
                        self.rip = block.term_end
                        executed += 1
                        if pending:
                            yield Compute(pending * CYCLE_PS)
                            pending = 0
                        if term == T_SYSCALL:
                            yield from self._invoke(self.syscall_handler,
                                                    "syscall")
                        elif term == T_INT0:
                            yield from self._invoke(self.int0_handler,
                                                    "int0")
                        elif term == T_VSYS:
                            yield from self._invoke(self.vsys_handler,
                                                    "vsys",
                                                    block.term_arg)
                        else:
                            yield from self._invoke(self.vmcall_handler,
                                                    "vmcall")
                        # The handler may have moved rip anywhere
                        # (sigreturn): never chain across it.
                        break
                    if pending >= batch_cycles:
                        yield Compute(pending * CYCLE_PS)
                        pending = 0
                    nxt = block.chain.get(self.rip)
                    if (nxt is not None
                            and nxt.version == nxt.segment.version
                            and space.mapping_gen == tcache._mapping_gen):
                        follows += 1
                        block = nxt
                        continue
                    chain_src = block
                    break
            if pending:
                yield Compute(pending * CYCLE_PS)
            return self.regs[_RAX]
        finally:
            self.insns_retired = executed
            stats.chain_follows += follows
            stats.dispatch_blocks += dispatches

    # -- the reference per-step loop -----------------------------------------

    def _run_interp(self, max_insns: int, batch_cycles: int) -> Generator:
        """Original decode-every-instruction loop (reference semantics)."""
        pending = 0
        executed = 0
        try:
            while not self.halted:
                if executed >= max_insns:
                    raise ExecutionFault(
                        f"{self.name}: exceeded {max_insns} insns")
                insn = self.step_decode()
                op_id = insn.op_id
                if op_id not in HANDLER_OP_IDS:
                    EXECUTORS[op_id](self, insn)
                # Counted once it ran (a fault leaves it out); a handler
                # instruction has retired by the time its handler runs.
                executed += 1
                if op_id == OP_HLT:
                    self.halted = True
                elif op_id in HANDLER_OP_IDS:
                    # Like hardware: rip points past the instruction while
                    # the handler runs (and is where sigreturn resumes for
                    # int0).
                    self.rip = insn.end
                    pending = yield from self._flush(pending)
                    if op_id == OP_SYSCALL:
                        yield from self._invoke(self.syscall_handler,
                                                "syscall")
                    elif op_id == OP_INT0:
                        yield from self._invoke(self.int0_handler, "int0")
                    elif op_id == OP_VSYS:
                        yield from self._invoke(self.vsys_handler, "vsys",
                                                insn.operands[0])
                    else:
                        yield from self._invoke(self.vmcall_handler,
                                                "vmcall")
                cyc = insn.spec.cycles
                self.cycles += cyc
                pending += cyc
                if pending >= batch_cycles:
                    pending = yield from self._flush(pending)
            yield from self._flush(pending)
            return self.regs[_RAX]
        finally:
            self.insns_retired = executed

    # -- internals ---------------------------------------------------------

    def _flush(self, pending: int):
        if pending:
            yield Compute(pending * CYCLE_PS)
        return 0

    def _invoke(self, handler, kind: str, *args):
        if handler is None:
            raise ExecutionFault(f"{self.name}: no {kind} handler installed")
        result = yield from handler(self, *args)
        if result is not None:
            self.regs[_RAX] = result & _MASK

    def _execute_plain(self, insn) -> None:
        """Run one decoded non-handler instruction (the per-step
        executor; see :data:`EXECUTORS`)."""
        EXECUTORS[insn.op_id](self, insn)


# -- the per-step executor ----------------------------------------------------
#
# One function per opcode, each taking ``(cpu, insn)`` and leaving
# ``cpu.rip`` at the next instruction; :data:`EXECUTORS` indexes them by
# op id, so a dispatch is one tuple subscript however late the opcode
# sits in the table.  The per-step loop is the differential oracle and
# runs in every CI job, and cold translated blocks run on it too, so its
# constant factor matters.


def _mov(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    regs[ops[0]] = regs[ops[1]]
    cpu.rip = insn.end


def _movi(cpu, insn):
    ops = insn.operands
    cpu.regs[ops[0]] = ops[1] & _MASK
    cpu.rip = insn.end


def _add(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    regs[ops[0]] = (regs[ops[0]] + regs[ops[1]]) & _MASK
    cpu.rip = insn.end


def _addi(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    regs[ops[0]] = (regs[ops[0]] + ops[1]) & _MASK
    cpu.rip = insn.end


def _sub(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    result = (regs[ops[0]] - regs[ops[1]]) & _MASK
    regs[ops[0]] = result
    cpu.zf = result == 0
    cpu.rip = insn.end


def _subi(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    result = (regs[ops[0]] - ops[1]) & _MASK
    regs[ops[0]] = result
    cpu.zf = result == 0
    cpu.rip = insn.end


def _cmp(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    cpu.zf = regs[ops[0]] == regs[ops[1]]
    cpu.rip = insn.end


def _cmpi(cpu, insn):
    ops = insn.operands
    cpu.zf = cpu.regs[ops[0]] == ops[1] & _MASK
    cpu.rip = insn.end


def _load(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    regs[ops[0]] = cpu.space.read_u64(regs[ops[1]] + ops[2])
    cpu.rip = insn.end


def _store(cpu, insn):
    ops = insn.operands
    regs = cpu.regs
    cpu.space.write_u64(regs[ops[1]] + ops[2], regs[ops[0]])
    cpu.rip = insn.end


def _push(cpu, insn):
    cpu.push(cpu.regs[insn.operands[0]])
    cpu.rip = insn.end


def _pop(cpu, insn):
    cpu.regs[insn.operands[0]] = cpu.pop()
    cpu.rip = insn.end


def _jmp(cpu, insn):
    cpu.rip = insn.end + insn.operands[0]


def _jz(cpu, insn):
    cpu.rip = insn.end + insn.operands[0] if cpu.zf else insn.end


def _jnz(cpu, insn):
    cpu.rip = insn.end if cpu.zf else insn.end + insn.operands[0]


def _call(cpu, insn):
    cpu.push(insn.end)
    cpu.rip = insn.end + insn.operands[0]


def _callr(cpu, insn):
    cpu.push(insn.end)
    # Target read after the push (matters for ``callr rsp``).
    cpu.rip = cpu.regs[insn.operands[0]]


def _ret(cpu, insn):
    cpu.rip = cpu.pop()


def _nop(cpu, insn):
    cpu.rip = insn.end


def _pusha(cpu, insn):
    regs = cpu.regs
    for i, value in enumerate(regs):
        if i != _RSP:
            cpu.push(value)
    cpu.rip = insn.end


def _popa(cpu, insn):
    regs = cpu.regs
    for i in reversed(range(len(regs))):
        if i != _RSP:
            regs[i] = cpu.pop()
    cpu.rip = insn.end


_BY_ID = {
    OP_MOV: _mov, OP_MOVI: _movi, OP_ADD: _add, OP_ADDI: _addi,
    OP_SUB: _sub, OP_SUBI: _subi, OP_CMP: _cmp, OP_CMPI: _cmpi,
    OP_LOAD: _load, OP_STORE: _store, OP_PUSH: _push, OP_POP: _pop,
    OP_JMP: _jmp, OP_JZ: _jz, OP_JNZ: _jnz, OP_CALL: _call,
    OP_CALLR: _callr, OP_RET: _ret, OP_NOP: _nop, OP_PUSHA: _pusha,
    OP_POPA: _popa,
}

#: The per-step executor of each op id (``OP_SPECS`` order); None for
#: the handler instructions and ``hlt``, which both run loops dispatch
#: before the executor (and blocks end before).
EXECUTORS = tuple(_BY_ID.get(op_id) for op_id in range(len(OP_SPECS)))
