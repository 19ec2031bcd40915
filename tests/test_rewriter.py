"""Tests for selective binary rewriting (§3.2) and vDSO patching (§3.2.1)."""

import pytest

from repro.errors import ExecutionFault
from repro.isa import AddressSpace, CodeImage, Cpu, Segment, assemble
from repro.rewriter import (
    KIND_INT,
    KIND_JMP,
    KIND_VDSO,
    BinaryRewriter,
    make_int0_handler,
    make_vmcall_handler,
    rewrite_vdso,
)
from repro.costmodel import DEFAULT_COSTS

TEXT = 0x1000
STACK_TOP = 0x20000


def build_world(source, auto=True):
    space = AddressSpace()
    rewriter = BinaryRewriter(space, auto=auto)
    space.map(Segment(STACK_TOP - 0x2000, bytes(0x2000), perms="rw",
                      name="stack"))
    code = assemble(source, origin=TEXT)
    text = space.map(Segment(TEXT, code, perms="rx", name="text"))
    return space, rewriter, text


def attach_cpu(space, rewriter, dispatch, entry=TEXT):
    cpu = Cpu(space, entry=entry, stack_top=STACK_TOP)
    cpu.vmcall_handler = make_vmcall_handler(rewriter.patchset, dispatch)
    cpu.int0_handler = make_int0_handler(rewriter.patchset, dispatch,
                                         DEFAULT_COSTS)
    return cpu


def recording_dispatch(calls, result_fn=lambda nr: 1000 + nr):
    def dispatch(cpu, site):
        nr = cpu.get("rax")
        calls.append((site.kind, nr))
        return result_fn(nr)
        yield  # pragma: no cover - generator marker

    return dispatch


SIMPLE = """
movi rax, 1
movi rdi, 5
syscall
mov rbx, rax
addi rbx, 100
mov rax, rbx
hlt
"""


class TestJmpPatching:
    def test_syscall_replaced_by_jmp(self):
        space, rewriter, text = build_world(SIMPLE)
        sites = rewriter.patchset.sites
        assert len(sites) == 1 and sites[0].kind == KIND_JMP
        # The patched text must still be fully decodable.
        insns = CodeImage(TEXT, bytes(text.data)).sweep()
        mnemonics = [i.mnemonic for i in insns]
        assert "syscall" not in mnemonics
        assert "jmp" in mnemonics

    def test_execution_through_trampoline(self):
        space, rewriter, _ = build_world(SIMPLE)
        calls = []
        cpu = attach_cpu(space, rewriter, recording_dispatch(calls))
        result = cpu.run_sync()
        # dispatch returned 1001; displaced mov/addi still execute.
        assert result == 1101
        assert calls == [(KIND_JMP, 1)]

    def test_registers_preserved_across_entry(self):
        source = """
        movi rcx, 7777
        movi rax, 1
        syscall
        mov rbx, rax
        nop
        nop
        nop
        mov rax, rcx
        hlt
        """
        space, rewriter, _ = build_world(source)
        cpu = attach_cpu(space, rewriter, recording_dispatch([]))
        assert cpu.run_sync() == 7777

    def test_displaced_rel32_branch_fixed_up(self):
        # A displaced jmp must still reach its original target.
        source = """
        movi rbx, 0
        movi rax, 1
        syscall
        jmp target
        nop
        nop
        nop
        nop
        movi rbx, 111
        target:
        addi rbx, 5
        mov rax, rbx
        hlt
        """
        space, rewriter, _ = build_world(source)
        cpu = attach_cpu(space, rewriter, recording_dispatch([]))
        # jmp skips the movi rbx,111; rbx = 0 + 5.
        assert cpu.run_sync() == 5

    def test_wx_discipline_holds(self):
        space, rewriter, text = build_world(SIMPLE)
        for segment in space.segments:
            assert not ("w" in segment.perms and "x" in segment.perms)

    def test_rewrite_fires_on_late_mprotect(self):
        space, rewriter, _ = build_world("nop\nhlt")
        code = assemble("movi rax, 1\nsyscall\nnop\nnop\nnop\nnop\nhlt",
                        origin=0x3000)
        late = space.map(Segment(0x3000, code, perms="r", name="late"))
        assert len(rewriter.patchset.sites) == 0
        space.mprotect(late, "rx")
        assert len(rewriter.patchset.sites) == 1


class TestIntFallback:
    SOURCE = """
    movi rcx, 2
    movi rax, 3
    syscall
    after:
    nop
    nop
    nop
    nop
    subi rcx, 1
    jnz after
    hlt
    """

    def test_branch_target_in_window_forces_int(self):
        space, rewriter, _ = build_world(self.SOURCE)
        sites = rewriter.patchset.sites
        assert len(sites) == 1 and sites[0].kind == KIND_INT
        assert rewriter.patchset.stats.int_patched == 1
        assert rewriter.patchset.stats.jmp_patched == 0

    def test_execution_through_interrupt(self):
        space, rewriter, _ = build_world(self.SOURCE)
        calls = []
        cpu = attach_cpu(space, rewriter, recording_dispatch(calls))
        result = cpu.run_sync()
        assert calls == [(KIND_INT, 3)]
        assert result == 1003  # handler result in rax, loop preserves it

    def test_syscall_at_segment_end_forces_int(self):
        # No room for the 5-byte window: falls back to INT0.
        space, rewriter, _ = build_world("movi rax, 9\nsyscall")
        sites = rewriter.patchset.sites
        assert len(sites) == 1 and sites[0].kind == KIND_INT


class TestAdjacentSyscalls:
    SOURCE = """
    movi rax, 1
    syscall
    syscall
    nop
    nop
    nop
    nop
    hlt
    """

    def test_second_syscall_relocated_as_int(self):
        space, rewriter, _ = build_world(self.SOURCE)
        kinds = sorted(s.kind for s in rewriter.patchset.sites)
        assert kinds == [KIND_INT, KIND_JMP]

    def test_both_calls_dispatched(self):
        space, rewriter, _ = build_world(self.SOURCE)
        calls = []
        cpu = attach_cpu(space, rewriter, recording_dispatch(calls))
        result = cpu.run_sync()
        assert len(calls) == 2
        assert calls[0][0] == KIND_JMP
        assert calls[1][0] == KIND_INT
        # Second dispatch saw rax = result of the first (1001).
        assert calls[1][1] == 1001
        assert result == 2001


def build_vdso_segment(base=0x5000):
    # Two functions, 16 bytes apart: time (vsys 0), gettimeofday (vsys 1).
    source = """
    time:
    vsys 0
    ret
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    gettimeofday:
    vsys 1
    ret
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    """
    code = assemble(source, origin=base)
    symbols = {"time": base, "gettimeofday": base + 16}
    return code, symbols


class TestVdsoRewriting:
    def test_vdso_entry_redirected(self):
        space = AddressSpace()
        rewriter = BinaryRewriter(space)
        space.map(Segment(STACK_TOP - 0x2000, bytes(0x2000), perms="rw",
                          name="stack"))
        code, symbols = build_vdso_segment()
        vdso = space.map(Segment(0x5000, code, perms="rx", name="vdso"))
        sites = rewrite_vdso(rewriter, vdso, symbols)
        assert {s.vdso_symbol for s in sites} == {"time", "gettimeofday"}
        assert all(s.kind == KIND_VDSO for s in sites)
        assert rewriter.patchset.stats.vdso_patched == 2

        # Calling the patched function dispatches through the monitor.
        caller = assemble(
            f"movi rbx, {symbols['time']}\ncallr rbx\nhlt", origin=TEXT)
        space.map(Segment(TEXT, caller, perms="rx", name="text"))
        calls = []

        def dispatch(cpu, site):
            calls.append(site.vdso_symbol)
            return 424242
            yield  # pragma: no cover

        cpu = attach_cpu(space, rewriter, dispatch)
        assert cpu.run_sync() == 424242
        assert calls == ["time"]

    def test_original_trampoline_still_native(self):
        space = AddressSpace()
        rewriter = BinaryRewriter(space)
        space.map(Segment(STACK_TOP - 0x2000, bytes(0x2000), perms="rw",
                          name="stack"))
        code, symbols = build_vdso_segment()
        vdso = space.map(Segment(0x5000, code, perms="rx", name="vdso"))
        sites = rewrite_vdso(rewriter, vdso, symbols)
        time_site = [s for s in sites if s.vdso_symbol == "time"][0]

        caller = assemble(
            f"movi rbx, {time_site.original_entry_trampoline}\n"
            "callr rbx\nhlt", origin=TEXT)
        space.map(Segment(TEXT, caller, perms="rx", name="text"))
        cpu = Cpu(space, entry=TEXT, stack_top=STACK_TOP)

        def vsys(cpu_, idx):
            return 5000 + idx
            yield  # pragma: no cover

        cpu.vsys_handler = vsys
        assert cpu.run_sync() == 5000  # vsys 0 == time, genuine fast path


class TestStatsAndSafety:
    def test_stats_counters(self):
        space, rewriter, _ = build_world(SIMPLE)
        stats = rewriter.patchset.stats
        assert stats.segments_scanned >= 1
        assert stats.sites_found == 1
        assert stats.jmp_patched == 1
        assert stats.relocated_insns >= 1

    def test_unknown_vmcall_site_faults(self):
        space, rewriter, _ = build_world("nop\nhlt")
        bad = assemble("vmcall\nhlt", origin=0x4000)
        space.map(Segment(0x4000, bad, perms="rx", name="rogue"))
        cpu = attach_cpu(space, rewriter, recording_dispatch([]),
                         entry=0x4000)
        with pytest.raises(ExecutionFault):
            cpu.run_sync()

    def test_own_segments_never_rewritten(self):
        space, rewriter, _ = build_world(SIMPLE)
        before = len(rewriter.patchset.sites)
        # Trampolines were mapped during the first rewrite; re-protecting
        # one must not create new sites.
        tramp = next((s for s in space.segments
                      if s.name == "varan.trampoline"), None)
        assert tramp is not None
        space.mprotect(tramp, "rx")
        assert len(rewriter.patchset.sites) == before


class TestTranslationCacheCoherence:
    def test_patch_after_translate_dispatches_through_trampoline(self):
        # Translate the unrewritten text first (raw syscall terminator in
        # the cached block), then rewrite it in place.  If the rewriter's
        # patch did not evict the stale block, the second run would replay
        # the raw syscall instead of entering the trampoline.
        space, rewriter, text = build_world(SIMPLE, auto=False)
        calls = []
        cpu = attach_cpu(space, rewriter, recording_dispatch(calls))

        def raw_syscall(inner):
            calls.append(("raw", inner.get("rax")))
            return 555
            yield  # pragma: no cover - generator marker

        cpu.syscall_handler = raw_syscall
        assert cpu.run_sync() == 655  # 555 + 100, no trampoline involved
        assert calls == [("raw", 1)]

        rewriter.rewrite_segment(text)
        cpu.rip = TEXT
        cpu.halted = False
        del calls[:]
        assert cpu.run_sync() == 1101  # dispatch result 1001 + 100
        assert calls == [(KIND_JMP, 1)]
        assert (cpu.tcache.stats.invalidations >= 1
                or cpu.tcache.stats.misses >= 2)
