"""Unit tests for the VX86 assembler, disassembler and interpreter."""

import pytest

from repro.errors import AssemblyError, DisassemblyError, ExecutionFault
from repro.isa import (
    AddressSpace,
    CodeImage,
    Cpu,
    Segment,
    assemble,
    branch_targets,
    decode_one,
)


def make_cpu(source, origin=0x1000, stack=0x8000, extra_segments=()):
    space = AddressSpace()
    code = assemble(source, origin=origin)
    space.map(Segment(origin, code, perms="rx", name="text"))
    space.map(Segment(stack - 0x1000, bytes(0x1000), perms="rw", name="stack"))
    for seg in extra_segments:
        space.map(seg)
    return Cpu(space, entry=origin, stack_top=stack)


class TestAssembler:
    def test_roundtrip_simple(self):
        code = assemble("movi rax, 42\nhlt\n")
        insns = CodeImage(0, code).sweep()
        assert [i.mnemonic for i in insns] == ["movi", "hlt"]
        assert insns[0].operands[1] == 42

    def test_labels_and_branches(self):
        code = assemble(
            """
            movi rbx, 3
            loop:
            subi rbx, 1
            jnz loop
            hlt
            """
        )
        insns = CodeImage(0, code).sweep()
        jnz = [i for i in insns if i.mnemonic == "jnz"][0]
        assert jnz.branch_target() == insns[1].addr

    def test_origin_affects_absolute_labels(self):
        code = assemble("target:\nmovi rax, target\nhlt", origin=0x4000)
        insns = CodeImage(0x4000, code).sweep()
        assert insns[0].operands[1] == 0x4000

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate rax, 1")

    def test_unknown_register(self):
        with pytest.raises(AssemblyError):
            assemble("movi xyz, 1")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("a:\na:\nhlt")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            assemble("jmp nowhere")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("movi rax")

    def test_comments_ignored(self):
        code = assemble("nop ; this is a comment\nhlt")
        insns = CodeImage(0, code).sweep()
        assert [i.mnemonic for i in insns] == ["nop", "hlt"]

    def test_memory_operands(self):
        code = assemble("load rax, [rbx+16]\nstore [rbx-8], rax\nhlt")
        insns = CodeImage(0, code).sweep()
        assert insns[0].operands == (0, 1, 16)
        assert insns[1].operands == (0, 1, -8)


class TestDisassembler:
    def test_syscall_is_one_byte(self):
        code = assemble("syscall")
        assert len(code) == 1

    def test_jmp_is_five_bytes(self):
        code = assemble("skip:\njmp skip")
        assert len(code) == 5

    def test_int0_is_one_byte(self):
        assert len(assemble("int0")) == 1

    def test_undecodable_byte(self):
        with pytest.raises(DisassemblyError):
            decode_one(b"\x07", 0)

    def test_truncated_instruction(self):
        with pytest.raises(DisassemblyError):
            CodeImage(0, assemble("movi rax, 1")[:-2]).sweep()

    def test_branch_targets(self):
        code = assemble(
            """
            start:
            jmp after
            nop
            after:
            jz start
            hlt
            """
        )
        insns = CodeImage(0, code).sweep()
        targets = branch_targets(insns)
        assert insns[0].addr in targets  # start
        assert insns[2].addr in targets  # after


class TestInterpreter:
    def test_arithmetic_loop(self):
        cpu = make_cpu(
            """
            movi rax, 0
            movi rbx, 10
            loop:
            addi rax, 7
            subi rbx, 1
            jnz loop
            hlt
            """
        )
        result = cpu.run_sync()
        assert result == 70

    def test_call_and_ret(self):
        cpu = make_cpu(
            """
            call fn
            hlt
            fn:
            movi rax, 99
            ret
            """
        )
        assert cpu.run_sync() == 99

    def test_push_pop(self):
        cpu = make_cpu(
            """
            movi rax, 5
            push rax
            movi rax, 0
            pop rbx
            mov rax, rbx
            hlt
            """
        )
        assert cpu.run_sync() == 5

    def test_pusha_popa_preserve_registers(self):
        cpu = make_cpu(
            """
            movi rcx, 1234
            movi rdx, 5678
            pusha
            movi rcx, 0
            movi rdx, 0
            popa
            mov rax, rcx
            add rax, rdx
            hlt
            """
        )
        assert cpu.run_sync() == 1234 + 5678

    def test_load_store(self):
        data = Segment(0x9000, bytes(64), perms="rw", name="data")
        cpu = make_cpu(
            """
            movi rbx, 0x9000
            movi rax, 777
            store [rbx+8], rax
            movi rax, 0
            load rax, [rbx+8]
            hlt
            """,
            extra_segments=[data],
        )
        assert cpu.run_sync() == 777

    def test_callr_indirect(self):
        cpu = make_cpu(
            """
            movi rbx, fn
            callr rbx
            hlt
            fn:
            movi rax, 31337
            ret
            """
        )
        assert cpu.run_sync() == 31337

    def test_syscall_handler_invoked_with_convention(self):
        seen = {}

        def handler(cpu):
            seen["nr"] = cpu.get("rax")
            seen["arg0"] = cpu.get("rdi")
            return 123
            yield  # pragma: no cover - makes this a generator

        cpu = make_cpu(
            """
            movi rax, 3
            movi rdi, -1
            syscall
            hlt
            """
        )
        cpu.syscall_handler = handler
        assert cpu.run_sync() == 123
        assert seen == {"nr": 3, "arg0": 2 ** 64 - 1}

    def test_missing_handler_faults(self):
        cpu = make_cpu("syscall\nhlt")
        with pytest.raises(ExecutionFault):
            cpu.run_sync()

    def test_execute_from_non_exec_segment_faults(self):
        space = AddressSpace()
        space.map(Segment(0x1000, assemble("hlt"), perms="rw", name="noexec"))
        space.map(Segment(0x7000, bytes(0x1000), perms="rw", name="stack"))
        cpu = Cpu(space, entry=0x1000, stack_top=0x8000)
        with pytest.raises(ExecutionFault):
            cpu.run_sync()

    def test_runaway_detected(self):
        cpu = make_cpu("loop:\njmp loop")
        with pytest.raises(ExecutionFault):
            cpu.run_sync(max_insns=1000)

    def test_cycle_accounting_counts_instructions(self):
        cpu = make_cpu("nop\nnop\nnop\nhlt")
        cpu.run_sync()
        assert cpu.cycles == 4  # 3 nops + hlt, 1 cycle each

    def test_vsys_handler(self):
        def handler(cpu, idx):
            return 1000 + idx
            yield  # pragma: no cover

        cpu = make_cpu("vsys 2\nhlt")
        cpu.vsys_handler = handler
        assert cpu.run_sync() == 1002


class TestAddressSpace:
    def test_overlap_rejected(self):
        space = AddressSpace()
        space.map(Segment(0x1000, bytes(0x100), name="a"))
        with pytest.raises(ExecutionFault):
            space.map(Segment(0x1080, bytes(0x100), name="b"))

    def test_unmapped_access(self):
        space = AddressSpace()
        with pytest.raises(ExecutionFault):
            space.read_u64(0x5000)

    def test_wx_violation_rejected(self):
        space = AddressSpace()
        seg = space.map(Segment(0x1000, bytes(16), perms="rw", name="a"))
        from repro.errors import RewriteError

        with pytest.raises(RewriteError):
            space.mprotect(seg, "rwx")

    @pytest.mark.parametrize("perms", ["rwx", "wx"])
    def test_wx_refused_at_map_time(self, perms):
        # W^X holds from the first mapping on, not only across mprotect:
        # no guest store can ever reach executable bytes.
        with pytest.raises(ExecutionFault, match="W\\^X"):
            Segment(0x1000, bytes(16), perms=perms, name="jit")

    def test_find_probes_the_page_cache_before_scanning(self, monkeypatch):
        space = AddressSpace()
        low = space.map(Segment(0x1000, bytes(0x100), name="low"))
        high = space.map(Segment(0x1100, bytes(0x100), name="high"))
        scans = []
        real = Segment.contains
        monkeypatch.setattr(Segment, "contains", lambda seg, addr: (
            scans.append(addr) or real(seg, addr)))
        assert space.find(0x1010) is low and len(scans) == 1
        assert space.find(0x10F8) is low and len(scans) == 1
        # Same page, other segment: the cached entry fails its bounds.
        assert space.find(0x1100) is high and len(scans) == 3
        with pytest.raises(ExecutionFault, match="unmapped"):
            space.find(0x1200)

    def test_exec_hook_fires_on_map_and_mprotect(self):
        space = AddressSpace()
        fired = []
        space.exec_hooks.append(lambda seg: fired.append(seg.name))
        space.map(Segment(0x1000, b"\x90", perms="rx", name="text"))
        seg = space.map(Segment(0x2000, b"\x90", perms="r", name="later"))
        assert fired == ["text"]
        space.mprotect(seg, "rx")
        assert fired == ["text", "later"]

    def test_write_perm_enforced(self):
        space = AddressSpace()
        space.map(Segment(0x1000, bytes(16), perms="r", name="ro"))
        with pytest.raises(ExecutionFault):
            space.write(0x1000, b"x")
