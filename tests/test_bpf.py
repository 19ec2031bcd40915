"""BPF machine tests, including the paper's Listing 1 verbatim."""

import pytest

from repro.bpf import (
    ACTION_ALLOW,
    ACTION_KILL,
    ACTION_SKIP,
    NVX_RET_SKIP,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL,
    BpfInsn,
    BpfProgram,
    RewriteRules,
    assemble_bpf,
    pack_seccomp_data,
    verify,
)
from repro.bpf.insn import (
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
    BPF_DIV,
    BPF_JA,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_MEM,
    BPF_RET,
    BPF_ST,
    BPF_W,
)
from repro.errors import BpfVerifierError
from repro.kernel.uapi import SYSCALL_NUMBERS

#: Listing 1 of the paper, character-for-character where it matters.
LISTING_1 = """
ld event[0]
jeq #108, getegid /* __NR_getegid */
jeq #2, open /* __NR_open */
jmp bad
getegid:
ld [0] /* offsetof(struct seccomp_data, nr) */
jeq #102, good /* __NR_getuid */
open:
ld [0] /* offsetof(struct seccomp_data, nr) */
jeq #104, good /* __NR_getgid */
bad: ret #0 /* SECCOMP_RET_KILL */
good: ret #0x7fff0000 /* SECCOMP_RET_ALLOW */
"""


class TestAssembler:
    def test_listing1_assembles(self):
        program = assemble_bpf(LISTING_1, name="listing1")
        assert len(program) == 10

    def test_unknown_mnemonic(self):
        with pytest.raises(BpfVerifierError):
            assemble_bpf("frob #1\nret #0")

    def test_undefined_label(self):
        with pytest.raises(BpfVerifierError):
            assemble_bpf("jmp nowhere\nret #0")

    def test_backward_jump_rejected(self):
        with pytest.raises(BpfVerifierError):
            assemble_bpf("top:\nld [0]\njmp top\nret #0")

    def test_duplicate_label_rejected(self):
        with pytest.raises(BpfVerifierError):
            assemble_bpf("a:\na:\nret #0")

    def test_label_and_insn_same_line(self):
        program = assemble_bpf("go: ret #7")
        assert program.run(pack_seccomp_data(0)) == 7

    def test_comments_stripped(self):
        program = assemble_bpf("ret #1 /* inline */ // trailing")
        assert program.run(pack_seccomp_data(0)) == 1


class TestVerifier:
    def test_empty_program_rejected(self):
        with pytest.raises(BpfVerifierError):
            verify([])

    def test_must_end_in_ret(self):
        with pytest.raises(BpfVerifierError):
            verify([BpfInsn(code=BPF_LD | BPF_W | BPF_ABS, k=0)])

    def test_jump_out_of_range_rejected(self):
        insns = [BpfInsn(code=BPF_JMP | BPF_JEQ | BPF_K, jt=5, jf=0, k=1),
                 BpfInsn(code=BPF_RET | BPF_K, k=0)]
        with pytest.raises(BpfVerifierError):
            verify(insns)

    def test_division_by_zero_constant_rejected(self):
        insns = [BpfInsn(code=BPF_ALU | BPF_DIV | BPF_K, k=0),
                 BpfInsn(code=BPF_RET | BPF_K, k=0)]
        with pytest.raises(BpfVerifierError):
            verify(insns)

    def test_scratch_slot_bounds(self):
        insns = [BpfInsn(code=BPF_ST, k=16),
                 BpfInsn(code=BPF_RET | BPF_K, k=0)]
        with pytest.raises(BpfVerifierError):
            verify(insns)

    def test_valid_program_passes(self):
        program = assemble_bpf(LISTING_1)
        verify(program.insns)  # no exception


class TestInterpreter:
    def test_ret_constant(self):
        assert assemble_bpf("ret #42").run(b"") == 42

    def test_ld_abs_reads_nr(self):
        program = assemble_bpf("ld [0]\nret a")
        assert program.run(pack_seccomp_data(123)) == 123

    def test_ld_event_extension(self):
        program = assemble_bpf("ld event[0]\nret a")
        assert program.run(pack_seccomp_data(0), event_words=[77]) == 77

    def test_event_word_out_of_range_reads_zero(self):
        program = assemble_bpf("ld event[5]\nret a")
        assert program.run(pack_seccomp_data(0), event_words=[1]) == 0

    def test_arithmetic(self):
        program = assemble_bpf("ld #10\nadd #5\nmul #3\nsub #15\nret a")
        assert program.run(b"") == 30

    def test_scratch_memory(self):
        program = assemble_bpf("ld #9\nst M[3]\nld #0\nld M[3]\nret a")
        assert program.run(b"") == 9

    def test_conditional_fallthrough(self):
        source = "ld [0]\njeq #5, yes\nret #100\nyes: ret #200"
        program = assemble_bpf(source)
        assert program.run(pack_seccomp_data(5)) == 200
        assert program.run(pack_seccomp_data(6)) == 100

    def test_jt_jf_form(self):
        source = "ld [0]\njgt #10, big, small\nbig: ret #1\nsmall: ret #2"
        program = assemble_bpf(source)
        assert program.run(pack_seccomp_data(11)) == 1
        assert program.run(pack_seccomp_data(10)) == 2

    def test_args_accessible_at_offset_16(self):
        program = assemble_bpf("ld [16]\nret a")
        assert program.run(pack_seccomp_data(1, args=[999])) == 999

    def test_load_past_end_raises(self):
        from repro.errors import BpfRuntimeError

        program = assemble_bpf("ld [60]\nret a")
        with pytest.raises(BpfRuntimeError):
            program.run(b"\0" * 8)


class TestListing1Semantics:
    """Drive Listing 1 exactly as §5.2 describes."""

    @pytest.fixture()
    def program(self):
        return assemble_bpf(LISTING_1, name="listing1")

    def test_follower_getuid_while_leader_getegid_allowed(self, program):
        # Follower executes getuid (102), leader's event is getegid (108).
        data = pack_seccomp_data(SYSCALL_NUMBERS["getuid"])
        verdict = program.run(data, [SYSCALL_NUMBERS["getegid"]])
        assert verdict == SECCOMP_RET_ALLOW

    def test_follower_getgid_while_leader_open_allowed(self, program):
        data = pack_seccomp_data(SYSCALL_NUMBERS["getgid"])
        verdict = program.run(data, [SYSCALL_NUMBERS["open"]])
        assert verdict == SECCOMP_RET_ALLOW

    def test_other_combinations_killed(self, program):
        data = pack_seccomp_data(SYSCALL_NUMBERS["write"])
        assert program.run(data, [SYSCALL_NUMBERS["getegid"]]) == \
            SECCOMP_RET_KILL
        data = pack_seccomp_data(SYSCALL_NUMBERS["getuid"])
        assert program.run(data, [SYSCALL_NUMBERS["write"]]) == \
            SECCOMP_RET_KILL


class TestRewriteRules:
    def test_no_filters_means_kill(self):
        rules = RewriteRules()
        assert rules.evaluate(1, [], [2]) == ACTION_KILL

    def test_allow_verdict(self):
        rules = RewriteRules([assemble_bpf(LISTING_1)])
        action = rules.evaluate(SYSCALL_NUMBERS["getuid"], [],
                                [SYSCALL_NUMBERS["getegid"]])
        assert action == ACTION_ALLOW
        assert rules.applied == 1

    def test_skip_verdict(self):
        skip_filter = assemble_bpf(
            f"ld event[0]\njeq #{SYSCALL_NUMBERS['getuid']}, s\n"
            f"ret #0\ns: ret #{NVX_RET_SKIP:#x}")
        rules = RewriteRules([skip_filter])
        action = rules.evaluate(SYSCALL_NUMBERS["getegid"], [],
                                [SYSCALL_NUMBERS["getuid"]])
        assert action == ACTION_SKIP

    def test_first_matching_filter_wins(self):
        allow_all = assemble_bpf(f"ret #{SECCOMP_RET_ALLOW:#x}")
        kill_all = assemble_bpf("ret #0")
        rules = RewriteRules([kill_all, allow_all])
        assert rules.evaluate(1, [], [2]) == ACTION_ALLOW
