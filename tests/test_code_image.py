"""Code images: one decoded representation of executable bytes.

Three groups: unit tests of ``CodeImage`` / ``ImageStore`` / the
memoised assembler; a stale-image oracle (seeded random walk over three
address spaces mapping the same bytes, every ``segment.image().at()``
compared with a fresh ``decode_one`` of the segment's current bytes);
and decode-once accounting under ``NvxSession`` with the simulation's
observables compared between cold-store, warm-store and cleared-store
runs.
"""

import random

import pytest

from repro.core import NvxSession, VersionSpec
from repro.costmodel import DEFAULT_COSTS
from repro.errors import (
    AssemblyError,
    DisassemblyError,
    ExecutionFault,
    RewriteError,
)
from repro.isa import (
    AddressSpace,
    CodeImage,
    Cpu,
    Segment,
    assemble,
    branch_targets,
    decode_one,
)
from repro.isa import assembler, disassembler, memory, translator
from repro.isa.assembler import assemble_with_symbols
from repro.isa.disassembler import IMAGE_STORE_BYTES, ImageStore
from repro.isa.opcodes import REG_INDEX
from repro.kernel.uapi import SYSCALL_NAMES, Syscall
from repro.obs import metrics as obs_metrics
from repro.rewriter import (
    BinaryRewriter,
    make_int0_handler,
    make_vmcall_handler,
)
from repro.runtime.image import SiteSpec, build_image
from repro.world import World

TEXT = 0x1000
ALT_TEXT = 0x3000
DATA = 0x8000
DRIVER = 0x9000
STACK_TOP = 0x20000

PROGRAM = """
entry:
    movi rbx, 4
loop:
    movi rax, 39
    syscall
    add rcx, rax
    nop
    nop
    nop
    subi rbx, 1
    jnz loop
    jz tail
    movi rax, 102
tail:
    syscall
    load rdx, [rsp+0]
    store [rsp+8], rdx
    push rdx
    pop rsi
    call entry
    hlt
"""


@pytest.fixture(autouse=True)
def store(monkeypatch):
    """Each test runs against its own empty process-wide store."""
    fresh = ImageStore(IMAGE_STORE_BYTES)
    monkeypatch.setattr(memory, "IMAGE_STORE", fresh)
    assembler._assemble.cache_clear()
    yield fresh
    assembler._assemble.cache_clear()


def held(store):
    """The images ``store`` holds, least recently used first."""
    return list(store._images.values())


def disassemble(code, base_addr=0):
    """Every instruction of ``code`` from :func:`decode_one` alone: an
    oracle that shares no memo with :class:`CodeImage`."""
    insns, offset = [], 0
    while offset < len(code):
        insns.append(decode_one(code, offset, base_addr))
        offset += insns[-1].length
    return insns


@pytest.fixture
def decode_log(monkeypatch):
    """Every ``decode_one`` call made through the module, as
    ``(base, code, offset)`` — the counting wrapper of the issue."""
    calls = []
    real = disassembler.decode_one

    def counting(code, offset, base_addr=0):
        calls.append((base_addr, bytes(code), offset))
        return real(code, offset, base_addr)

    monkeypatch.setattr(disassembler, "decode_one", counting)
    return calls


@pytest.fixture
def shape_log(monkeypatch):
    """Every superblock formed, as ``(base, code, rip, limit, shape)``."""
    formed = []
    real = translator.form_superblock

    def recording(image, rip, limit):
        shape = real(image, rip, limit)
        formed.append((image.base, image.code, rip, limit, shape))
        return shape

    monkeypatch.setattr(translator, "form_superblock", recording)
    return formed


def outcome(fn, *args):
    """``("ok", insn)`` or ``("err", type, text)`` — what a decode did."""
    try:
        return ("ok", fn(*args))
    except (DisassemblyError, ExecutionFault) as exc:
        return ("err", type(exc), str(exc))


# -- CodeImage ---------------------------------------------------------------


class TestDecodeOne:
    def test_negative_offset_is_an_error_not_a_wraparound(self):
        code = assemble("nop\nhlt")
        with pytest.raises(DisassemblyError, match="before start"):
            decode_one(code, -1)
        with pytest.raises(DisassemblyError, match="before start"):
            CodeImage(0, code).at(-1)


class TestCodeImage:
    def test_at_is_decode_one_memoised(self, decode_log):
        code = assemble(PROGRAM, origin=TEXT)
        image = CodeImage(TEXT, code)
        first = image.at(10)
        assert first == decode_one(code, 10, TEXT)
        assert image.at(10) is first
        assert [c[2] for c in decode_log] == [10]

    def test_offsets_between_sweep_boundaries_decode_too(self):
        # The translator follows control flow, not the linear sweep.
        code = assemble("movi rax, 0x9090909090\nhlt")
        image = CodeImage(0, code)
        assert [i.mnemonic for i in image.sweep()] == ["movi", "hlt"]
        assert image.at(3) == decode_one(code, 3)
        assert image.at(3) not in image.sweep()

    def test_errors_are_raised_afresh_and_never_stored(self, decode_log):
        code = assemble("nop") + b"\x07" + assemble("movi rax, 1")[:-2]
        image = CodeImage(0x40, code)
        for offset in (1, 2, len(code), len(code) + 5):
            expected = outcome(decode_one, code, offset, 0x40)
            assert expected[0] == "err"
            del decode_log[:]
            with pytest.raises(DisassemblyError) as one:
                image.at(offset)
            with pytest.raises(DisassemblyError) as two:
                image.at(offset)
            assert one.value is not two.value
            assert ("err", type(two.value), str(two.value)) == expected
            assert [c[2] for c in decode_log] == [offset, offset]

    def test_sweep_is_one_shared_tuple(self, decode_log):
        code = assemble(PROGRAM, origin=TEXT)
        image = CodeImage(TEXT, code)
        sweep = image.sweep()
        assert isinstance(sweep, tuple)
        assert image.sweep() is sweep
        assert list(sweep) == disassemble(code, TEXT)
        # Sweep then read: each offset was decoded once between them.
        count = len(decode_log)
        for insn in sweep:
            assert image.at(insn.addr - TEXT) is insn
        assert len(decode_log) == count

    def test_sweep_raises_on_undecodable_bytes_every_time(self):
        image = CodeImage(0, assemble("nop") + b"\x07")
        for _ in range(2):
            with pytest.raises(DisassemblyError, match="undecodable"):
                image.sweep()
        assert image.at(0).mnemonic == "nop"

    def test_targets_and_syscall_sites(self):
        code = assemble(PROGRAM, origin=TEXT)
        image = CodeImage(TEXT, code)
        insns = disassemble(code, TEXT)
        assert image.targets() == frozenset(branch_targets(insns))
        assert isinstance(image.targets(), frozenset)
        assert image.targets() is image.targets()
        assert image.syscall_sites() == tuple(
            i for i, insn in enumerate(insns) if insn.mnemonic == "syscall")
        assert len(image.syscall_sites()) == 2

    def test_prefix_covers_at_least_nbytes(self):
        code = assemble("nop\nnop\nmovi rax, 1\nhlt", origin=TEXT)
        image = CodeImage(TEXT, code)
        assert [i.mnemonic for i in image.prefix(0, 5)] == [
            "nop", "nop", "movi"]
        assert [i.mnemonic for i in image.prefix(1, 1)] == ["nop"]
        with pytest.raises(DisassemblyError):
            image.prefix(len(code) - 1, 5)


# -- the store ---------------------------------------------------------------


def _distinct_code(index, size=64):
    """``size`` bytes of decodable code unlike any other index's."""
    body = assemble(f"movi rax, {index}")
    return body + assemble("nop") * (size - len(body))


class TestImageStore:
    def test_same_base_and_bytes_share_one_image(self):
        store = ImageStore(1024)
        code = _distinct_code(1)
        assert store.get(TEXT, code) is store.get(TEXT, bytes(code))
        assert len(held(store)) == 1 and store.nbytes == len(code)

    def test_base_address_is_part_of_the_key(self):
        store = ImageStore(1024)
        code = assemble("jmp 0\nhlt")
        low, high = store.get(TEXT, code), store.get(ALT_TEXT, code)
        assert low is not high
        assert low.at(0).addr == TEXT and high.at(0).addr == ALT_TEXT
        assert low.targets() != high.targets()

    def test_never_exceeds_its_byte_budget_and_evicts_lru(self):
        store = ImageStore(256)
        images = [store.get(TEXT, _distinct_code(i)) for i in range(4)]
        assert store.nbytes == 256 and held(store) == images
        store.get(TEXT, _distinct_code(0))          # touch the oldest
        newest = store.get(TEXT, _distinct_code(4))  # evicts index 1
        assert store.nbytes == 256
        assert held(store) == [images[2], images[3], images[0], newest]
        for index in range(5, 40):
            store.get(TEXT, _distinct_code(index, size=48 + index))
            assert store.nbytes <= store.budget
            assert store.nbytes == sum(len(i.code) for i in held(store))

    def test_image_larger_than_the_budget_is_served_privately(self):
        store = ImageStore(100)
        small = store.get(TEXT, _distinct_code(1))
        code = _distinct_code(7, size=101)
        image = store.get(TEXT, code)
        assert image.at(0) == decode_one(code, 0, TEXT)
        assert store.get(TEXT, code) is not image
        # ... and costs the images that do fit nothing.
        assert held(store) == [small] and store.nbytes == 64

    def test_eviction_does_not_invalidate_a_held_image(self, store):
        store.budget = 128
        space = AddressSpace()
        code = _distinct_code(0)
        text = space.map(Segment(TEXT, code, perms="rx", name="text"))
        image = text.image()
        assert image in held(store)
        for index in range(1, 6):
            store.get(TEXT, _distinct_code(index))
        assert image not in held(store)
        assert text.image() is image
        assert image.at(0) == decode_one(code, 0, TEXT)
        assert store.nbytes <= 128


class TestSegmentImage:
    def test_cached_per_version(self):
        space = AddressSpace()
        text = space.map(Segment(TEXT, assemble("nop\nnop\nhlt"),
                                 perms="rx", name="text"))
        before = text.image()
        assert text.image() is before
        space.patch_code(TEXT + 1, assemble("hlt"))
        after = text.image()
        assert after is not before
        assert before.at(1).mnemonic == "nop"   # the old snapshot stands
        assert after.at(1).mnemonic == "hlt"

    def test_non_writable_segments_share_across_spaces(self, store):
        code = assemble(PROGRAM, origin=TEXT)
        segments = [AddressSpace().map(Segment(TEXT, code, perms=perms))
                    for perms in ("rx", "rx", "r")]
        assert len({id(s.image()) for s in segments}) == 1
        assert len(held(store)) == 1

    def test_writable_segments_are_private_and_skip_the_store(self, store):
        code = assemble(PROGRAM, origin=TEXT)
        first = AddressSpace().map(Segment(TEXT, code, perms="rwx"))
        second = AddressSpace().map(Segment(TEXT, code, perms="rwx"))
        assert first.image() is not second.image()
        assert held(store) == []

    def test_a_patch_in_one_space_is_invisible_to_the_other(self):
        code = assemble("nop\nnop\nhlt", origin=TEXT)
        one, two = AddressSpace(), AddressSpace()
        a = one.map(Segment(TEXT, code, perms="rx"))
        b = two.map(Segment(TEXT, code, perms="rx"))
        assert a.image() is b.image()
        one.patch_code(TEXT, assemble("hlt"))
        assert a.image().at(0).mnemonic == "hlt"
        assert b.image().at(0).mnemonic == "nop"


# -- the memoised assembler --------------------------------------------------


class TestAssemblerMemo:
    SOURCE = "start:\nmovi rax, end\njmp start\nend:\nhlt"

    def test_equal_but_distinct_label_dicts(self):
        code1, labels1 = assemble_with_symbols(self.SOURCE, origin=TEXT)
        labels1["start"] = -1
        labels1["junk"] = 0
        code2, labels2 = assemble_with_symbols(self.SOURCE, origin=TEXT)
        assert code1 == code2 == assemble(self.SOURCE, origin=TEXT)
        assert labels2 is not labels1
        assert labels2 == {"start": TEXT, "end": TEXT + 15}
        assert assembler._assemble.cache_info().hits >= 2

    def test_origin_is_part_of_the_key(self):
        _, low = assemble_with_symbols(self.SOURCE, origin=TEXT)
        _, high = assemble_with_symbols(self.SOURCE, origin=ALT_TEXT)
        assert high["end"] - low["end"] == ALT_TEXT - TEXT
        assert assemble(self.SOURCE, TEXT) != assemble(self.SOURCE, ALT_TEXT)

    def test_assembly_errors_are_not_cached(self):
        errors = []
        for _ in range(2):
            with pytest.raises(AssemblyError, match="undefined label") as e:
                assemble("jmp nowhere")
            errors.append(e.value)
        assert errors[0] is not errors[1]
        assert assembler._assemble.cache_info().currsize == 0


# -- stale-image oracle ------------------------------------------------------


class _ImageWalk:
    """Three address spaces mapping the same bytes — plain rx, rx with
    the rewriter's patches applied, and rwx — mutated one random
    operation at a time.  After every step each text segment's image is
    compared, at sampled offsets, with a fresh ``decode_one`` of the
    bytes the segment holds *now*; segments the step did not touch must
    still hold the very same image over the very same bytes; and the
    rwx segment's image may never be in the shared store.
    """

    PERMS = ("rx", "rx", "rwx")
    #: One guest store to ``[rcx+0]`` — through a micro-op closure, or a
    #: fused body when the fuse threshold is forced to 1.
    DRIVER_SOURCE = "store [rcx+0], rdx\nhlt"

    def __init__(self) -> None:
        code = self.code = assemble(PROGRAM, origin=TEXT)
        self.size = len(code)
        self.spaces = []
        self.texts = []
        for perms in self.PERMS:
            space = AddressSpace()
            self.texts.append(
                space.map(Segment(TEXT, code, perms=perms, name="text")))
            space.map(Segment(DATA, bytes(0x100), perms="rw", name="data"))
            space.map(Segment(DRIVER, assemble(self.DRIVER_SOURCE,
                                               origin=DRIVER),
                              perms="rx", name="driver"))
            space.map(Segment(STACK_TOP - 0x1000, bytes(0x1000),
                              perms="rw", name="stack"))
            self.spaces.append(space)
        BinaryRewriter(self.spaces[1], auto=False).rewrite_segment(
            self.texts[1])
        assert self.texts[1].version > 0
        self.ops = [getattr(self, name) for name in sorted(dir(self))
                    if name.startswith("op_")]

    # -- one step ----------------------------------------------------------

    def step(self, rng, op=None, index=None) -> None:
        if index is None:
            index = rng.randrange(len(self.spaces))
        if op is None:
            op = rng.randrange(len(self.ops))
        before = [(text, text.image(), bytes(text.data))
                  for text in self.texts]
        self.ops[op](rng, index)
        for other, (text, image, data) in enumerate(before):
            if other != index:
                assert self.texts[other] is text
                assert text.image() is image
                assert bytes(text.data) == data
        self.check(rng)

    def check(self, rng) -> None:
        store = memory.IMAGE_STORE
        shared = held(store)
        assert store.nbytes == sum(len(i.code) for i in shared)
        for text, perms in zip(self.texts, self.PERMS):
            image = text.image()
            if perms == "rwx":
                assert all(image is not held for held in shared)
            data = bytes(text.data)
            offsets = [-1, 0, self.size - 1, self.size, self.size + 3]
            offsets += [rng.randrange(self.size) for _ in range(12)]
            for offset in offsets:
                assert (outcome(image.at, offset)
                        == outcome(decode_one, data, offset, text.start))
            fresh = outcome(disassemble, data, text.start)
            assert outcome(lambda: list(image.sweep())) == fresh
            if fresh[0] == "ok":
                assert image.targets() == branch_targets(fresh[1])
                assert [fresh[1][i].mnemonic
                        for i in image.syscall_sites()] == [
                    "syscall"] * sum(i.mnemonic == "syscall"
                                     for i in fresh[1])

    def _addr(self, rng, index, span=1) -> int:
        return self.texts[index].start + rng.randrange(self.size - span + 1)

    # -- operations --------------------------------------------------------

    def op_write(self, rng, index) -> None:
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
        try:
            self.spaces[index].write(self._addr(rng, index, len(data)), data)
        except ExecutionFault:
            assert not self.texts[index].w_ok

    def op_write_u64(self, rng, index) -> None:
        space = self.spaces[index]
        addr = self._addr(rng, index, 8)
        if rng.random() < 0.5:
            space.find(addr)  # prime the page cache: take the fast path
        try:
            space.write_u64(addr, rng.getrandbits(64))
        except ExecutionFault:
            assert not self.texts[index].w_ok

    def op_patch_code(self, rng, index) -> None:
        patch = rng.choice((assemble("nop"), assemble("int0"),
                            assemble("jmp 0"), assemble("hlt") * 3))
        self.spaces[index].patch_code(
            self._addr(rng, index, len(patch)), patch)

    def op_bitflip(self, rng, index) -> None:
        assert self.spaces[index].bitflip(self._addr(rng, index),
                                          rng.randrange(8))

    def op_mprotect(self, rng, index) -> None:
        # The rewriter's re-protection cycle; W^X keeps "rwx" out, so the
        # self-modifying space stays as it was mapped.
        if self.PERMS[index] == "rwx":
            with pytest.raises(RewriteError):
                self.spaces[index].mprotect(self.texts[index], "rwx")
            return
        self.spaces[index].mprotect(self.texts[index],
                                    rng.choice(("rx", "rw", "r")))

    def op_remap(self, rng, index) -> None:
        """unmap + map a *new* segment (version 0 again) holding the
        pristine bytes or another space's current ones, at the usual
        base or a different one."""
        space = self.spaces[index]
        space.unmap(self.texts[index])
        code = rng.choice([self.code] * 3
                          + [bytes(text.data) for text in self.texts])
        base = rng.choice((TEXT, TEXT, ALT_TEXT))
        self.texts[index] = space.map(Segment(
            base, code, perms=self.PERMS[index], name="text"))

    def op_guest_store(self, rng, index) -> None:
        space = self.spaces[index]
        cpu = Cpu(space, DRIVER, STACK_TOP, name="driver")
        if rng.random() < 0.5:
            cpu.tcache.fuse_threshold = 1
        target = (self._addr(rng, index, 8) if rng.random() < 0.7
                  else DATA + 8 * rng.randrange(8))
        if rng.random() < 0.5:
            space.find(target)
        cpu.regs[REG_INDEX["rcx"]] = target
        cpu.regs[REG_INDEX["rdx"]] = rng.getrandbits(64)
        try:
            cpu.run_sync()
        except ExecutionFault:
            assert not space.find(target).w_ok


class TestStaleImageOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_walk_matches_fresh_decode(self, seed):
        rng = random.Random(seed)
        walk = _ImageWalk()
        walk.check(rng)
        for _ in range(300):
            walk.step(rng)

    @pytest.mark.slow
    def test_stateful_walk_matches_fresh_decode(self, monkeypatch):
        from hypothesis import settings
        from hypothesis import strategies as st
        from hypothesis.stateful import (
            RuleBasedStateMachine,
            rule,
            run_state_machine_as_test,
        )

        class ImageWalk(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                monkeypatch.setattr(memory, "IMAGE_STORE",
                                    ImageStore(IMAGE_STORE_BYTES))
                self.walk = _ImageWalk()

            # Hypothesis picks (and shrinks) which operation hits
            # which space; its details come from a drawn seed.
            @rule(op=st.integers(0, 6), index=st.integers(0, 2),
                  seed=st.integers(0, 2 ** 32 - 1))
            def step(self, op, index, seed):
                assert len(self.walk.ops) == 7
                self.walk.step(random.Random(seed), op, index)

        run_state_machine_as_test(ImageWalk, settings=settings(
            max_examples=200, stateful_step_count=60, deadline=None))


# -- decode-once accounting and isolation ------------------------------------

GUEST = """
    movi rbx, 3
again:
    movi rax, 39      ; getpid
    syscall
    add rcx, rax
    nop
    nop
    nop
    movi rax, 102     ; getuid
    syscall
    add rcx, rax
    subi rbx, 1
    jnz again
    mov rax, rcx
    hlt
"""


def _guest_main(ctx):
    """Map, rewrite and run GUEST, syscalls bridged to the task's gate
    (the shape of bench's ``guest_isa``)."""
    task = ctx.task
    space = AddressSpace()
    rewriter = BinaryRewriter(space, auto=False)
    rewriter.install_entry_point()
    text = space.map(Segment(TEXT, assemble(GUEST, origin=TEXT),
                             perms="rx", name="text"))
    space.map(Segment(STACK_TOP - 0x2000, bytes(0x2000), perms="rw",
                      name="stack"))
    rewriter.rewrite_segment(text)
    cpu = Cpu(space, entry=TEXT, stack_top=STACK_TOP)

    def dispatch(cpu_, site):
        call = Syscall(SYSCALL_NAMES.get(cpu_.get("rax")),
                       site=f"isa_{site.site_id}")
        result = yield from task.gate.dispatch(call)
        return result.retval

    cpu.vmcall_handler = make_vmcall_handler(rewriter.patchset, dispatch)
    cpu.int0_handler = make_int0_handler(rewriter.patchset, dispatch,
                                         DEFAULT_COSTS)
    value = yield from cpu.run()
    return value, cpu.insns_retired, cpu.cycles, vars(rewriter.patchset.stats)


def _run_session():
    """One NvxSession of three variants, each loading the same image
    through the loader and then running the same rewritten guest code;
    returns everything a simulation can observe about it."""
    image = build_image("app", [
        SiteSpec("read", "read"), SiteSpec("write", "write"),
        SiteSpec("time", "time", vdso="time"), SiteSpec("close", "close")])
    obs_metrics.start_collection()
    world = World()
    session = NvxSession(world, [
        VersionSpec(f"v{i}", _guest_main, image=image)
        for i in range(3)]).start()
    world.run()
    return {
        "results": [v.root_task.threads[0].result for v in session.variants],
        "rewrite_stats": [vars(v.rewrite_stats) for v in session.variants],
        "patch_kinds": [v.patch_kinds for v in session.variants],
        "now": world.sim.now,
        "events": world.sim.events_processed,
        "metrics": obs_metrics.drain(),
    }


class TestDecodeOnce:
    def test_three_variants_decode_each_offset_once(self, decode_log):
        observed = _run_session()
        assert observed["results"][0] == observed["results"][1] == (
            observed["results"][2])
        assert observed["metrics"]["counters"]["tcache.misses"] > 3
        assert len(decode_log) > 0
        # Not once per variant, not once for the sweep and again for
        # the translation: once per distinct (bytes, offset).
        assert len(set(decode_log)) == len(decode_log)
        # The leader's work covers the followers': all three map the
        # same text at the same address.
        text_decodes = [c for c in decode_log if c[0] == TEXT]
        assert len({c[1] for c in text_decodes}) == 2  # as mapped, patched

    def test_second_identical_session_decodes_nothing(self, decode_log):
        _run_session()
        assert decode_log
        del decode_log[:]
        _run_session()
        assert decode_log == []

    def test_observables_do_not_depend_on_the_store(self, monkeypatch,
                                                    shape_log):
        cold = _run_session()
        formed = shape_log[:]
        del shape_log[:]
        warm = _run_session()
        assert shape_log == []  # every shape was already on its image
        monkeypatch.setattr(memory, "IMAGE_STORE",
                            ImageStore(IMAGE_STORE_BYTES))
        cleared = _run_session()
        assert cold["metrics"]["counters"]["tcache.blocks_translated"] > 0
        assert cold["rewrite_stats"][0]["sites_found"] > 0
        assert cold == warm == cleared
        # Three variants, each shape formed once, and formed alike again
        # after the store was cleared.
        assert formed and shape_log == formed
        assert len({entry[:4] for entry in formed}) == len(formed)
        assert len(formed) < (
            cold["metrics"]["counters"]["tcache.blocks_translated"])

    def test_observables_do_not_depend_on_the_budget(self, monkeypatch,
                                                     shape_log):
        roomy = _run_session()
        formed = shape_log[:]
        del shape_log[:]
        empty = ImageStore(0)  # nothing is shared
        monkeypatch.setattr(memory, "IMAGE_STORE", empty)
        private = _run_session()
        assert held(empty) == []
        assert roomy == private
        # Private images: every translation forms its shape afresh, and
        # forms the same shapes the shared images held.
        translated = private["metrics"]["counters"]["tcache.blocks_translated"]
        assert len(shape_log) == translated > len(formed)
        assert {entry[:4]: entry[4] for entry in shape_log} == {
            entry[:4]: entry[4] for entry in formed}
