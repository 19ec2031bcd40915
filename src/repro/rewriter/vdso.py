"""Virtual system call (vDSO) rewriting (§3.2.1).

vDSO functions execute entirely in user space, so ptrace-based monitors
cannot intercept them — yet they leak timing non-determinism into the
versions.  Varan patches the *entry point* of every vDSO function with a
jump to dynamically generated stub code that calls the shared system-call
entry point; a second trampoline preserves the original first
instructions so the monitor can still invoke the genuine fast
implementation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import RewriteError
from repro.isa.memory import Segment
from repro.isa.opcodes import BY_MNEMONIC
from repro.rewriter.patchset import KIND_VDSO, CallSite
from repro.rewriter.rewriter import _CALL_OP, _JMP_LEN, _JMP_OP, _rel32

_RET_OP = BY_MNEMONIC["ret"].opcode


def rewrite_vdso(rewriter, vdso_segment: Segment,
                 symbols: Dict[str, int]) -> List[CallSite]:
    """Patch every vDSO function entry in ``symbols`` (name → address).

    For each function we emit:

    * an *original-entry trampoline*: the function's first instructions
      (≥ 5 bytes worth) followed by a jump back to the continuation, so
      the genuine implementation stays invocable;
    * a *stub* that calls the shared entry point and returns to the
      application caller;

    and overwrite the function entry with ``JMP stub``.
    """
    entry = rewriter.install_entry_point()
    space = rewriter.space
    patchset = rewriter.patchset
    sites: List[CallSite] = []
    # One image for the whole pass: every prefix is read from the
    # function entries as they were before the first was redirected.
    image = vdso_segment.image()

    for name, addr in sorted(symbols.items(), key=lambda kv: kv[1]):
        if not vdso_segment.contains(addr):
            raise RewriteError(f"vDSO symbol {name} outside segment")
        offset = addr - vdso_segment.start
        prefix = image.prefix(offset, _JMP_LEN)
        continuation = prefix[-1].end

        # Original-entry trampoline: relocated prefix + jump back.
        orig_size = sum(i.length for i in prefix) + _JMP_LEN
        orig_addr = rewriter._alloc(orig_size)
        out = bytearray()
        for insn in prefix:
            if insn.branch_target() is not None:
                out += _rel32(insn.raw[0], orig_addr + len(out) + insn.length,
                              insn.branch_target())
            else:
                out += insn.raw
        out += _rel32(_JMP_OP, orig_addr + len(out) + _JMP_LEN, continuation)
        space.map(Segment(orig_addr, bytes(out), perms="rx",
                          name="varan.vdso_orig"))

        # Stub: call the shared entry point, then return to the caller.
        stub_addr = rewriter._alloc(6)
        stub = _rel32(_CALL_OP, stub_addr + 5, entry) + bytes([_RET_OP])
        space.map(Segment(stub_addr, stub, perms="rx", name="varan.vdso_stub"))

        # Redirect the function entry.
        space.patch_code(addr, _rel32(_JMP_OP, addr + _JMP_LEN, stub_addr))

        site = patchset.new_site(addr, KIND_VDSO, vdso_segment.name,
                                 vdso_symbol=name,
                                 original_entry_trampoline=orig_addr)
        patchset.by_return_addr[stub_addr + 5] = site
        patchset.stats.vdso_patched += 1
        sites.append(site)
    return sites
