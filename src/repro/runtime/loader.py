"""Loader: maps a version's image, the vDSO and the monitor library into
a fresh address space and runs the binary rewriter over everything —
the monitor-side half of Figure 2's per-version setup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa.assembler import assemble, assemble_with_symbols
from repro.isa.memory import AddressSpace, Segment
from repro.rewriter.patchset import KIND_VDSO
from repro.rewriter.rewriter import BinaryRewriter
from repro.rewriter.vdso import rewrite_vdso
from repro.runtime.image import Image, VDSO_SYMBOLS, site_label

#: Each vDSO function occupies one 16-byte slot.
_VDSO_SLOT = 16


def build_vdso_source() -> str:
    lines = []
    for index, symbol in enumerate(VDSO_SYMBOLS):
        lines.append(f"{symbol}:")
        lines.append(f"vsys {index}")
        lines.append("ret")
        lines += ["nop"] * (_VDSO_SLOT - 3)
    return "\n".join(lines)


@dataclass
class LoadedImage:
    """Result of loading + rewriting one version."""

    image: Image
    space: AddressSpace
    rewriter: BinaryRewriter
    entry: int
    stack_top: int
    vdso_symbols: Dict[str, int]
    site_addrs: Dict[str, int]
    #: site name → dispatch kind ('jmp' | 'int' | 'vdso'), consumed by
    #: the task's syscall gate.
    patch_kinds: Dict[str, str]

    def make_cpu(self, name: str = "cpu"):
        """Convenience: a Cpu positioned at this image's entry point.

        Created *after* rewriting, so the translation cache sees the
        patched text from the start; later patches are caught by the
        segment-version invalidation instead.
        """
        from repro.isa.cpu import Cpu
        return Cpu(self.space, self.entry, self.stack_top, name=name)


def load_image(image: Image, seed: int = 0) -> LoadedImage:
    """Load one version and selectively rewrite it (§3.1-§3.2)."""
    space = AddressSpace()
    rewriter = BinaryRewriter(space, auto=False)
    rewriter.install_entry_point()

    # Map the vDSO at a (mildly) randomised address — the kernel hands
    # its base over via AT_SYSINFO_EHDR (§3.2.1).
    vdso_base = 0x6000_0000 + (seed % 64) * 0x1000
    vdso_code = assemble(build_vdso_source(), origin=vdso_base)
    vdso_segment = space.map(Segment(vdso_base, vdso_code, perms="rx",
                                     name="vdso"))
    vdso_symbols = {name: vdso_base + i * _VDSO_SLOT
                    for i, name in enumerate(VDSO_SYMBOLS)}

    # Assemble and map the text segment, then rewrite it.
    source = image.render(vdso_symbols)
    code, labels = assemble_with_symbols(source, origin=image.text_addr)
    text = space.map(Segment(image.text_addr, code, perms="rx", name="text"))

    stack_top = 0x7FFF_0000
    space.map(Segment(stack_top - 0x4000, bytes(0x4000), perms="rw",
                      name="stack"))

    rewriter.rewrite_segment(text)
    rewrite_vdso(rewriter, vdso_segment, vdso_symbols)

    site_addrs: Dict[str, int] = {}
    patch_kinds: Dict[str, str] = {}
    for site in image.sites:
        if site.vdso is not None:
            patch_kinds[site.name] = KIND_VDSO
            site_addrs[site.name] = labels.get(site_label(site.name), -1)
            continue
        addr = labels[site_label(site.name)]
        site_addrs[site.name] = addr
        patched = rewriter.patchset.by_addr.get(addr)
        if patched is not None:
            patch_kinds[site.name] = patched.kind
    entry = labels.get("entry", image.text_addr)
    loaded = LoadedImage(image=image, space=space, rewriter=rewriter,
                         entry=entry, stack_top=stack_top,
                         vdso_symbols=vdso_symbols, site_addrs=site_addrs,
                         patch_kinds=patch_kinds)
    # Pre-translate the entry block of the rewritten text: catches a
    # rewriter patch that left undecodable bytes on the entry path at
    # load time rather than first dispatch, and surfaces real
    # translation activity in the `tcache.*` sweep metrics.
    check_cpu = loaded.make_cpu(name=f"{image.name}-loadcheck")
    check_cpu.tcache.lookup(check_cpu)
    return loaded
