"""VX86 image construction for simulated applications.

Every application carries a generated text segment whose system-call
sites mirror the app's syscall mix; the coordinator genuinely loads and
rewrites this image, and the resulting per-site patch kinds (JMP detour
vs INT0 fallback vs vDSO stub) decide the dispatch cost of each call the
application later makes at that site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import RewriteError
from repro.kernel.uapi import SYSCALL_NUMBERS

#: The virtual syscalls exposed through the vDSO segment, in layout order
#: (16 bytes per function).
VDSO_SYMBOLS = ("time", "gettimeofday", "clock_gettime", "getcpu")


@dataclass(frozen=True)
class SiteSpec:
    """One static system-call site in an application's text."""

    name: str
    syscall: str = "default"
    #: Emit surrounding code with a branch target inside the patch
    #: window, forcing the INT0 fallback (§3.2).
    force_int: bool = False
    #: This site is a call into the named vDSO function instead of a
    #: syscall instruction (§3.2.1).
    vdso: Optional[str] = None


@dataclass
class Image:
    """An ELF-like executable: source template + site metadata.

    The template contains ``{vdso_<symbol>}`` placeholders resolved by
    the loader once it knows where the kernel mapped the vDSO.
    """

    name: str
    source_template: str
    sites: List[SiteSpec] = field(default_factory=list)
    text_addr: int = 0x0040_0000
    interp: Optional[str] = "ld-linux.so"

    def render(self, vdso_symbols: Dict[str, int]) -> str:
        values = {f"vdso_{name}": addr
                  for name, addr in vdso_symbols.items()}
        try:
            return self.source_template.format(**values)
        except KeyError as exc:
            raise RewriteError(f"{self.name}: unresolved vDSO ref {exc}")


def site_label(name: str) -> str:
    return f"site_{name}"


def build_image(name: str, sites: List[SiteSpec]) -> Image:
    """Generate a realistic text image containing the given sites."""
    lines: List[str] = ["entry:"]
    for index, site in enumerate(sites):
        if site.vdso is not None:
            if site.vdso not in VDSO_SYMBOLS:
                raise RewriteError(f"unknown vDSO symbol {site.vdso!r}")
            lines += [
                f"movi rbx, {{vdso_{site.vdso}}}",
                f"{site_label(site.name)}:",
                "callr rbx",
                "mov rbx, rax",
            ]
            continue
        nr = SYSCALL_NUMBERS.get(site.syscall,
                                 SYSCALL_NUMBERS.get(site.name, 0))
        if site.force_int:
            # The instruction right after the syscall is a branch target,
            # so the 5-byte JMP cannot be placed: INT0 fallback.
            lines += [
                "movi rcx, 1",
                f"movi rax, {nr}",
                f"{site_label(site.name)}:",
                "syscall",
                f"after_{index}:",
                "nop",
                "nop",
                "nop",
                "nop",
                "subi rcx, 1",
                f"jnz after_{index}",
            ]
        else:
            lines += [
                f"movi rax, {nr}",
                f"{site_label(site.name)}:",
                "syscall",
                "mov rbx, rax",
                "nop",
                "nop",
                "nop",
            ]
    lines.append("hlt")
    return Image(name=name, source_template="\n".join(lines),
                 sites=list(sites))
