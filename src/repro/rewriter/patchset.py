"""Bookkeeping for rewritten system-call sites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Dispatch kinds a call site can end up with after rewriting.
KIND_JMP = "jmp"  # patched with a 5-byte jump into a detour trampoline
KIND_INT = "int"  # replaced in place with the 1-byte INT0 fallback
KIND_VDSO = "vdso"  # vDSO function entry redirected to a generated stub


@dataclass
class CallSite:
    """One rewritten system-call (or vDSO) site."""

    site_id: int
    addr: int  # address of the original syscall / function entry
    kind: str
    segment_name: str
    trampoline_addr: Optional[int] = None
    #: For vDSO sites: the symbol name and the trampoline that invokes the
    #: original implementation (so the leader can still use the fast path).
    vdso_symbol: Optional[str] = None
    original_entry_trampoline: Optional[int] = None


@dataclass
class RewriteStats:
    """Counters reported by the rewriter (useful in tests and logs)."""

    segments_scanned: int = 0
    bytes_scanned: int = 0
    sites_found: int = 0
    jmp_patched: int = 0
    int_patched: int = 0
    vdso_patched: int = 0
    relocated_insns: int = 0


class PatchSet:
    """All call sites rewritten within one address space."""

    def __init__(self) -> None:
        self.sites: List[CallSite] = []
        self.by_addr: Dict[int, CallSite] = {}
        #: Return address (pushed by the trampoline's CALL into the entry
        #: point) → site.  This is how the shared entry point identifies
        #: which site trapped, mirroring Varan's per-site dispatch.
        self.by_return_addr: Dict[int, CallSite] = {}
        #: RIP after an INT0 → site, for the interrupt fallback path.
        self.by_int_rip: Dict[int, CallSite] = {}
        self.stats = RewriteStats()
        self._next_id = 0

    def new_site(self, addr: int, kind: str, segment_name: str,
                 **kwargs) -> CallSite:
        site = CallSite(site_id=self._next_id, addr=addr, kind=kind,
                        segment_name=segment_name, **kwargs)
        self._next_id += 1
        self.sites.append(site)
        self.by_addr[addr] = site
        return site

    def site_for_return_addr(self, ret_addr: int) -> Optional[CallSite]:
        return self.by_return_addr.get(ret_addr)

    def site_for_int_rip(self, rip: int) -> Optional[CallSite]:
        return self.by_int_rip.get(rip)
