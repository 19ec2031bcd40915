"""Rewrite-rule engine: applying BPF filters to divergences (§2.3, §3.4).

When a follower's next system call does not match the head event of the
leader's stream, the monitor runs the installed filters over the pair
(follower's ``seccomp_data``, leader's event view) and acts on the
verdict:

* ``ALLOW`` — the follower executes its *additional* call locally and
  re-matches (the "addition" direction);
* ``SKIP``  — the leader's *extra* event is consumed and discarded and
  matching retries (the "removal/coalescing" direction);
* ``KILL``  — the divergence is fatal; the follower is terminated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bpf.insn import (
    NVX_RET_SKIP,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL,
)
from repro.bpf.interpreter import BpfProgram, pack_seccomp_data

ACTION_ALLOW = "allow"
ACTION_SKIP = "skip"
ACTION_KILL = "kill"

_ACTIONS = {
    SECCOMP_RET_ALLOW: ACTION_ALLOW,
    NVX_RET_SKIP: ACTION_SKIP,
    SECCOMP_RET_KILL: ACTION_KILL,
}


class RewriteRules:
    """An ordered set of BPF rewrite rules for one NVX session."""

    def __init__(self, filters: Optional[Sequence[BpfProgram]] = None):
        self.filters: List[BpfProgram] = list(filters or [])
        self.applied = 0  # divergences resolved, for stats

    def __len__(self) -> int:
        return len(self.filters)

    def total_insns(self) -> int:
        return sum(len(f) for f in self.filters)

    def evaluate(self, follower_nr: int, follower_args: Sequence[int],
                 event_words: Sequence[int]) -> str:
        """Return ACTION_ALLOW / ACTION_SKIP / ACTION_KILL.

        Filters run in order; the first one returning a recognised
        non-KILL verdict wins.  With no filters installed, every
        divergence is fatal — the classical NVX behaviour.
        """
        data = pack_seccomp_data(follower_nr, args=follower_args)
        for program in self.filters:
            verdict = _ACTIONS.get(program.run(data, event_words))
            if verdict in (ACTION_ALLOW, ACTION_SKIP):
                self.applied += 1
                return verdict
        return ACTION_KILL
