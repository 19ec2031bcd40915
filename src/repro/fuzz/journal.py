"""The fuzzer's divergence journal: deduplicated, content-hashed,
byte-identical per seed.

Every scenario run reduces to a stream of ``(kind, detail)`` records —
fatal divergences, crashes, promotions, ring faults, output mismatches,
invariant violations, deadlocks, synthesized rules.  The journal keeps
the *novel* ones (first occurrence of each content hash) in discovery
order and counts the duplicates, following the record-and-replay
motivation (PAPERS.md): a divergence that cannot be named, hashed and
replayed is a divergence that will be rediscovered forever.

Determinism contract: a record's detail must derive from sim state and
seeds only (no wall clock, no ``id()``/``repr`` of live objects), so
``Journal.render()`` is byte-identical across runs of one seed — CI
``cmp``s two runs to enforce it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.obs import metrics as obs_metrics

__all__ = ["JournalEntry", "Journal", "FuzzStats"]

#: Canonical order of record kinds in the journal footer; a kind absent
#: from a run still renders (count 0) so footers stay fixed-shape.
KINDS = ("divergence", "crash", "promotion", "ring-fault", "mismatch",
         "deadlock", "violation", "rule-synthesis")


class FuzzStats:
    """One campaign's fuzz counters; its :class:`Journal` owns them and
    reports them to the metrics drain."""

    __slots__ = ("scenarios", "novel", "duplicates", "divergences",
                 "crashes", "rules_synthesized", "rules_absorbed")

    def __init__(self) -> None:
        self.scenarios = 0
        self.novel = 0
        self.duplicates = 0
        self.divergences = 0
        self.crashes = 0
        self.rules_synthesized = 0
        self.rules_absorbed = 0

    def as_dict(self) -> Dict[str, int]:
        return {f"fuzz.{name}": getattr(self, name)
                for name in self.__slots__}


def _digest(kind: str, detail: str) -> str:
    h = hashlib.sha256(f"{kind}|{detail}".encode())
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class JournalEntry:
    """One novel finding: a content-hashed (kind, detail) pair plus the
    index of the scenario that first produced it."""

    kind: str
    detail: str
    scenario: int

    @property
    def digest(self) -> str:
        return _digest(self.kind, self.detail)

    def render(self) -> str:
        return (f"  [{self.digest}] {self.kind}: {self.detail} "
                f"(scenario {self.scenario})")


@dataclass
class Journal:
    """Deduplicated findings for one fuzz run."""

    seed: int
    budget: int
    entries: List[JournalEntry] = field(default_factory=list)
    stats: FuzzStats = field(default_factory=FuzzStats)
    _seen: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        obs_metrics.register(self)

    def metrics_snapshot(self) -> dict:
        return {"counters": self.stats.as_dict()}

    def record(self, kind: str, detail: str, scenario: int) -> bool:
        """Record a finding; returns True when it is novel."""
        digest = _digest(kind, detail)
        if digest in self._seen:
            self.stats.duplicates += 1
            return False
        self._seen.add(digest)
        self.entries.append(JournalEntry(kind, detail, scenario))
        self.stats.novel += 1
        return True

    def kinds(self) -> Tuple[str, ...]:
        """Distinct kinds found, in canonical order."""
        present = {entry.kind for entry in self.entries}
        return tuple(kind for kind in KINDS if kind in present)

    def counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in KINDS}
        for entry in self.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    def render(self) -> str:
        """The canonical journal text (byte-identical per seed)."""
        lines = [f"# fuzz seed={self.seed} budget={self.budget}"]
        lines.extend(entry.render() for entry in self.entries)
        counts = self.counts()
        summary = " ".join(f"{kind}={counts[kind]}" for kind in KINDS)
        lines.append(f"classes: {summary}")
        lines.append(f"total: {len(self.entries)} novel entries, "
                     f"{self.stats.duplicates} duplicates, "
                     f"{len(self.kinds())} distinct classes")
        return "\n".join(lines) + "\n"
