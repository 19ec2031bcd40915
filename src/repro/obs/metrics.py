"""Deterministic metrics: counters, gauges and histograms.

Sessions, translation caches and fuzz journals expose a
``metrics_snapshot()`` built on demand from the counters they already
keep (``SessionStats``, ``RingStats``, each ``NetRing``'s ``NetStats``,
``CacheStats``, ``FuzzStats``, per-monitor wait accounting) — nothing
on the syscall hot path is touched.  A snapshot is a plain JSON-able
dict, and snapshots merge associatively so the sweep runner can
combine per-point fragments in canonical point order and get the same
numbers whether the points ran serially or over a process pool.

The module also carries the per-process collection registry the sweep
runner drives: :func:`start_collection` arms it, each of those owners
registers itself at construction, and :func:`drain` snapshots + merges
every registered one.  Worker processes run points one at a time, so
the registry needs no locking.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class Histogram:
    """Power-of-two-bucketed histogram; mergeable and deterministic."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket exponent → observation count; value v lands in bucket
        #: ``v.bit_length()`` (0 for v <= 0).
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def snapshot(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class MetricsRegistry:
    """A named bag of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_max(self, name: str, value) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def snapshot(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: hist.snapshot() for name, hist
                           in sorted(self.histograms.items())},
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge snapshot dicts: counters sum, gauges keep the max,
    histograms combine bucket-wise.  Associative and commutative up to
    key ordering, which is normalised by sorting — so fragment merge
    order cannot change the result."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            current = gauges.get(name)
            if current is None or value > current:
                gauges[name] = value
        for name, hist in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "count": hist["count"], "total": hist["total"],
                    "min": hist["min"], "max": hist["max"],
                    "buckets": dict(hist["buckets"]),
                }
                continue
            merged["count"] += hist["count"]
            merged["total"] += hist["total"]
            if hist["min"] is not None and (merged["min"] is None
                                            or hist["min"] < merged["min"]):
                merged["min"] = hist["min"]
            if hist["max"] is not None and (merged["max"] is None
                                            or hist["max"] > merged["max"]):
                merged["max"] = hist["max"]
            buckets = merged["buckets"]
            for key, value in hist["buckets"].items():
                buckets[key] = buckets.get(key, 0) + value
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {name: {**hist,
                              "buckets": dict(sorted(hist["buckets"]
                                                     .items()))}
                       for name, hist in sorted(histograms.items())},
    }


# -- per-process collection for the sweep runner ----------------------------

_collecting = False
_sessions: List = []


def start_collection() -> None:
    """Arm session registration for the sweep point about to run."""
    global _collecting, _sessions
    _collecting = True
    _sessions = []


def register(session) -> None:
    """Called by session, translation-cache and fuzz-journal
    constructors; a no-op unless a sweep point is collecting metrics in
    this process."""
    if _collecting:
        _sessions.append(session)


def drain() -> dict:
    """Snapshot every session, translation cache and fuzz journal
    registered since :func:`start_collection`, merge, and disarm.

    Translation-cache counters are per Cpu, fuzz counters per campaign
    and networked-ring counters per session; each comes with its own
    registered owner, so the snapshot is what this point's execution
    did, independent of which worker process ran it.  The keys are
    always present (zero for points that execute no guest code / ship
    no frames / never fuzz) so serial and parallel sweeps merge
    identically.
    """
    global _collecting, _sessions
    sessions, _sessions = _sessions, []
    _collecting = False
    from repro.core.netring import NetStats
    from repro.fuzz.journal import FuzzStats
    from repro.isa.translator import CacheStats
    snapshots = [s.metrics_snapshot() for s in sessions]
    snapshots.append({"counters": CacheStats().as_dict()})
    snapshots.append({"counters": FuzzStats().as_dict()})
    snapshots.append({"counters": NetStats().as_dict()})
    return merge_snapshots(snapshots)
