"""Spans the benchmark records around its own calls into the system.

A span is ``(name, start, end, parent)``; spans live in memory and are
written out when the run ends.  In the traced run every span also owns
a ``cProfile.Profile`` that is enabled only while that span is the
innermost one, so the profile of ``cell:varan-f6`` holds exactly that
cell's self time and the per-layer table can be cut per cell.  With
tracing off, ``span()`` does nothing.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Dict, List


class Spans:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.records: List[dict] = []
        self.profiles: Dict[str, cProfile.Profile] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else None
        if parent is not None:
            self.profiles[self.records[parent]["name"]].disable()
        profile = self.profiles.setdefault(name, cProfile.Profile())
        record = {"name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            record["end"] = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.profiles[self.records[parent]["name"]].enable()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        children = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for record, covered in zip(self.records, children):
            totals[record["name"]] = (totals.get(record["name"], 0.0)
                                      + record["end"] - record["start"]
                                      - covered)
        return totals
