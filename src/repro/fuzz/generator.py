"""Seeded scenario sampling for the fuzzer.

A :class:`Scenario` freezes one point in the space the autopilot
explores: workload scenarios (a chaos-family workload under an optional
fault plan, with an optional *divergence profile* that makes variants
intentionally issue benign extra system calls), and server scenarios
(an NVX Redis group — possibly with the §5.1 buggy revision leading —
under a byzantine client mix from :mod:`repro.clients.adversaries`).

The generator starts from a small fixed **frontier** — one scenario per
qualitatively distinct region, the fuzzing analogue of a seed corpus —
then samples freely, biased toward regions whose scenarios produced
novel journal entries (``note_novel``).  All draws come from one seeded
stream, so scenario ``i`` of a given seed is always the same scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.apps.redis import BUGGY_REVISION, REVISIONS
from repro.clients.adversaries import ADVERSARIES
from repro.faults.chaos import WORKLOADS

__all__ = ["Scenario", "ScenarioGenerator", "DIVERGENCE_PROFILES"]

#: How a workload scenario makes variants disagree on purpose: the
#: follower issues an extra benign call (the BPF "addition" direction,
#: absorbed by ALLOW) or the leader does (the "removal" direction,
#: absorbed by SKIP).
DIVERGENCE_PROFILES = ("none", "follower-extra", "leader-extra")


@dataclass(frozen=True)
class Scenario:
    """One frozen point of the fuzz space (hashable, replayable)."""

    index: int
    sub_seed: int
    kind: str                      # "workload" | "server"
    # workload-kind fields
    workload: int = 0              # index into chaos.WORKLOADS
    n_variants: int = 2
    fault: bool = False
    divergence: str = "none"
    # server-kind fields
    revision: str = REVISIONS[0]
    followers: int = 2
    adversaries: Tuple[str, ...] = ()

    def region(self) -> Tuple:
        """The bias-weight key: which qualitative neighbourhood this
        scenario lives in (workload family × divergence profile ×
        faults, or revision × adversary mix)."""
        if self.kind == "workload":
            return ("workload", self.workload, self.divergence, self.fault)
        return ("server", self.revision == BUGGY_REVISION, self.adversaries)

    def describe(self) -> str:
        if self.kind == "workload":
            return (f"workload={WORKLOADS[self.workload][0]} "
                    f"variants={self.n_variants} fault={self.fault} "
                    f"divergence={self.divergence}")
        return (f"server revision={self.revision} "
                f"followers={self.followers} "
                f"adversaries={','.join(self.adversaries)}")


class ScenarioGenerator:
    """Deterministic, novelty-biased scenario stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed * 0x9E3779B1 + 0xF022)
        #: region key -> novelty hits; drives biased sampling.
        self.weights: Dict[Tuple, int] = {}
        self._index = 0

    # -- feedback ----------------------------------------------------------

    def note_novel(self, scenario: Scenario) -> None:
        """A scenario produced a novel journal entry: weight its region
        up so sampling revisits that neighbourhood."""
        key = scenario.region()
        self.weights[key] = self.weights.get(key, 0) + 1

    # -- sampling ----------------------------------------------------------

    def next_scenario(self) -> Scenario:
        index = self._index
        self._index += 1
        rng = self._rng
        sub_seed = rng.getrandbits(32)
        frontier = self._frontier(index, sub_seed, rng)
        if frontier is not None:
            return frontier
        if self.weights and rng.random() < 0.5:
            return self._draw_in_region(index, sub_seed, rng,
                                        self._pick_region(rng))
        return self._draw_free(index, sub_seed, rng)

    def _frontier(self, index: int, sub_seed: int,
                  rng: random.Random) -> Optional[Scenario]:
        """The fixed seed corpus: the first scenarios cover each
        qualitative region once before free sampling begins."""
        if index == 0:
            return Scenario(index, sub_seed, "workload",
                            workload=rng.randrange(len(WORKLOADS)),
                            n_variants=3, divergence="follower-extra")
        if index == 1:
            return Scenario(index, sub_seed, "workload",
                            workload=rng.randrange(len(WORKLOADS)),
                            n_variants=3, divergence="leader-extra")
        if index == 2:
            return Scenario(index, sub_seed, "server",
                            revision=BUGGY_REVISION, followers=2,
                            adversaries=ADVERSARIES)
        if index == 3:
            return Scenario(index, sub_seed, "workload",
                            workload=rng.randrange(len(WORKLOADS)),
                            n_variants=rng.randint(2, 3), fault=True)
        return None

    def _pick_region(self, rng: random.Random) -> Tuple:
        items = sorted(self.weights.items())
        total = sum(weight for _key, weight in items)
        point = rng.randrange(total)
        for key, weight in items:
            point -= weight
            if point < 0:
                return key
        return items[-1][0]  # pragma: no cover - randrange < total

    def _draw_in_region(self, index: int, sub_seed: int,
                        rng: random.Random, region: Tuple) -> Scenario:
        if region[0] == "workload":
            _tag, workload, divergence, fault = region
            return Scenario(index, sub_seed, "workload",
                            workload=workload,
                            n_variants=rng.randint(2, 4),
                            fault=fault, divergence=divergence)
        _tag, buggy, adversaries = region
        return Scenario(index, sub_seed, "server",
                        revision=BUGGY_REVISION if buggy else REVISIONS[0],
                        followers=rng.randint(1, 2),
                        adversaries=adversaries)

    def _draw_free(self, index: int, sub_seed: int,
                   rng: random.Random) -> Scenario:
        if rng.random() < 0.25:
            size = rng.randint(1, 3)
            start = rng.randrange(len(ADVERSARIES))
            chosen = tuple(ADVERSARIES[(start + i) % len(ADVERSARIES)]
                           for i in range(size))
            return Scenario(
                index, sub_seed, "server",
                revision=(BUGGY_REVISION if rng.random() < 0.5
                          else REVISIONS[0]),
                followers=rng.randint(1, 2), adversaries=chosen)
        return Scenario(
            index, sub_seed, "workload",
            workload=rng.randrange(len(WORKLOADS)),
            n_variants=rng.randint(2, 3),
            fault=rng.random() < 0.5,
            divergence=DIVERGENCE_PROFILES[rng.randrange(
                len(DIVERGENCE_PROFILES))])
