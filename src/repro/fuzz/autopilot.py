"""The fuzz autopilot: generator → executor → journal → rule synthesis.

``run_fuzz(seed, budget)`` drives ``budget`` scenarios from the seeded
generator through the executor, journals every novel finding, feeds
novelty back into the generator's region weights, and — for each
distinct fatal divergence — attempts to synthesize a BPF rewrite rule
that provably absorbs it (clean re-run of the same scenario).

Everything is a pure function of ``(seed, budget)``: the report's
``render()`` is byte-identical across runs, which CI enforces with
``cmp`` on two back-to-back invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.fuzz.executor import run_scenario
from repro.fuzz.generator import ScenarioGenerator
from repro.fuzz.journal import Journal
from repro.fuzz.synthesis import SynthesizedRule, attempt_absorb

__all__ = ["FuzzReport", "run_fuzz"]


@dataclass
class FuzzReport:
    """Everything one autopilot run produced."""

    journal: Journal
    scenarios: List[str] = field(default_factory=list)
    rules: List[SynthesizedRule] = field(default_factory=list)

    @property
    def absorbed(self) -> List[SynthesizedRule]:
        return [rule for rule in self.rules if rule.absorbed]

    def render(self) -> str:
        """Canonical report text: journal first, then the synthesized
        rules (byte-identical per seed)."""
        lines = [self.journal.render().rstrip("\n")]
        lines.append(f"rules: {len(self.rules)} synthesized, "
                     f"{len(self.absorbed)} absorbed")
        for rule in self.rules:
            verdict = "absorbed" if rule.absorbed else "not absorbed"
            lines.append(f"  {rule.describe()} [{verdict}]")
        return "\n".join(lines) + "\n"


def run_fuzz(seed: int, budget: int, synthesis: bool = True) -> FuzzReport:
    """Run the autopilot: ``budget`` scenarios from ``seed``'s stream.

    Set ``synthesis=False`` to skip the rule-synthesis pass (each
    synthesis attempt re-runs its scenario up to twice, which dominates
    cost for workloads that only need the journal).
    """
    generator = ScenarioGenerator(seed)
    journal = Journal(seed=seed, budget=budget)
    report = FuzzReport(journal=journal)
    #: (call, event) pairs already fed to synthesis, so one divergence
    #: class costs at most one synthesis pass per run.
    attempted: Dict[Tuple[str, str], bool] = {}

    for _step in range(budget):
        scenario = generator.next_scenario()
        journal.stats.scenarios += 1
        result = run_scenario(scenario)
        report.scenarios.append(scenario.describe())

        any_novel = False
        for kind, detail in result.records:
            if journal.record(kind, detail, scenario.index):
                any_novel = True
            if kind == "divergence":
                journal.stats.divergences += 1
            elif kind == "crash":
                journal.stats.crashes += 1
        if any_novel:
            generator.note_novel(scenario)

        if not synthesis:
            continue
        for _variant, call_name, event_name in result.fatal_divergences:
            key = (call_name, event_name)
            if key in attempted:
                continue
            attempted[key] = True
            winner, candidates = attempt_absorb(scenario, call_name,
                                                event_name)
            journal.stats.rules_synthesized += len(candidates)
            if winner is not None:
                journal.stats.rules_absorbed += 1
                report.rules.append(winner)
                journal.record(
                    "rule-synthesis",
                    f"{winner.action.upper()} rule absorbs follower "
                    f"call {call_name} vs leader event {event_name}",
                    scenario.index)
            elif candidates:
                report.rules.append(candidates[0])
                journal.record(
                    "rule-synthesis",
                    f"no candidate absorbs follower call {call_name} "
                    f"vs leader event {event_name}",
                    scenario.index)
    return report
