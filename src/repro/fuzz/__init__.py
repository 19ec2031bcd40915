"""Scenario fuzzer: seeded byzantine scenarios under the always-on
invariant checker, with a deduplicated journal and automatic BPF
rewrite-rule synthesis for observed benign divergences."""

from repro.fuzz.autopilot import FuzzReport, run_fuzz
from repro.fuzz.executor import ScenarioResult, run_scenario
from repro.fuzz.generator import (
    DIVERGENCE_PROFILES,
    Scenario,
    ScenarioGenerator,
)
from repro.fuzz.journal import FuzzStats, Journal, JournalEntry
from repro.fuzz.synthesis import (
    SynthesizedRule,
    attempt_absorb,
    synthesize_candidates,
)

__all__ = [
    "DIVERGENCE_PROFILES",
    "FuzzReport",
    "FuzzStats",
    "Journal",
    "JournalEntry",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioResult",
    "SynthesizedRule",
    "attempt_absorb",
    "run_fuzz",
    "run_scenario",
    "synthesize_candidates",
]
