"""Fuzz-summary experiment: one small deterministic autopilot run.

Not a paper table — an operational check that rides the sweep: the
scenario fuzzer (generator → executor → journal → rule synthesis,
:mod:`repro.fuzz`) runs a fixed-seed, fixed-budget campaign and the
sweep's reference comparison pins its findings, exactly like a figure's
numbers.  A behaviour change anywhere in the monitor — divergence
handling, failover, ring contracts, BPF rewrites — shows up here as a
changed journal, caught by ``sweep --check-reference``.

The whole run executes under always-on invariant checkers, and the
sweep runner independently asserts the point produced zero process-wide
violations.
"""

from __future__ import annotations

from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult
from repro.fuzz import run_fuzz

__all__ = ["run"]


def run(config=None, seed: int = 1, budget: int = 6) -> ExperimentResult:
    values = apply_config(config, seed=seed, budget=budget)
    seed, budget = values["seed"], values["budget"]
    report = run_fuzz(seed=seed, budget=budget)
    journal = report.journal
    counts = journal.counts()
    result = ExperimentResult(
        "fuzz-summary", "Scenario fuzzer campaign summary",
        notes=(f"seed={seed} budget={budget}; journal is byte-identical "
               f"per seed (CI cmp-checks two runs)"))
    result.rows.append({
        "metric": "scenarios run", "value": budget,
    })
    result.rows.append({
        "metric": "novel journal entries", "value": len(journal.entries),
    })
    result.rows.append({
        "metric": "duplicate findings", "value": journal.stats.duplicates,
    })
    result.rows.append({
        "metric": "distinct divergence classes",
        "value": len(journal.kinds()),
    })
    result.rows.append({
        "metric": "fatal divergences journaled",
        "value": counts["divergence"],
    })
    result.rows.append({
        "metric": "crashes journaled", "value": counts["crash"],
    })
    result.rows.append({
        "metric": "rules synthesized", "value": len(report.rules),
    })
    result.rows.append({
        "metric": "rules absorbed (clean re-run)",
        "value": len(report.absorbed),
    })
    return result
