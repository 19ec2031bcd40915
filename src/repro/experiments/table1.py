"""Table 1 — the server applications used in the evaluation."""

from __future__ import annotations

from repro.apps import TABLE_1
from repro.experiments.expconfig import apply_config
from repro.experiments.harness import ExperimentResult


def run(config=None) -> ExperimentResult:
    apply_config(config)
    result = ExperimentResult(
        "table1", "Server applications used in the evaluation",
        paper_reference={row["application"]: row for row in TABLE_1})
    for row in TABLE_1:
        result.rows.append(dict(row))
    result.notes = ("sizes are the upstream projects' lines of code as "
                    "reported by cloc in the paper")
    return result
