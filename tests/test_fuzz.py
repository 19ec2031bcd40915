"""Acceptance tests for the scenario fuzzer (tier-1).

Pins the PR's contract: byte-identical journals per seed, ≥3 distinct
deduplicated divergence classes across the default adversary mix, and
at least one auto-synthesized BPF rule that verifies and demonstrably
absorbs its source divergence on re-run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bpf.rules import RewriteRules
from repro.clients.adversaries import ADVERSARIES, make_adversaries
from repro.fuzz import (
    Journal,
    Scenario,
    ScenarioGenerator,
    run_fuzz,
    run_scenario,
)
from repro.fuzz.journal import KINDS
from repro.fuzz.synthesis import attempt_absorb, synthesize_candidates

REPO_ROOT = Path(__file__).parent.parent

#: One seed/budget pair reused across the expensive assertions so the
#: autopilot runs once per test process, not once per test.
SEED, BUDGET = 1, 8


@pytest.fixture(scope="module")
def report():
    return run_fuzz(seed=SEED, budget=BUDGET)


class TestJournal:
    def test_dedup_by_content_hash(self):
        journal = Journal(seed=0, budget=0)
        assert journal.record("crash", "same detail", 0) is True
        assert journal.record("crash", "same detail", 5) is False
        assert journal.record("divergence", "same detail", 5) is True
        assert len(journal.entries) == 2
        assert journal.stats.duplicates == 1

    def test_render_is_stable_and_fixed_shape(self):
        journal = Journal(seed=9, budget=3)
        journal.record("crash", "a", 0)
        text = journal.render()
        assert text == journal.render()
        assert text.startswith("# fuzz seed=9 budget=3\n")
        for kind in KINDS:
            assert f"{kind}=" in text

    def test_entry_digest_depends_on_kind_and_detail(self):
        journal = Journal(seed=0, budget=0)
        journal.record("crash", "x", 0)
        journal.record("mismatch", "x", 0)
        digests = {entry.digest for entry in journal.entries}
        assert len(digests) == 2


class TestGeneratorDeterminism:
    def test_same_seed_same_scenarios(self):
        a = ScenarioGenerator(seed=5)
        b = ScenarioGenerator(seed=5)
        for _ in range(12):
            assert a.next_scenario() == b.next_scenario()

    def test_different_seeds_diverge(self):
        a = [ScenarioGenerator(seed=5).next_scenario() for _ in range(1)]
        b = [ScenarioGenerator(seed=6).next_scenario() for _ in range(1)]
        assert a[0].sub_seed != b[0].sub_seed

    def test_novelty_bias_stays_deterministic(self):
        a, b = ScenarioGenerator(seed=3), ScenarioGenerator(seed=3)
        for _ in range(10):
            sa, sb = a.next_scenario(), b.next_scenario()
            assert sa == sb
            a.note_novel(sa)
            b.note_novel(sb)

    def test_frontier_covers_both_kinds(self):
        gen = ScenarioGenerator(seed=1)
        first = [gen.next_scenario() for _ in range(4)]
        kinds = {s.kind for s in first}
        assert kinds == {"workload", "server"}
        divergences = {s.divergence for s in first if s.kind == "workload"}
        assert {"follower-extra", "leader-extra"} <= divergences


class TestAdversaryDeterminism:
    def test_same_fleet_same_streams(self):
        pa = make_adversaries(seed=4)
        pb = make_adversaries(seed=4)
        assert [(m, n) for m, n, _ in pa] == [(m, n) for m, n, _ in pb]
        assert len(pa) == len(ADVERSARIES)

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError, match="unknown adversaries"):
            make_adversaries(mix=("slowloris", "nosuch"))


class TestAutopilotAcceptance:
    def test_journal_byte_identical_per_seed(self, report):
        again = run_fuzz(seed=SEED, budget=BUDGET)
        assert report.render() == again.render()

    def test_finds_three_distinct_divergence_classes(self, report):
        assert len(report.journal.kinds()) >= 3, report.render()

    def test_synthesizes_an_absorbing_rule(self, report):
        assert len(report.absorbed) >= 1, report.render()

    def test_journal_entries_name_their_scenario(self, report):
        budgets = {entry.scenario for entry in report.journal.entries}
        assert all(0 <= index < BUDGET for index in budgets)

    def test_different_seed_changes_the_journal(self, report):
        other = run_fuzz(seed=SEED + 1, budget=4, synthesis=False)
        assert other.render() != report.render()


class TestSynthesisAbsorption:
    def test_absorbed_rule_cleans_its_source_scenario(self, report):
        """Re-running a divergence scenario under its synthesized rule
        must be completely clean — the acceptance criterion."""
        assert report.absorbed, report.render()
        rule = report.absorbed[0]
        # Find the scenario that produced this divergence class.
        gen = ScenarioGenerator(seed=SEED)
        scenarios = [gen.next_scenario() for _ in range(BUDGET)]
        source = None
        for scenario in scenarios:
            result = run_scenario(scenario)
            if any(call == rule.call_name and event == rule.event_name
                   for _v, call, event in result.fatal_divergences):
                source = scenario
                assert not result.clean
                break
        assert source is not None
        rerun = run_scenario(source,
                             rules=RewriteRules([rule.program()]))
        assert rerun.clean, rerun.records
        assert rerun.fatal_divergences == []

    def test_candidates_order_allow_then_skip(self):
        candidates = synthesize_candidates("getuid", "open")
        assert [c.action for c in candidates] == ["allow", "skip"]

    def test_unknown_syscall_yields_no_candidates(self):
        assert synthesize_candidates("nosuchcall", "alsonot") == []

    def test_attempt_absorb_marks_winner(self):
        gen = ScenarioGenerator(seed=SEED)
        scenario = gen.next_scenario()  # frontier: follower-extra
        result = run_scenario(scenario)
        assert result.fatal_divergences
        _v, call, event = result.fatal_divergences[0]
        winner, candidates = attempt_absorb(scenario, call, event)
        assert winner is not None
        assert winner.absorbed is True
        assert candidates


class TestMetricsIntegration:
    def test_drain_exposes_fuzz_keys_as_deltas(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.start_collection()
        run_fuzz(seed=2, budget=2, synthesis=False)
        snapshot = obs_metrics.drain()
        counters = snapshot["counters"]
        for key in ("fuzz.scenarios", "fuzz.novel", "fuzz.duplicates",
                    "fuzz.divergences", "fuzz.crashes",
                    "fuzz.rules_synthesized", "fuzz.rules_absorbed"):
            assert key in counters
        assert counters["fuzz.scenarios"] == 2

    def test_drain_without_fuzzing_reports_zeroes(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.start_collection()
        snapshot = obs_metrics.drain()
        assert snapshot["counters"]["fuzz.scenarios"] == 0

    def test_drain_sums_the_campaigns_in_its_window_only(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.drain()  # disarm: the next campaign runs outside
        outside = run_fuzz(seed=2, budget=1, synthesis=False)
        obs_metrics.start_collection()
        first = run_fuzz(seed=2, budget=2, synthesis=False)
        second = run_fuzz(seed=5, budget=1, synthesis=False)
        counters = obs_metrics.drain()["counters"]
        assert outside.journal.stats.scenarios == 1
        expected = {name: value + second.journal.stats.as_dict()[name]
                    for name, value in first.journal.stats.as_dict().items()}
        assert expected["fuzz.scenarios"] == 3
        assert {name: counters[name] for name in expected} == expected


class TestCli:
    def test_budget_below_one_is_rejected_naming_the_flag(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fuzz", "--budget", "-2"])
        assert exit_info.value.code == 2
        assert "argument --budget: must be >= 1" in capsys.readouterr().err

    def test_fuzz_command_round_trip(self, tmp_path):
        out = tmp_path / "journal.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "--seed", "3",
             "--budget", "4", "--no-synthesis", "--out", str(out)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert text.startswith("# fuzz seed=3 budget=4\n")
        assert "rules: 0 synthesized" in text

    def test_fuzz_summary_experiment_registered(self):
        from repro.experiments.registry import EXPERIMENTS, run_experiment

        assert "fuzz-summary" in EXPERIMENTS
        result = run_experiment("fuzz-summary")
        metrics = {row["metric"]: row["value"] for row in result.rows}
        assert metrics["distinct divergence classes"] >= 3
        assert metrics["rules absorbed (clean re-run)"] >= 1
