"""Sweep-runner determinism, engine ordering invariants, and the CLI's
rejection of nonsense flag values.

``test_parallel_matches_serial`` is the invariant named in DESIGN.md §5:
wall-clock parallelism (and any other wall-clock optimization) must
never change virtual-time results — a ``--jobs N`` sweep is bit-for-bit
identical to the serial one.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import figure5, runner
from repro.sim.core import Simulator

#: A deliberately small Figure 5 slice: two servers, two follower
#: counts, tiny workload scale — seconds, not minutes.
_SLICE_SERVERS = ("beanstalkd", "memcached")
_SLICE_KWARGS = (("follower_counts", (0, 1)), ("scale", 0.002))


def _slice_points():
    return [("figure5", server, _SLICE_KWARGS)
            for server in _SLICE_SERVERS]


class TestSweepRunner:
    def test_parallel_matches_serial(self):
        points = _slice_points()
        serial = runner.merge_results(points, runner.run_points(points, 1))
        parallel = runner.merge_results(points, runner.run_points(points, 2))
        assert runner.render_sweep(serial) == runner.render_sweep(parallel)

    def test_decomposition_matches_whole_driver(self):
        points = _slice_points()
        merged = runner.merge_results(points, runner.run_points(points, 1))
        whole = figure5.run(servers=_SLICE_SERVERS,
                            **dict(_SLICE_KWARGS))
        assert merged[0].render() == whole.render()

    def test_full_sweep_covers_every_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        points = runner.sweep_points(scale=0.008)
        assert {eid for eid, _part, _kw in points} == set(EXPERIMENTS)

    def test_scale_only_reaches_scaled_experiments(self):
        points = runner.sweep_points(scale=0.01)
        for eid, _part, kwargs in points:
            expects_scale = eid in runner.SCALED_EXPERIMENTS
            assert (("scale", 0.01) in kwargs) == expects_scale

    def test_compare_reports_ignores_wallclock_lines(self):
        left = "row 1\n[figure4 regenerated in 1.2s]\n# comment\n"
        right = "row 1\n[figure4 regenerated in 99.9s]\n"
        assert runner.compare_reports(left, right) == []
        assert runner.compare_reports("row 1\n", "row 2\n")


def _rejected(capsys, argv):
    """argparse's stderr for ``argv``, which must exit 2."""
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


class TestCliValidation:
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
    def test_scale_must_be_finite_and_positive(self, capsys, value):
        err = _rejected(capsys, ["figure4", "--scale", value])
        assert "argument --scale: " in err
        assert _rejected(capsys, ["sweep", "--scale", value]) == err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_below_one_is_rejected_naming_the_flag(self, capsys,
                                                        value):
        err = _rejected(capsys, ["sweep", "--jobs", value])
        assert f"argument --jobs: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_clients_below_one_is_rejected_naming_the_flag(self, capsys,
                                                           value):
        err = _rejected(capsys, ["load", "--clients", value])
        assert f"argument --clients: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_rate_must_be_finite_and_positive(self, capsys, value):
        err = _rejected(capsys, ["load", "--rate", value, "--scale", "0.01"])
        assert (f"argument --rate: must be finite and > 0, got {value}"
                in err)


class TestPlacementReachesOnlyItsReaders:
    """``--placement`` is read by chaos and by trace of a driver that
    takes a placement; everywhere else it is a one-line error, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["load"], ["fuzz"], ["figure4"], ["all"]])
    def test_commands_that_ignore_it_refuse_it(self, capsys, monkeypatch,
                                               argv):
        from repro import __main__ as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{argv[0]} ran with --placement")
        for name in ("run_sweep_command", "run_load_command",
                     "run_fuzz_command"):
            monkeypatch.setattr(cli, name, must_not_run)
        monkeypatch.setattr("repro.experiments.registry.run_experiment",
                            must_not_run)
        assert cli.main(argv + ["--placement", "remote"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--placement" in err

    @pytest.mark.parametrize("target", ["figure4", "table1", "ablations",
                                        "failover-5.1", "multirevision-5.2"])
    def test_trace_of_a_driver_without_placement_refuses_it(
            self, capsys, tmp_path, target):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        assert main(["trace", target, "--placement", "remote",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"trace {target}: unknown experiment "
                              f"option 'placement'; driver accepts: ")
        assert err.count("\n") == 1 and not out.exists()


class TestClosedPipe:
    def test_list_into_a_closed_pipe_exits_quietly(self):
        # ``python -m repro list | head`` once ended in a traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"], stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestEngineOrdering:
    """The optimized Simulator preserves (time, seq) delivery order
    under interleaved schedule/cancel — the invariant the tuple-heap +
    lazy-cancellation rewrite must not break."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 1000),   # delay_ps
                  st.booleans(),          # cancel an earlier handle?
                  st.integers(0, 31)),    # which earlier handle
        min_size=1, max_size=40))
    def test_schedule_cancel_preserves_time_seq_order(self, ops):
        sim = Simulator()
        fired = []
        handles = []
        cancelled = set()
        for i, (delay, do_cancel, target) in enumerate(ops):
            handles.append(
                (sim.schedule(delay, lambda i=i: fired.append(
                    (sim.now, i))), delay))
            if do_cancel:
                victim = target % len(handles)
                handles[victim][0].cancel()
                cancelled.add(victim)
        sim.run()

        fired_ids = [i for _now, i in fired]
        # Cancelled callbacks never fire; everything else fires once.
        assert set(fired_ids) == set(range(len(ops))) - cancelled
        # Each callback fires exactly at its scheduled virtual time.
        for now, i in fired:
            assert now == handles[i][1]
        # Delivery is (time, seq)-ordered: non-decreasing times, and
        # equal-time callbacks fire in schedule (seq) order.
        times = [now for now, _i in fired]
        assert times == sorted(times)
        for (t_a, i_a), (t_b, i_b) in zip(fired, fired[1:]):
            if t_a == t_b:
                assert i_a < i_b

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=20),
           st.integers(1, 400))
    def test_nested_schedules_keep_ordering(self, delays, extra):
        sim = Simulator()
        fired = []

        def make(i, delay):
            def fn():
                fired.append((sim.now, i))
                if i % 3 == 0:
                    sim.schedule(extra, lambda: fired.append(
                        (sim.now, 1000 + i)))
            return fn

        for i, delay in enumerate(delays):
            sim.schedule(delay, make(i, delay))
        sim.run()
        times = [now for now, _i in fired]
        assert times == sorted(times)

    def test_cancelled_event_does_not_advance_clock(self):
        sim = Simulator()
        late = sim.schedule(100, lambda: None)
        sim.schedule(0, late.cancel)
        sim.run()
        # The cancelled entry is skipped before the clock moves to 100.
        assert sim.now == 0
