"""Tests for the calibrated cost model."""

import pytest

from repro.costmodel import (
    CYCLE_PS,
    DEFAULT_COSTS,
    CostModel,
    MachineSpec,
    cycles,
    to_cycles,
)


class TestConversions:
    def test_cycle_roundtrip(self):
        assert to_cycles(cycles(1234)) == pytest.approx(1234)

    def test_cycle_ps_matches_frequency(self):
        # 3.5 GHz → 285.7 ps; we round to 286.
        assert CYCLE_PS == 286
        assert abs(1e12 / 3.5e9 - CYCLE_PS) < 1

    def test_cycles_is_integral(self):
        assert isinstance(cycles(100.5), int)


class TestFigure4Anchors:
    """The native column of Figure 4 is a calibration *input*."""

    @pytest.mark.parametrize("call,expected", [
        ("close", 1261), ("write", 1430), ("read", 1486),
        ("open", 2583), ("time", 49),
    ])
    def test_native_costs_match_paper(self, call, expected):
        assert DEFAULT_COSTS.syscalls.native(call) == expected

    def test_per_byte_surcharge_beyond_512(self):
        base = DEFAULT_COSTS.syscalls.native("read")
        assert DEFAULT_COSTS.syscalls.native("read", 512) == base
        assert DEFAULT_COSTS.syscalls.native("read", 4096) > base

    def test_unknown_call_uses_default(self):
        assert DEFAULT_COSTS.syscalls.native("frobnicate") == \
            DEFAULT_COSTS.syscalls.table["default"]


class TestInterceptionPaths:
    def test_fast_path_well_under_native_close(self):
        # §4.1: interception is <15% of a cheap syscall.
        assert DEFAULT_COSTS.intercept.fast_path < 0.15 * 1261

    def test_slow_path_dominated_by_signal_delivery(self):
        slow = DEFAULT_COSTS.intercept.slow_path
        assert slow > 10 * DEFAULT_COSTS.intercept.fast_path
        assert slow > DEFAULT_COSTS.intercept.int_fallback

    def test_paper_intercept_anchor_for_time(self):
        # 122 cycles total for intercepted time (49 native + stub).
        total = 49 + DEFAULT_COSTS.intercept.vdso_stub
        assert total == pytest.approx(122, abs=5)


class TestStreamCosts:
    def test_leader_close_anchor(self):
        # Figure 4: leader close 1718 = native + fast path + publish.
        total = (1261 + DEFAULT_COSTS.intercept.fast_path
                 + DEFAULT_COSTS.stream.ring_publish)
        assert total == pytest.approx(1718, rel=0.03)

    def test_follower_close_anchor(self):
        # Figure 4: follower close 257 = fast path + consume.
        total = (DEFAULT_COSTS.intercept.fast_path
                 + DEFAULT_COSTS.stream.ring_consume)
        assert total == pytest.approx(257, rel=0.05)

    def test_fd_transfer_costs_anchor_open(self):
        leader_open = (2583 + DEFAULT_COSTS.intercept.fast_path
                       + DEFAULT_COSTS.stream.ring_publish
                       + DEFAULT_COSTS.stream.fd_send)
        assert leader_open == pytest.approx(8788, rel=0.07)


class TestPtraceCosts:
    def test_stop_cost_includes_two_context_switches(self):
        ptrace = DEFAULT_COSTS.ptrace
        assert ptrace.stop_cost() >= 2 * ptrace.context_switch

    def test_copy_cost_word_granular(self):
        ptrace = DEFAULT_COSTS.ptrace
        assert ptrace.copy_cost(8) == ptrace.peek_poke
        assert ptrace.copy_cost(512) == 64 * ptrace.peek_poke
        assert ptrace.copy_cost(9) == 2 * ptrace.peek_poke

    def test_ptrace_read_dwarfs_varan_leader_read(self):
        # The core claim: ptrace costs explode with buffer size.
        ptrace_512 = (2 * DEFAULT_COSTS.ptrace.stop_cost()
                      + DEFAULT_COSTS.ptrace.copy_cost(512))
        varan_512 = (DEFAULT_COSTS.stream.ring_publish
                     + DEFAULT_COSTS.stream.shm_alloc
                     + 512 * DEFAULT_COSTS.stream.copy_per_byte)
        assert ptrace_512 > 10 * varan_512


class TestModelPlumbing:
    def test_machine_spec_defaults_match_testbed(self):
        spec = MachineSpec()
        assert spec.logical_cores == 8
        assert spec.physical_cores == 4
        assert spec.freq_ghz == 3.5

    def test_cost_model_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.record_log_per_event = 0
