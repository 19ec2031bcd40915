"""Regenerates the §5.3 live-sanitization measurements."""

from repro.experiments import sanitization
from conftest import run_and_render


def test_bench_sanitization(benchmark):
    result = run_and_render(benchmark, sanitization.run, scale=0.02)
    rows = {row["configuration"]: row for row in result.rows}
    asan = rows["plain leader + ASan follower"]
    # Paper: no additional leader slowdown; small log distance.
    assert asan["leader_slowdown"] < 1.1
    assert asan["median_log_distance"] < 256  # follower keeps up


def test_bench_sanitizer_detects_injected_bug(benchmark):
    reports, _probe = benchmark.pedantic(
        sanitization.detect_use_after_free, rounds=1, iterations=1)
    assert any(r.kind == "heap-use-after-free" for r in reports)
