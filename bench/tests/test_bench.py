"""Tests of the benchmark itself.

Run with ``python -m pytest bench/tests -q`` from the repository root
(not part of the tier-1 ``testpaths``).
"""

import cProfile
import json
import os

import pytest

from bench import compare, layers, metrics, run
from bench.workloads import WORKLOADS

SMALL = 0.05  # each workload at 1/20 size


def test_every_source_file_has_a_layer():
    package = os.path.join(run.ROOT, "src", "repro")
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(folder, name), package)
            layer = layers.layer_of_relpath(relpath)
            assert layer in layers.LAYERS, (
                f"src/repro/{relpath} has no layer: add it to "
                f"bench/layers.py PATH_LAYERS")
    assert set(layers.PATH_LAYERS.values()) | {"host.other"} \
        == set(layers.LAYERS)


def test_benchmark_json_lists_what_the_code_emits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in metrics.per_layer()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_at_small_size(name):
    """Both modes finish, emit every declared metric with its unit, and
    two runs of one seed agree on the digest."""
    timed = run.aggregate(
        name, [run.run_once(name, 11, 0.1, SMALL, trace=0)], trace=0)
    assert timed["correct"] and timed["attempted"] > 0
    assert {m: e["unit"] for m, e in timed["metrics"].items()} == {
        m: unit for m, unit, _better, _bound in metrics.END_TO_END}
    assert timed["pass_s"]["n"] >= run.MIN_PASSES
    assert all(e["value"] > 0 for e in timed["metrics"].values())

    traced = run.aggregate(
        name, [run.run_once(name, 11, 0.1, SMALL, trace=1)], trace=1)
    assert {m: e["unit"] for m, e in traced["metrics"].items()} == {
        m: unit for m, unit, _better in metrics.per_layer()}
    assert traced["metrics"]["sim.events"]["value"] > 0
    assert traced["sim_digest"] == timed["sim_digest"]
    with open(os.path.join(run.OUT_DIR, f"trace_{name}.json")) as fh:
        trace = json.load(fh)
    assert abs(sum(trace["layer_share"].values()) - 1.0) < 1e-9
    assert {span["name"] for span in trace["spans"]} > {"pass"}


def test_a_different_seed_gives_different_inputs():
    one = run.run_once("guest_isa", 1, 0.1, SMALL, trace=0)
    two = run.run_once("guest_isa", 2, 0.1, SMALL, trace=0)
    assert one["sim_digest"] != two["sim_digest"]


def test_event_count_matches_the_engine():
    """`sim.events` is read off the profile as calls made by the run
    loop; it must equal the engine's own counter."""
    from repro.apps import LIGHTTPD, make_httpd
    from repro.clients import make_wrk
    from repro.experiments.harness import run_server_benchmark

    profile = cProfile.Profile()
    profile.enable()
    result = run_server_benchmark(
        lambda: make_httpd(LIGHTTPD),
        lambda: make_wrk(clients=4, duration_ps=200_000_000),
        monitor="varan", followers=1)
    profile.disable()
    counts = layers.call_counts(layers.Flat([profile]))
    assert counts["sim.events"] == result.world.sim.events_processed > 0
    assert counts["sessions.started"] == 1
    assert counts["kernel.syscalls"] > 0


@pytest.mark.parametrize("base, change, expected", [
    ([1.00, 1.01, 0.99, 1.00], [1.00, 1.02, 0.99, 1.01], compare.UNCHANGED),
    ([1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], compare.WORSE),
    ([1.00, 1.01, 0.99, 1.00], [0.90, 0.91, 0.89, 0.90], compare.IMPROVED),
    ([1.00, 1.30, 0.80, 1.10], [1.05, 1.25, 0.85, 1.20],
     compare.UNRESOLVED),
    # Noisy, but every run of the change beats every run of the base.
    ([1.00, 1.30, 0.80, 1.10], [0.50, 0.60, 0.40, 0.55], compare.IMPROVED),
    ([30.0], [30.1], compare.UNCHANGED),
    ([30.0], [40.0], compare.WORSE),
])
def test_compare_verdicts(base, change, expected):
    assert compare.verdict(run.summarise(base), run.summarise(change),
                           "lower", 0.10) == expected


def _results(wall, failed=0, err=0.01, digest="d"):
    metrics_ = {name: dict(run.summarise(wall if name == "wall_s" else [1.0, 1.0]),
                           unit=unit)
                for name, unit, _b, _bound in metrics.END_TO_END}
    return {"workloads": {"c10k_local": {
        "metrics": metrics_, "failed": failed, "attempted": 100,
        "failed_share": failed / 100, "sim_digest": digest,
        "counts": {"paper.figure5_err": err}}}}


def test_compare_exit_status(tmp_path, capsys):
    def status(base, change):
        paths = []
        for index, data in enumerate((base, change)):
            paths.append(str(tmp_path / f"{index}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(data, fh)
        return compare.main(paths)

    steady = [1.0, 1.01, 0.99, 1.0]
    assert status(_results(steady), _results(steady)) == 0
    assert status(_results(steady), _results([1.3, 1.31, 1.29, 1.3])) == 1
    assert status(_results(steady), _results(steady, failed=1)) == 1
    assert status(_results(steady), _results(steady, err=0.04)) == 1
    # A moved digest is shown, not failed.
    assert status(_results(steady), _results(steady, digest="e")) == 0
    assert "DIFFERS" in capsys.readouterr().out
