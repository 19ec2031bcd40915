"""Parallel experiment sweeps.

Regenerating the paper's full evaluation is embarrassingly parallel:
every (figure × app × follower-count) cell builds its own seeded
:class:`~repro.sim.core.Simulator` from scratch and shares nothing with
any other cell.  This module decomposes each experiment driver into
independent *sweep points*, fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor`, and merges the
fragments back in a fixed canonical order — so a ``--jobs N`` run is
**bit-for-bit identical** to the serial run (asserted by
``tests/test_runner.py::test_parallel_sweep_matches_serial``).

Usage::

    python -m repro sweep --jobs 4 --scale 0.008 --out sweep.txt
    python -m repro sweep --jobs 4 --scale 0.008 --check-reference
"""

from __future__ import annotations

import functools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.expconfig import ExperimentConfig
from repro.experiments.harness import ExperimentResult
from repro.obs import metrics as obs_metrics

#: The scale the committed ``benchmarks/reference_sweep.txt`` was
#: generated at.
REFERENCE_SCALE = 0.008

#: A sweep point: (experiment id, part key or None for the whole
#: driver, driver kwargs as a tuple of (name, value) pairs).
#: Deliberately plain tuples/strings so points pickle cheaply into
#: worker processes.
SweepPoint = Tuple[str, Optional[str], Tuple[Tuple[str, object], ...]]


def sweep_points(scale: Optional[float] = None,
                 experiments: Optional[Sequence[str]] = None
                 ) -> List[SweepPoint]:
    """The full sweep as an ordered list of independent points.

    Part decomposition comes from each driver's own ``parts()`` hook
    (via :func:`repro.experiments.registry.experiment_parts`); drivers
    without one run as a single point.
    """
    from repro.experiments.registry import EXPERIMENTS, experiment_parts

    ids = sorted(EXPERIMENTS) if experiments is None else list(experiments)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; "
                       f"known: {sorted(EXPERIMENTS)}")
    # Every point carries the scale; ``apply_config`` hands it only to a
    # driver that takes one.
    kwargs: Tuple[Tuple[str, object], ...] = (
        () if scale is None else (("scale", scale),))
    points: List[SweepPoint] = []
    for eid in ids:
        parts = experiment_parts(eid)
        if parts is None:
            points.append((eid, None, kwargs))
        else:
            points.extend((eid, part, kwargs) for part in parts)
    return points


def run_point(point: SweepPoint,
              collect_metrics: bool = False) -> ExperimentResult:
    """Run one sweep point in isolation (top-level: pickles for the pool).

    Every path constructs a fresh World/Simulator, so the result depends
    only on the point itself — never on which process ran it or in what
    order.  With ``collect_metrics`` every session the point creates
    registers with ``repro.obs`` and the merged snapshot is attached to
    the fragment's ``metrics``.
    """
    from repro.experiments.registry import run_experiment
    from repro.faults import invariants as _invariants

    eid, part, kwargs_items = point
    kwargs = dict(kwargs_items)
    config = ExperimentConfig(
        scale=kwargs.pop("scale", None),
        parts=None if part is None else (part,),
        options=tuple(sorted(kwargs.items())))
    if collect_metrics:
        obs_metrics.start_collection()
    # Every session a point creates runs with the NVX conformance oracle
    # enabled; the process-wide counter catches violations regardless of
    # which checker instance (or worker process) observed them.
    violations_before = _invariants.process_violations()
    result = run_experiment(eid, config=config)
    fresh = _invariants.process_violations() - violations_before
    if fresh:
        raise AssertionError(
            f"sweep point {eid}/{part or 'all'}: {fresh} NVX invariant "
            f"violation(s) during a reference experiment")
    if collect_metrics:
        result.metrics = obs_metrics.drain()
    return result


def merge_results(points: Sequence[SweepPoint],
                  fragments: Sequence[ExperimentResult]
                  ) -> List[ExperimentResult]:
    """Stitch per-point fragments back into whole experiment results.

    Deterministic by construction: fragments are concatenated in point
    order, which is fixed by :func:`sweep_points` regardless of which
    worker finished first.  Metrics snapshots merge through
    :func:`repro.obs.metrics.merge_snapshots` (associative, so fragment
    grouping cannot change the outcome).
    """
    merged: Dict[str, ExperimentResult] = {}
    order: List[str] = []
    for (eid, _part, _kwargs), fragment in zip(points, fragments):
        if eid not in merged:
            merged[eid] = fragment
            order.append(eid)
        else:
            merged[eid].rows.extend(fragment.rows)
            if fragment.metrics:
                merged[eid].metrics = obs_metrics.merge_snapshots(
                    [merged[eid].metrics, fragment.metrics])
    return [merged[eid] for eid in order]


def run_sweep(jobs: int = 1, scale: Optional[float] = None,
              experiments: Optional[Sequence[str]] = None,
              collect_metrics: bool = False) -> List[ExperimentResult]:
    """Run the sweep, fanning points out over ``jobs`` processes.

    ``jobs <= 1`` runs every point in-process; both paths execute the
    identical point list through :func:`run_point` and merge in the
    identical order, which is what makes them bit-for-bit comparable.
    """
    points = sweep_points(scale=scale, experiments=experiments)
    return merge_results(
        points, run_points(points, jobs, collect_metrics=collect_metrics))


def run_points(points: Sequence[SweepPoint], jobs: int,
               collect_metrics: bool = False) -> List[ExperimentResult]:
    """Execute a point list serially (``jobs <= 1``) or over a pool."""
    worker = functools.partial(run_point, collect_metrics=collect_metrics)
    if jobs <= 1:
        return [worker(point) for point in points]
    workers = min(jobs, len(points)) or 1
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, points))


def render_metrics(results: Iterable[ExperimentResult]) -> str:
    """Deterministic JSON view of the merged per-experiment metrics."""
    payload = {result.experiment_id: result.metrics for result in results
               if result.metrics}
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sweep(results: Iterable[ExperimentResult],
                 scale: Optional[float] = None) -> str:
    """Canonical sweep report: deterministic, no wall-clock timestamps."""
    header = "# reference sweep"
    if scale is not None:
        header += f" (scale={scale})"
    header += " — regenerate with: python -m repro sweep --scale {}".format(
        scale if scale is not None else "<scale>")
    blocks = [header, ""]
    for result in results:
        blocks.append(result.render())
        blocks.append("")
    return "\n".join(blocks)


def _normalise(text: str) -> List[str]:
    """Comparison view of a sweep report: drop comment lines, wall-clock
    '[x regenerated in Ys]' markers and trailing whitespace."""
    lines = []
    for line in text.splitlines():
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and "regenerated in" in line:
            continue
        lines.append(line)
    return lines


def compare_reports(left: str, right: str) -> List[str]:
    """Differences between two sweep reports, empty when equivalent."""
    left_lines = _normalise(left)
    right_lines = _normalise(right)
    diffs = []
    for i, (a, b) in enumerate(zip(left_lines, right_lines)):
        if a != b:
            diffs.append(f"line {i}: {a!r} != {b!r}")
    if len(left_lines) != len(right_lines):
        diffs.append(f"line counts differ: {len(left_lines)} vs "
                     f"{len(right_lines)}")
    return diffs


def reference_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "benchmarks",
        "reference_sweep.txt")
