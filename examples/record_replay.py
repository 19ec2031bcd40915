#!/usr/bin/env python3
"""Record-replay (§5.4): capture production, triage offline.

Phase 1 records a production Redis serving live traffic: an artificial
follower drains the ring buffer to a persistent log (the application
runs at nearly full speed — the recorder sits on its own core).

Phase 2 replays that single log against EIGHT candidate revisions at
once, to find which revision introduced a crash — the exact use case
the paper sketches.

Run:  python examples/record_replay.py
"""

from repro.apps.redis import REVISIONS
from repro.experiments.recordreplay_exp import triage_crash


def main():
    outcome = triage_crash(scale=0.03)

    print("=== record phase ===")
    print(f"  requests served   : {outcome['requests_served']}")
    print(f"  events recorded   : {outcome['events_recorded']}")
    print(f"  log size          : {outcome['log_bytes']:,} bytes")

    print(f"\n=== replay phase ({len(REVISIONS)} candidates, one log) ===")
    print(f"  events replayed   : {outcome['events_replayed']}")
    for rev in REVISIONS:
        verdict = ("CRASHED" if rev in outcome["crashed_revisions"]
                   else "survived")
        print(f"  {'candidate-' + rev:24s} {verdict}")

    buggy = outcome["expected_buggy"]
    assert outcome["crashed_revisions"] == [buggy]
    print(f"\nregression isolated to revision {buggy} ✓")


if __name__ == "__main__":
    main()
