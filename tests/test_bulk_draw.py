"""``draw_bytes`` is the per-call ``randrange(256)`` stream, in bulk.

The contract is differential, not an argument about CPython: for every
seed and length tried, the bytes *and* the generator state afterwards
equal what ``bytes(rng.randrange(256) for _ in range(n))`` leaves, so
the draw that follows (the workload pick, the fault plan) is unmoved and
no journal, corpus hash or ``sim_digest`` drifts.  On an interpreter
whose ``randrange`` samples differently these tests fail loudly.

Three groups: (a) the differential contract, (b) the journals it must
not move (``tests/test_corpus.py`` pins the corpus entries; the first 20
plans of seed 7, two fuzz reports and a remote chaos campaign are
pinned here), (c) exactly-repeating counts that trip
if a per-byte loop or a per-field decode comes back.
"""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.chaos import DATA_SIZE, draw_bytes, run_plan
from repro.fuzz import run_fuzz

REPO_ROOT = Path(__file__).resolve().parents[1]

SIZES = (0, 1, 2, 3, 63, 64, DATA_SIZE, 10_000)


def reference_draw(rng: random.Random, n: int) -> bytes:
    """The per-call loop ``draw_bytes`` replaced, kept as the oracle."""
    return bytes(rng.randrange(256) for _ in range(n))


#: Draws of mixed kinds that leave the generator mid-stream.
PREFIX_DRAWS = (
    lambda rng: rng.random(),
    lambda rng: rng.randrange(5),
    lambda rng: rng.randint(2, 3),
    lambda rng: rng.randrange(256),
    lambda rng: rng.getrandbits(70),
    lambda rng: rng.randrange(0, DATA_SIZE - 64),
    lambda rng: rng.choice("abc"),
)


def assert_same_stream(seed: int, n: int, prefix=()) -> None:
    fast, slow = random.Random(seed), random.Random(seed)
    for kind in prefix:
        assert PREFIX_DRAWS[kind](fast) == PREFIX_DRAWS[kind](slow)
    assert draw_bytes(fast, n) == reference_draw(slow, n)
    assert fast.getstate() == slow.getstate()
    # ... and what the runners draw next agrees.
    assert fast.random() == slow.random()
    assert fast.randrange(5) == slow.randrange(5)
    assert fast.randint(2, 3) == slow.randint(2, 3)


# -- (a) the differential contract --------------------------------------------


class TestSameStream:
    @pytest.mark.parametrize("n", SIZES)
    def test_bytes_state_and_next_draws_match_the_per_call_loop(self, n):
        for seed in range(300):
            assert_same_stream(seed, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_mid_stream(self, n):
        for seed in range(40):
            picker = random.Random(seed ^ 0x5EED)
            prefix = [picker.randrange(len(PREFIX_DRAWS))
                      for _ in range(1 + seed % 7)]
            assert_same_stream(seed, n, prefix)

    @given(st.integers(0, 2 ** 64), st.integers(0, 600),
           st.lists(st.integers(0, len(PREFIX_DRAWS) - 1), max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_property(self, seed, n, prefix):
        assert_same_stream(seed, n, prefix)

    def test_length_type_and_empty_draw(self):
        rng = random.Random(3)
        before = rng.getstate()
        assert draw_bytes(rng, 0) == b""
        assert rng.getstate() == before  # no word consumed
        data = draw_bytes(rng, DATA_SIZE)
        assert type(data) is bytes and len(data) == DATA_SIZE

    def test_is_not_randbytes(self):
        # The trap: randbytes is getrandbits(8n) — a different stream.
        assert draw_bytes(random.Random(7), 64) \
            != random.Random(7).randbytes(64)

    def test_successive_draws_concatenate(self):
        fast, slow = random.Random(11), random.Random(11)
        parts = [draw_bytes(fast, n) for n in (5, 0, 130, 1)]
        assert b"".join(parts) == reference_draw(slow, 136)
        assert fast.getstate() == slow.getstate()


# -- (b) journals that must not move ------------------------------------------

#: sha256 of ``run_plan(7, i, "local")``'s journal text, recorded with
#: the per-call draw (the commit before ``draw_bytes``).
SEED7_JOURNALS = (
    "1e5200d1056b96e61839a1606b3327c5dbb547636322cf176a98619188d7d7f7",
    "bdde6470686e3d3fa3ea96404451054fb8e75f78f383d9a59f5a1292182b713e",
    "f1687b7619691c35cf5740f7e5cf65e47f02b257066b222d30cf99a0b45e4430",
    "c41f48264125fcdf2f2887ce7a38945748965576b3d8075163de9fdc1b6c7737",
    "15746ca926b76fe38dbc82523a82a5f2048f5a6511a6dd4a8a060f97150ec914",
    "354e9cd10d3edd186f2c233a2a6459a9e27d582ec549ebe5c758f3d7a3bfbc98",
    "f0b141afcc3bb7a195ab2e32c653c6894669db280633ec5d00cd81cd0534af5b",
    "91148d15623b018ac4af7220ff42808cd31a614f85ff45b858e0dacb118c5bd5",
    "25c579119a982809a78e5b2bf9b1f55eb519ab558809b1602fbe809769daa83b",
    "0ad4d44243800c2c0f46d7b8653705d3c0a0ec45ec0beec0b8a206d90092a85a",
    "c9fb07d6669340e8093250400a2048ce8f8535d57a8b5cb4eb59ad30a6ec6a5b",
    "c783f4ea6981f791be96b60605551d051f4ec5076bdf19d7e7df00527066a656",
    "6c2511564e7b16e4091a34dbca795555068184f8eb44e2969ecb0e1cfc1b0ff3",
    "4aa1ebd9ae251fcefd3680664a5fe63c55655fc9cd9aae4459713c4085d19903",
    "37c1b29392ac5062b4347935b7e2e041a8e51afe4d6b442a8ef943b988968203",
    "b107e2734af2d81acff843e48565896fc945dbde36df0bfb459b232f1a72f513",
    "7babc9463d71c606ac30d824d515207f0e5e3cc46ab4ebc485a8cedd0b8f096f",
    "531d7ee2ff7c91542986c053268e6046be5cfcf453cdf680715dd0642d73eca1",
    "82c03d0d9a983eec534844fe08586f93617715eb555b53e71aae4e7566303e66",
    "6918ba84fa201735cb8909ee00992a4a69ce36039c25d99bb58b9c0a7de7efd5",
)


class TestJournalsUnmoved:
    @pytest.mark.parametrize("index", range(len(SEED7_JOURNALS)))
    def test_seed7_plan_journal(self, index):
        lines, mismatches, violations = run_plan(7, index, "local")
        text = "\n".join(lines) + "\n"
        assert (mismatches, violations) == (0, 0), text
        assert hashlib.sha256(text.encode()).hexdigest() \
            == SEED7_JOURNALS[index], text


#: sha256 of ``run_fuzz(seed, 8).render()``, recorded with CPython 3.11.
FUZZ_REPORTS = {
    1: "f063c1a4166325696faf0e919e471ebbb55f11c6b56944fc3a43b533fcf94d2e",
    2: "e39c9a9421ab10ebf144e3235999c7d8f2663a6e9cdda3f273271086e4c6eab9",
}

#: sha256 of ``python -m repro chaos --seed 7 --plans 10 --placement
#: remote``'s stdout (the distributed fault family).
REMOTE_CHAOS_STDOUT = (
    "38eaf68a0a8bdcccc19f24da1e109b956ca5bc8728382118aebbdfc0f2be48cc")


class TestCampaignsUnmoved:
    @pytest.mark.parametrize("seed", sorted(FUZZ_REPORTS))
    def test_fuzz_report(self, seed):
        text = run_fuzz(seed, 8).render()
        assert hashlib.sha256(text.encode()).hexdigest() \
            == FUZZ_REPORTS[seed], text

    def test_remote_chaos_cli_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--seed", "7",
             "--plans", "10", "--placement", "remote"],
            capture_output=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() \
            == REMOTE_CHAOS_STDOUT, proc.stdout.decode()


# -- (c) exactly-repeating host-work counts -----------------------------------

#: ``randrange`` calls per chaos plan: 4,119 with the per-byte loop,
#: 23 without (workload parameters and the fault plan still draw).
MAX_RANDRANGE_PER_PLAN = 200

#: Calls into or out of ``recordreplay/logfile.py`` (Python functions
#: and builtins) per oracle round trip (encode → decode → re-encode):
#: 53.1 with the field-at-a-time decoder behind a generator, 33.1 with
#: one Struct unpack behind ``decode_record``.  Counted by file, so a
#: generator the collector happens to close mid-round-trip is not seen.
MAX_CODEC_CALLS_PER_ROUNDTRIP = 44
LOGFILE = "logfile.py"


def _counted_plans():
    counts = {"randrange": 0, "roundtrips": 0, "codec": 0}

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            if code.co_filename.endswith(LOGFILE):
                counts["codec"] += 1
            elif code.co_name == "_check_roundtrip":
                counts["roundtrips"] += 1
            elif code.co_name == "randrange":
                counts["randrange"] += 1
        elif event == "c_call" and code.co_filename.endswith(LOGFILE):
            counts["codec"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for index in range(10):
            run_plan(7, index, "local")
    finally:
        sys.setprofile(previous)
    return counts


class TestBookkeepingCounts:
    def test_counts_repeat_exactly_and_stay_under_their_ceilings(self):
        counts = _counted_plans()
        assert counts == _counted_plans()
        assert counts["roundtrips"] > 200
        assert counts["randrange"] / 10 < MAX_RANDRANGE_PER_PLAN
        assert counts["codec"] / counts["roundtrips"] \
            < MAX_CODEC_CALLS_PER_ROUNDTRIP
