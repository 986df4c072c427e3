"""The engine's scheduler against its committed golden fixture.

Randomized SPMD programs must reproduce the captured makespan, rank
results, per-rank per-label seconds, scheduler counters and event
timelines bit for bit.  See :mod:`tests.simmpi.sched_golden`.
"""

import json

import pytest

from tests.simmpi.sched_golden import FIXTURE, run

CASES = json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_matches_golden(case):
    got = run(case)
    assert got["elapsed"] == case["elapsed"]
    assert got["results"] == case["results"]
    assert got["by_label"] == case["by_label"]
    assert got["sched"] == case["sched"]
    assert got["events_sha"] == case["events_sha"]
