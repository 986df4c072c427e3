"""The real-payload pipeline against its committed golden fixture.

Virtual time (per-rank clocks, per-step seconds, scheduler counters)
and the traced event timeline must match the capture bit for bit on
every case.  Spectra must match
the captured digest, or — for the cases whose spectra the kernel
changes since the capture moved at round-off — the recorded
``spectrum_sha_after``.  See :mod:`tests.core.payload_golden`.
"""

import json

import pytest

from tests.core import payload_golden
from tests.core.payload_golden import FIXTURE, annotate, run

CASES = json.loads(FIXTURE.read_text())["cases"]
BY_ID = {case["id"]: case for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_matches_golden(case):
    got = run(case)
    assert got["clocks"] == case["clocks"]
    assert got["by_label"] == case["by_label"]
    assert got["by_label_sha"] == case["by_label_sha"]
    assert got["sched"] == case["sched"]
    assert got["events_sha"] == case["events_sha"]
    assert got["spectrum_sha"] == case.get("spectrum_sha_after", case["spectrum_sha"])
    assert got["err"] <= 1e-11


def test_tilings_agree_bitwise():
    # Same input, two tilings: every FFTy sub-tile a single row
    # (Px = Pz = 1), and 2 x 2 blocks.  Their spectra must agree bit for bit.
    one_row = dict(BY_ID["13x13x13-p1-NEW-11"], id="13x13x13-p1-tiling")
    blocked = dict(BY_ID["13x13x13-p1-NEW-22"], id="13x13x13-p1-tiling")
    assert run(one_row)["spectrum_sha"] == run(blocked)["spectrum_sha"]


def test_annotate_sets_and_drops_after_fields(monkeypatch):
    # A case whose spectrum matches its capture again loses its stale
    # *_after fields; one whose spectrum moved gets them (re)set.
    spectra = {"back": "s0", "moved": "s2"}
    monkeypatch.setattr(payload_golden, "run", lambda case: {
        "spectrum_sha": spectra[case["id"]], "err": 0.5})
    data = {"cases": [
        {"id": "back", "spectrum_sha": "s0", "spectrum_sha_after": "s1",
         "err_after": 1.0},
        {"id": "moved", "spectrum_sha": "s0", "spectrum_sha_after": "s1",
         "err_after": 1.0},
    ]}
    assert annotate(data)["cases"] == [
        {"id": "back", "spectrum_sha": "s0"},
        {"id": "moved", "spectrum_sha": "s0", "spectrum_sha_after": "s2",
         "err_after": 0.5},
    ]
