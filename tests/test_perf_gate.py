"""The ``repro-bench perf --check`` gate compares like with like.

A prior record is a baseline only if it was taken with the same
``quick`` flag on a host with the same Python, implementation, CPU
count and platform.  The fresh measurement is planted, so these tests
exercise the gate without timing anything.
"""

import json

import pytest

from repro.bench import perf

HOST = {
    "git_sha": "a" * 40,
    "python": "3.12.1",
    "implementation": "CPython",
    "cpu_count": 2,
    "platform": "Linux-6.1-x86_64",
}


def record(events_per_sec: float, *, quick: bool = True, **provenance) -> dict:
    return {
        "date": "2026-01-01",
        "quick": quick,
        "provenance": {**HOST, **provenance},
        "replay": {"events_per_sec": events_per_sec, "events_per_round": 1, "rounds": 1},
        "engine": {"txns_per_sec": 1.0, "txns": 1},
        "figure_sweep": {"wall_s": 1.0, "figures": ["fig13"], "jobs": 1},
    }


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Run ``perf --check`` over planted prior records and a planted run."""

    def run(prior: list[dict], fresh: dict) -> tuple[str, bool]:
        (tmp_path / "BENCH_2026-01-01.json").write_text(json.dumps(prior))
        monkeypatch.setattr(perf, "collect_record", lambda quick, jobs: fresh)
        return perf.run_perf(quick=fresh["quick"], records_dir=tmp_path, check=True, save=False)

    return run


def test_faster_record_from_another_machine_does_not_trip(gate):
    prior = [record(10e6, cpu_count=64, platform="Linux-6.8-aarch64")]
    text, ok = gate(prior, record(1e6))
    assert ok
    assert "no comparable baseline" in text


def test_two_times_slower_on_same_machine_trips(gate):
    text, ok = gate([record(2e6, git_sha="b" * 40)], record(1e6))
    assert not ok
    assert "REGRESSION" in text


def test_quick_flag_must_match(gate):
    text, ok = gate([record(2e6, quick=False)], record(1e6))
    assert ok
    assert "no comparable baseline" in text


def test_baseline_is_best_comparable_record():
    records = [
        record(3e6),
        record(9e6, python="3.10.0"),
        record(8e6, implementation="PyPy"),
        record(7e6, quick=False),
        {"quick": True, "replay": {"events_per_sec": 6e6}},  # no provenance
        record(4e6, git_sha=None),
    ]
    assert perf.baseline_events_per_sec(records, quick=True, host=HOST) == 4e6
    assert perf.baseline_events_per_sec(records[1:3], quick=True, host=HOST) is None
