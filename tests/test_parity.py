"""Byte parity of the pinned ``repro-bench`` commands.

One table, one check.  Each pinned command runs in three fresh
processes that differ only in what must not matter:

* **A**: plain, ``--jobs 1``, ``PYTHONHASHSEED=0``;
* **B**: ``--sanitize``, ``PYTHONHASHSEED=7``, another ``HOME`` and ``TZ``;
* **C**: ``--sanitize --jobs 2``, ``PYTHONHASHSEED=0``.

Every run must exit 0, stdout must be byte-identical across the three,
and B's stderr ``[sanitize ...]`` line (streams, draws, violations) must
equal C's.  A wall-clock read, OS entropy, an environment variable or a
hash-order dependence that reaches a simulated result shows up here as
a stdout difference, whatever path it took to get there.

The ``RECORDED`` commands write a store run instead, each variant into
its own ``--store-dir``.  On top of the checks above, the three runs'
``meta.json`` fingerprints must be equal and their ``result.json``
files byte-equal, so what a run records is held to the same contract
as what it prints.  The ``store: <run id>`` line is left out of the
stdout comparison: the run id carries the local date, and B runs in
another time zone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHAOS_REPLICATED = "chaos --quick --systems shore --workloads micro tpcc --replicas 2 --ack"

PINNED = [
    "fig1 --quick",
    # Shore-MT TPC-C's L2D and total cells moved with the hash seed
    # while LockManager.release_all iterated a set.
    "fig12 --quick",
    # Two views of one experiment, one of them an x-value subset.
    "fig2 fig3 --quick",
    # The storage paths the pins above miss: 4-partition VoltDB TPC-C
    # with range scans (fig17), String keys (fig15), DBMS M's hash and
    # cc_btree index variants (fig14).
    "fig14 fig15 fig17 --quick",
    "chaos --quick",
    f"{CHAOS_REPLICATED} async",
    f"{CHAOS_REPLICATED} sync-one",
    f"{CHAOS_REPLICATED} quorum",
    "chaos --shards 2 --remote-pct 20 --txns 30 --seeds 3",
    # Shards that are replication groups, not bare primaries.
    "chaos --shards 2 --replicas 2 --ack quorum --remote-pct 20 --txns 30 --seeds 2",
    "load --clients 1000000 --arrival poisson --events 300 --no-save",
    "load --clients 1000000 --arrival flash --mix read-write --events 300 --no-save",
    "load --clients 200 --events 240 --shards 2 --chaos coordinator-crash "
    "--timeout-ms 5 --retry 2 --shed 64 --no-save",
    "load --clients 200 --events 240 --replicas 2 --ack quorum --chaos mixed "
    "--retry 2 --no-save",
    "load --clients 200 --events 240 --chaos crash --retry 2 --no-save",
]


RECORDED = [
    "fig1 --quick --record",
    "load --clients 2000 --events 80",
]


def _run(command: str, extra: list[str], cwd: Path, **env_overrides: str):
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *command.split(), *extra],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def _sanitize_line(stderr: str) -> str:
    lines = [line for line in stderr.splitlines() if line.startswith("[sanitize ")]
    assert len(lines) == 1, stderr
    return lines[0]


def _run_variants(command: str, tmp_path: Path, extra=lambda name: []) -> dict:
    """A, B and C as the module docstring describes; *extra* adds
    per-variant arguments."""
    home = tmp_path / "home"
    home.mkdir()
    runs = {
        "A": _run(command, ["--jobs", "1", *extra("A")], tmp_path, PYTHONHASHSEED="0"),
        "B": _run(command, ["--sanitize", *extra("B")], tmp_path, PYTHONHASHSEED="7",
                  HOME=str(home), TZ="Pacific/Chatham"),
        "C": _run(command, ["--sanitize", "--jobs", "2", *extra("C")], tmp_path,
                  PYTHONHASHSEED="0"),
    }
    for name, run in runs.items():
        assert run.returncode == 0, f"{name} exited {run.returncode}:\n{run.stderr}"
    assert _sanitize_line(runs["B"].stderr) == _sanitize_line(runs["C"].stderr)
    return runs


def _assert_same_stdout(stdouts: dict[str, str]) -> None:
    assert stdouts["A"], "the pinned command printed nothing"
    assert stdouts["B"] == stdouts["A"], "sanitized, hash seed 7 vs plain"
    assert stdouts["C"] == stdouts["A"], "sanitized --jobs 2 vs plain"


@pytest.mark.parametrize("command", PINNED)
def test_pinned_command_parity(command, tmp_path):
    runs = _run_variants(command, tmp_path)
    _assert_same_stdout({name: run.stdout for name, run in runs.items()})


@pytest.mark.parametrize("command", RECORDED)
def test_recorded_command_parity(command, tmp_path):
    stores = {name: tmp_path / f"store-{name}" for name in "ABC"}
    runs = _run_variants(
        command, tmp_path, lambda name: ["--store-dir", str(stores[name])]
    )
    _assert_same_stdout({
        name: "".join(
            line for line in run.stdout.splitlines(keepends=True)
            if not line.startswith("store: ")
        )
        for name, run in runs.items()
    })
    recorded = {}
    for name, store in stores.items():
        (run_dir,) = [meta.parent for meta in store.glob("*/meta.json")]
        recorded[name] = (
            json.loads((run_dir / "meta.json").read_text())["fingerprint"],
            (run_dir / "result.json").read_bytes(),
        )
    for name in "BC":
        assert recorded[name][0] == recorded["A"][0], f"fingerprint, {name} vs A"
        assert recorded[name][1] == recorded["A"][1], f"result.json, {name} vs A"
