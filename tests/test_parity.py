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
"""

from __future__ import annotations

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
    "chaos --quick",
    f"{CHAOS_REPLICATED} async",
    f"{CHAOS_REPLICATED} sync-one",
    f"{CHAOS_REPLICATED} quorum",
    "chaos --shards 2 --remote-pct 20 --txns 30 --seeds 3",
    "load --clients 1000000 --arrival poisson --events 300 --no-save",
    "load --clients 1000000 --arrival flash --mix read-write --events 300 --no-save",
    "load --clients 200 --events 240 --shards 2 --chaos coordinator-crash "
    "--timeout-ms 5 --retry 2 --shed 64 --no-save",
    "load --clients 200 --events 240 --replicas 2 --ack quorum --chaos mixed "
    "--retry 2 --no-save",
    "load --clients 200 --events 240 --chaos crash --retry 2 --no-save",
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


@pytest.mark.parametrize("command", PINNED)
def test_pinned_command_parity(command, tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    runs = {
        "A": _run(command, ["--jobs", "1"], tmp_path, PYTHONHASHSEED="0"),
        "B": _run(command, ["--sanitize"], tmp_path, PYTHONHASHSEED="7",
                  HOME=str(home), TZ="Pacific/Chatham"),
        "C": _run(command, ["--sanitize", "--jobs", "2"], tmp_path, PYTHONHASHSEED="0"),
    }
    for name, run in runs.items():
        assert run.returncode == 0, f"{name} exited {run.returncode}:\n{run.stderr}"
    assert runs["A"].stdout, "the pinned command printed nothing"
    assert runs["B"].stdout == runs["A"].stdout, "sanitized, hash seed 7 vs plain"
    assert runs["C"].stdout == runs["A"].stdout, "sanitized --jobs 2 vs plain"
    assert _sanitize_line(runs["B"].stderr) == _sanitize_line(runs["C"].stderr)
