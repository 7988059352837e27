"""The filesystem run store: one directory per run, append-only.

Layout (under ``benchmarks/store/`` by default)::

    benchmarks/store/
      load-2026-08-08-001/
        meta.json         # run_id, kind, created, fingerprint, summary
        spec.json         # the full spec the producer ran
        provenance.json   # git SHA, python, cpu, platform
        result.json       # the payload (points / replay / cells / panels)
        verdicts.json     # invariant/gate verdicts (when any)
        metrics.json      # obs metrics snapshot (when one rode along)

Run ids are ``<kind>-<date>-<seq>``: sortable, human-readable, unique
per store.  ``put`` never overwrites an existing run and there is no
delete — the store is the repository's append-only measurement
history, and the only one: ``perf`` and ``load`` write their records
nowhere else, and their ``--check`` gates read baselines from here.
Everything is plain JSON so runs diff cleanly in git and any
tool can read them without this package.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.store.schema import SCHEMA_VERSION, KINDS, RunRecord, summarize

DEFAULT_STORE_DIR = Path("benchmarks") / "store"

_SECTION_FILES = {
    "spec": "spec.json",
    "provenance": "provenance.json",
    "payload": "result.json",
    "verdicts": "verdicts.json",
    "metrics": "metrics.json",
}


def _dump(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def _load(path: Path):
    if not path.exists():
        return {}
    return json.loads(path.read_text())


class RunStore:
    """Append-only run database over a directory of per-run dirs."""

    def __init__(self, root: Path | str = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    # -- write ---------------------------------------------------------------

    def put(self, record: RunRecord) -> str:
        """Persist *record* as a new run directory; returns its run id."""
        self.root.mkdir(parents=True, exist_ok=True)
        date = (record.created or "0000-00-00")[:10] or "0000-00-00"
        prefix = f"{record.kind}-{date}-"
        seq = 1 + sum(
            1 for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith(prefix)
        )
        while (self.root / f"{prefix}{seq:03d}").exists():
            seq += 1
        run_id = f"{prefix}{seq:03d}"
        run_dir = self.root / run_id
        run_dir.mkdir()
        stamped = RunRecord(
            kind=record.kind,
            spec=record.spec,
            provenance=record.provenance,
            payload=record.payload,
            verdicts=record.verdicts,
            metrics=record.metrics,
            created=record.created,
            run_id=run_id,
        )
        _dump(run_dir / "spec.json", stamped.spec)
        _dump(run_dir / "provenance.json", stamped.provenance)
        _dump(run_dir / "result.json", stamped.payload)
        if stamped.verdicts:
            _dump(run_dir / "verdicts.json", stamped.verdicts)
        if stamped.metrics:
            _dump(run_dir / "metrics.json", stamped.metrics)
        _dump(
            run_dir / "meta.json",
            {
                "schema_version": SCHEMA_VERSION,
                "run_id": run_id,
                "kind": stamped.kind,
                "created": stamped.created,
                "fingerprint": stamped.fingerprint(),
                "summary": summarize(stamped),
            },
        )
        return run_id

    # -- read ----------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """Every run id, oldest first (date then sequence)."""
        if not self.root.is_dir():
            return []
        ids = [
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and (p / "meta.json").exists()
        ]

        def sort_key(run_id: str):
            kind, _, rest = run_id.partition("-")
            return (rest, kind)

        return sorted(ids, key=sort_key)

    def list_runs(self, kind: str | None = None) -> list[dict]:
        """Every run's ``meta.json`` (oldest first), optionally one kind."""
        if kind is not None and kind not in KINDS:
            raise KeyError(
                f"unknown run kind {kind!r}; known: {', '.join(KINDS)}"
            )
        metas = []
        for run_id in self.run_ids():
            meta = _load(self.root / run_id / "meta.json")
            if kind is None or meta.get("kind") == kind:
                metas.append(meta)
        return metas

    def get(self, run_id: str) -> RunRecord:
        """The full :class:`RunRecord` for *run_id* (KeyError if absent)."""
        run_dir = self.root / run_id
        meta_path = run_dir / "meta.json"
        if not meta_path.exists():
            raise KeyError(f"no run {run_id!r} in {self.root}")
        meta = _load(meta_path)
        return RunRecord(
            kind=meta.get("kind", ""),
            spec=_load(run_dir / "spec.json"),
            provenance=_load(run_dir / "provenance.json"),
            payload=_load(run_dir / "result.json"),
            verdicts=_load(run_dir / "verdicts.json"),
            metrics=_load(run_dir / "metrics.json"),
            created=meta.get("created", ""),
            run_id=run_id,
        )

    def meta(self, run_id: str) -> dict:
        meta_path = self.root / run_id / "meta.json"
        if not meta_path.exists():
            raise KeyError(f"no run {run_id!r} in {self.root}")
        return _load(meta_path)
