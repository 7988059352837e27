"""Machine-checkable acceptance criteria for every regenerated figure.

EXPERIMENTS.md records the paper-vs-measured comparison in prose; this
module encodes the same per-figure shape criteria as predicates over
:class:`~repro.bench.results.FigureResult`, so a single command audits
the whole reproduction:

```
python -m repro.bench validate --quick
```

Checks assert *shapes* (orderings, dominant components, trends), never
absolute values — the matching standard of EXPERIMENTS.md.  Known
deviations (EXPERIMENTS.md "Summary of deviations") are not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.results import FigureResult

IN_MEMORY = ("VoltDB", "HyPer", "DBMS M")
INTERPRETED = ("Shore-MT", "DBMS D", "VoltDB", "DBMS M")


@dataclass(frozen=True)
class Check:
    """One verified claim about one figure."""

    figure_id: str
    claim: str
    passed: bool
    details: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.details})" if self.details and not self.passed else ""
        return f"[{mark}] {self.figure_id}: {self.claim}{tail}"


def _check(figure: FigureResult, claim: str, predicate: Callable[[], bool]) -> Check:
    try:
        ok = bool(predicate())
        details = ""
    except Exception as exc:  # a crashed predicate is a failed check
        ok = False
        details = f"{type(exc).__name__}: {exc}"
    return Check(figure.figure_id, claim, ok, details)


def _series(figure: FigureResult, system: str) -> list[float]:
    return figure.series(system)


def _decreasing(values: list[float], slack: float = 0.02) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _increasing(values: list[float], slack: float = 0.02) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


# -- per-figure criteria ------------------------------------------------------


def ipc_size(figure: FigureResult) -> list[Check]:
    """Figures 1 / 20."""
    small, big = figure.x_values[0], figure.x_values[-1]
    return [
        _check(figure, "IPC does not rise as data outgrows the LLC", lambda: all(
            figure.value(s, big) <= figure.value(s, small) + 0.03 for s in figure.systems
        )),
        _check(figure, "HyPer ~2x everyone when data fits the LLC", lambda: all(
            figure.value("HyPer", small) > 1.8 * figure.value(s, small)
            for s in figure.systems if s != "HyPer"
        )),
        _check(figure, "HyPer lowest IPC when data exceeds the LLC", lambda: all(
            figure.value("HyPer", big) < figure.value(s, big)
            for s in figure.systems if s != "HyPer"
        )),
        _check(figure, "IPC barely reaches 1 on the 4-wide machine", lambda: all(
            figure.value(s, big) < 1.25 for s in figure.systems
        )),
        _check(figure, "VoltDB above DBMS M", lambda: all(
            figure.value("VoltDB", x) > figure.value("DBMS M", x) - 0.02
            for x in figure.x_values
        )),
    ]


def stalls_size(figure: FigureResult) -> list[Check]:
    """Figures 2 / 21."""
    small, big = figure.x_values[0], figure.x_values[-1]
    checks = [
        _check(figure, "L1I dominates every interpreted system", lambda: all(
            figure.breakdown(s, big).l1i == max(figure.breakdown(s, big).as_dict().values())
            for s in INTERPRETED
        )),
        _check(figure, "HyPer is data-only (no instruction stalls)", lambda: (
            figure.breakdown("HyPer", big).l1i < 20
            and figure.breakdown("HyPer", big).llcd
            == max(figure.breakdown("HyPer", big).as_dict().values())
        )),
        _check(figure, "no LLC data stalls while data fits the LLC", lambda: all(
            figure.breakdown(s, small).llcd < 20 for s in figure.systems
        )),
        _check(figure, "DBMS D has the worst instruction stalls", lambda: all(
            1.05 * figure.breakdown("DBMS D", big).instruction_total
            >= figure.breakdown(s, big).instruction_total
            for s in figure.systems
        )),
        _check(figure, "Shore-MT instruction stalls well below DBMS D", lambda: (
            figure.breakdown("Shore-MT", big).instruction_total
            < 0.75 * figure.breakdown("DBMS D", big).instruction_total
        )),
    ]
    return checks


def stalls_txn_100gb(figure: FigureResult) -> list[Check]:
    """Figures 3 / 22."""
    x = figure.x_values[0]
    return [
        _check(figure, "Shore-MT has the highest LLC-D per transaction", lambda: all(
            figure.breakdown("Shore-MT", x).llcd >= figure.breakdown(s, x).llcd
            for s in figure.systems
        )),
        _check(figure, "DBMS D has the highest instruction stalls per txn", lambda: all(
            figure.breakdown("DBMS D", x).l1i >= figure.breakdown(s, x).l1i
            for s in figure.systems
        )),
        _check(figure, "HyPer has the lowest total stalls per txn", lambda: all(
            figure.breakdown("HyPer", x).total <= figure.breakdown(s, x).total
            for s in figure.systems
        )),
        _check(figure, "DBMS M's L1I exceeds the other in-memory systems'", lambda: (
            figure.breakdown("DBMS M", x).l1i > figure.breakdown("VoltDB", x).l1i
            and figure.breakdown("DBMS M", x).l1i > figure.breakdown("HyPer", x).l1i
        )),
    ]


def ipc_rows(figure: FigureResult) -> list[Check]:
    """Figures 4 / 23 (DBMS M's 100-row recovery is a known deviation)."""
    return [
        _check(figure, "VoltDB IPC declines with rows", lambda: _decreasing(
            _series(figure, "VoltDB"), slack=0.03
        )),
        _check(figure, "HyPer IPC declines with rows", lambda: _decreasing(
            _series(figure, "HyPer")
        )),
        _check(figure, "disk-based IPC does not decline materially", lambda: (
            _series(figure, "DBMS D")[-1] >= _series(figure, "DBMS D")[0] - 0.03
            and _series(figure, "Shore-MT")[-1] >= _series(figure, "Shore-MT")[0] - 0.1
        )),
        _check(figure, "DBMS M declines from 1 to 10 rows", lambda: (
            figure.value("DBMS M", "10") < figure.value("DBMS M", "1") + 0.02
        )),
    ]


def stalls_rows(figure: FigureResult) -> list[Check]:
    """Figures 5 / 24."""
    first, last = figure.x_values[0], figure.x_values[-1]
    return [
        _check(figure, "instruction stalls per kI fall with rows", lambda: all(
            figure.breakdown(s, last).instruction_total
            <= figure.breakdown(s, first).instruction_total + 5
            for s in figure.systems
        )),
        _check(figure, "data stalls per kI grow with rows", lambda: all(
            figure.breakdown(s, last).llcd >= figure.breakdown(s, first).llcd
            for s in figure.systems
        )),
        _check(figure, "HyPer's data stalls are the highest throughout", lambda: all(
            figure.breakdown("HyPer", x).llcd >= figure.breakdown(s, x).llcd
            for x in figure.x_values for s in figure.systems
        )),
        _check(figure, "DBMS M instruction stalls still high at 10 rows", lambda: (
            figure.breakdown("DBMS M", "10").l1i
            > figure.breakdown("VoltDB", "10").l1i
        )),
    ]


def stalls_txn_rows(figure: FigureResult) -> list[Check]:
    """Figures 6 / 25."""
    return [
        _check(figure, "LLC-D per txn grows ~linearly with rows", lambda: all(
            30 < figure.breakdown(s, "100").llcd / max(1.0, figure.breakdown(s, "1").llcd) < 300
            for s in figure.systems
        )),
        _check(figure, "Shore-MT's data stalls per txn are the largest at 100 rows",
               lambda: all(
                   figure.breakdown("Shore-MT", "100").llcd
                   >= figure.breakdown(s, "100").llcd for s in figure.systems
               )),
        _check(figure, "instruction stalls per txn rise with rows (disk-based)", lambda: all(
            figure.breakdown(s, "100").l1i > figure.breakdown(s, "1").l1i
            for s in ("Shore-MT", "DBMS D")
        )),
        _check(figure, "HyPer's instruction stalls stay ~zero", lambda: all(
            figure.breakdown("HyPer", x).instruction_total < 100 for x in figure.x_values
        )),
    ]


def engine_share(figure: FigureResult) -> list[Check]:
    return [
        _check(figure, "engine share rises with rows for every system", lambda: all(
            _increasing(_series(figure, s), slack=1.0) for s in figure.systems
        )),
        _check(figure, "DBMS M has the lowest engine share at each row count", lambda: all(
            figure.value("DBMS M", x) <= figure.value(s, x) + 1.0
            for x in figure.x_values for s in figure.systems
        )),
    ]


def tpc_ipc(figure: FigureResult) -> list[Check]:
    x = figure.x_values[0]
    checks = [
        _check(figure, "IPC stays in the sub-1.25 regime", lambda: all(
            figure.value(s, x) < 1.25 for s in figure.systems
        )),
    ]
    if x == "TPC-C":
        checks.append(
            _check(figure, "HyPer has the lowest TPC-C IPC", lambda: all(
                figure.value("HyPer", x) < figure.value(s, x)
                for s in figure.systems if s != "HyPer"
            ))
        )
    return checks


def tpc_stalls(figure: FigureResult) -> list[Check]:
    x = figure.x_values[0]
    # TPC-B is instruction-dominated for every interpreted system; in
    # TPC-C the lean in-memory engines amortise their code so far that
    # data stalls catch up (Section 5.2.2) — assert dominance only for
    # the SQL-stack disk-based systems there.
    dominated = INTERPRETED if x == "TPC-B" else ("Shore-MT", "DBMS D")
    checks = [
        _check(figure, "instruction stalls dominate the disk-based stacks", lambda: all(
            figure.breakdown(s, x).instruction_total > figure.breakdown(s, x).data_total
            for s in dominated if s in figure.systems
        )),
    ]
    if "HyPer" in figure.systems:
        if x == "TPC-B":
            checks.append(
                _check(figure, "no interpreted system suffers severe LLC-D", lambda: all(
                    figure.breakdown(s, x).llcd < 150
                    for s in INTERPRETED
                ))
            )
        else:
            checks.append(
                _check(figure, "HyPer's LLC-D is high again for TPC-C", lambda: (
                    figure.breakdown("HyPer", x).llcd > 500
                ))
            )
    return checks


def tpcc_stalls_txn(figure: FigureResult) -> list[Check]:
    x = figure.x_values[0]
    return [
        _check(figure, "DBMS D's instruction stalls per txn are the highest", lambda: all(
            figure.breakdown("DBMS D", x).l1i >= figure.breakdown(s, x).l1i
            for s in figure.systems
        )),
        _check(figure, "Shore-MT second, DBMS M third (but still large)", lambda: (
            figure.breakdown("Shore-MT", x).l1i > figure.breakdown("DBMS M", x).l1i
            > figure.breakdown("VoltDB", x).l1i
        )),
    ]


def index_compilation(figure: FigureResult) -> list[Check]:
    """Figures 13 / 26 (micro) and 14 (TPC-C)."""
    hash_on, hash_off = "Hash w/ compilation", "Hash w/o compilation"
    bt_on, bt_off = "B-tree w/ compilation", "B-tree w/o compilation"
    sys = figure.systems[0]
    checks = [
        _check(figure, "compilation cuts instruction stalls (hash)", lambda: (
            figure.breakdown(sys, hash_on).instruction_total
            < 0.8 * figure.breakdown(sys, hash_off).instruction_total
        )),
        _check(figure, "compilation cuts instruction stalls (B-tree)", lambda: (
            figure.breakdown(sys, bt_on).instruction_total
            < 0.8 * figure.breakdown(sys, bt_off).instruction_total
        )),
    ]
    if figure.figure_id == "Figure 14":
        checks.append(
            _check(figure, "uncompiled B-tree has the worst instruction stalls", lambda: (
                figure.breakdown(sys, bt_off).l1i
                > 1.2 * figure.breakdown(sys, hash_off).l1i
            ))
        )
    else:
        checks.append(
            _check(figure, "B-tree data stalls 1.5x+ the hash index's", lambda: (
                figure.breakdown(sys, bt_on).llcd
                > 1.5 * figure.breakdown(sys, hash_on).llcd
            ))
        )
    return checks


def data_types(figure: FigureResult) -> list[Check]:
    """Figures 15 / 27."""
    strict = figure.figure_id == "Figure 15"
    margin = 0.0 if strict else 25.0
    return [
        _check(figure, "HyPer: String data stalls not above Long's", lambda: (
            figure.breakdown("HyPer", "String").llcd
            <= figure.breakdown("HyPer", "Long").llcd + margin
        )),
        _check(figure, "DBMS M shows no significant difference", lambda: (
            abs(
                figure.breakdown("DBMS M", "String").llcd
                - figure.breakdown("DBMS M", "Long").llcd
            )
            < 40
        )),
    ]


def multithreaded_ipc(figure: FigureResult) -> list[Check]:
    x = figure.x_values[0]
    return [
        _check(figure, "multi-threaded IPC stays below ~1", lambda: all(
            figure.value(s, x) < 1.25 for s in figure.systems
        )),
    ]


def multithreaded_stalls(figure: FigureResult) -> list[Check]:
    x = figure.x_values[0]
    return [
        _check(figure, "instruction stalls still dominate the legacy systems", lambda: all(
            figure.breakdown(s, x).l1i > figure.breakdown(s, x).llcd
            for s in ("Shore-MT", "DBMS D")
        )),
    ]


def validate_figure(figure: FigureResult) -> list[Check]:
    """Run the acceptance criteria the figure table lists for one figure."""
    from repro.bench.figures import FIGURES, View, figure_key

    try:
        view = FIGURES[figure_key(figure.figure_id)]
    except KeyError:
        return []
    return view.validator(figure) if isinstance(view, View) else []


def validate_all(quick: bool = True, figure_ids: list[str] | None = None) -> list[Check]:
    """Regenerate figures and run every registered criterion."""
    from repro.bench.figures import ALL_IDS, run_figures

    ids = figure_ids or [i for i in ALL_IDS if i != "table1"]
    checks: list[Check] = []
    for result in run_figures(ids, quick=quick):
        if isinstance(result, str):
            continue
        for panel in result:
            checks.extend(validate_figure(panel))
    return checks


def render_checks(checks: list[Check]) -> str:
    lines = [check.render() for check in checks]
    passed = sum(1 for c in checks if c.passed)
    lines.append("")
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
