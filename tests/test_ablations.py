"""Ablations and extensions: the paper's trade-offs, swept one knob at a
time on the quick profile.

Each test runs a small sweep, prints it (``pytest -s`` shows the table)
and asserts the shape the paper argues for.  EXPERIMENTS.md cites these
outputs.
"""

from repro.analysis import (
    render_skew,
    render_sweep,
    sweep_core_width,
    sweep_l1i_size,
    sweep_llc_size,
    sweep_skew,
)
from repro.bench.runner import ExperimentRunner, RunSpec
from repro.codegen.compiler import CompilerProfile, TransactionCompiler
from repro.core.cpu import DEFAULT_OVERLAP, OverlapModel
from repro.core.tlb import HUGE_PAGE_DTLB
from repro.engines.config import EngineConfig
from repro.engines.dbms_m import DBMSM
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.tpce_lite import TPCELite


def micro_100gb(**kw):
    return lambda: MicroBenchmark(db_bytes=100 << 30, **kw)


def run(spec: RunSpec, factory=None):
    return ExperimentRunner(spec.quick(), factory or micro_100gb()).run()


# -- compilation aggressiveness ----------------------------------------------
#
# HyPer compiles to ~3% of the interpreted footprint, DBMS M to ~18%
# (Section 6.1's "less aggressively than HyPer").  Sweeping DBMS M's
# compiled-footprint factor shows the trade-off forming: instruction
# stalls fall as compilation gets more aggressive, while data stalls per
# kilo-instruction rise because each instruction carries more random
# accesses.

COMPILE_FACTORS = [0.05, 0.18, 0.60]


def run_compile_variant(factor: float, monkeypatch):
    profile = CompilerProfile(
        name=f"sweep-{factor}",
        footprint_factor=factor,
        min_footprint_bytes=2048,
        branches_per_kilo_instruction=90.0,
        mispredict_rate=0.02,
    )
    # The engine reads its compiler from the class; each booted engine
    # memoises its own compiled modules, so a fresh run sees the profile.
    monkeypatch.setattr(DBMSM, "compiler", TransactionCompiler(profile))
    config = EngineConfig(index_kind="hash", compilation=True)
    result = run(RunSpec(system="dbms-m", engine_config=config), micro_100gb(rows_per_txn=10))
    per_txn = result.stalls_per_transaction
    per_ki = result.stalls_per_kilo_instruction
    return per_txn.instruction_total, per_ki.llcd


def test_compilation_aggressiveness(monkeypatch):
    results = {f: run_compile_variant(f, monkeypatch) for f in COMPILE_FACTORS}
    print()
    for factor, (instr, llcd) in results.items():
        print(f"  footprint factor {factor:.2f}   I-stalls/txn={instr:7.0f}   LLC-D/kI={llcd:6.0f}")
    # More aggressive compilation -> fewer instruction stalls per txn ...
    assert results[0.05][0] < results[0.60][0]
    # ... and relatively more data stalls per instruction.
    assert results[0.05][1] > results[0.60][1]


# -- index node size ---------------------------------------------------------
#
# VoltDB's tree node size from one cache line up to a disk page, holding
# everything else fixed: the cache-conscious-index choice the paper
# credits for the in-memory systems' low data stalls (Sections 4.1.3,
# 6.1).  Lines touched per probe, and so LLC-D stalls, grow with node
# size.

NODE_SIZES = [256, 1024, 8192]


def test_node_size_ablation():
    results = {}
    for nb in NODE_SIZES:
        config = EngineConfig(index_kind="cc_btree", node_bytes=nb)
        result = run(RunSpec(system="voltdb", engine_config=config), micro_100gb(rows_per_txn=10))
        results[nb] = (result.stalls_per_kilo_instruction.llcd, result.ipc)
    print()
    for nb, (llcd, ipc) in results.items():
        print(f"  VoltDB node={nb:>5}B   LLC-D/kI={llcd:6.0f}   IPC={ipc:.2f}")
    assert results[8192][0] > results[256][0] * 1.3  # disk pages stall more


# -- dependence-aware overlap ------------------------------------------------
#
# The cycle model exposes the full latency of pointer-chasing (serial)
# LLC misses and overlaps independent ones.  HyPer's 100 GB micro cell
# under three overlap assumptions shows that the paper's HyPer collapse
# (IPC ~0.4 at 100 GB) appears only once dependent misses are charged
# their full latency.

OVERLAP_VARIANTS = {
    # (overlap model, serial-miss surcharge override)
    "all-overlapped": (OverlapModel(l1d=0.1, l2d=0.1, llcd=0.1, llcd_serial=0.3), 0),
    "calibrated (default)": (DEFAULT_OVERLAP, None),
    "no-overlap": (OverlapModel(l1d=1.0, l2d=1.0, llcd=1.0, llcd_serial=1.0), None),
}


def test_overlap_model_ablation():
    ipcs = {
        name: run(RunSpec(system="hyper", overlap=overlap, serial_miss_extra_cycles=extra)).ipc
        for name, (overlap, extra) in OVERLAP_VARIANTS.items()
    }
    print()
    for name, ipc in ipcs.items():
        print(f"  HyPer @100GB, {name:<22} IPC = {ipc:.2f}")
    # Monotone: more exposed latency -> lower IPC; and the calibrated
    # model sits in the paper's band while all-overlapped does not.
    assert ipcs["all-overlapped"] > ipcs["calibrated (default)"] > ipcs["no-overlap"]
    assert ipcs["calibrated (default)"] < 0.7
    assert ipcs["all-overlapped"] > 0.9


# -- calibrated TLB surcharge vs a simulated dTLB ----------------------------
#
# The default cycle model charges a calibrated constant per
# pointer-chasing LLC miss for its dTLB walk.  Swapping in the
# two-level dTLB model (repro.core.tlb) shows (a) the constant is a good
# stand-in for measured page walks at 100 GB, and (b) 2 MB huge pages, a
# co-design lever in the spirit of Section 8, claw back a share of them.

TLB_VARIANTS = {
    "constant surcharge": {},
    "measured dTLB (4KB pages)": {"tlb_mode": "measured"},
    "measured dTLB (2MB pages)": {"tlb_mode": "measured", "tlb_spec": HUGE_PAGE_DTLB},
}


def test_tlb_model_ablation():
    results = {name: run(RunSpec(system="hyper", **kw)) for name, kw in TLB_VARIANTS.items()}
    print()
    for name, result in results.items():
        walks = result.counters.dtlb_walks / max(1, result.counters.transactions)
        print(f"  HyPer @100GB, {name:<28} IPC={result.ipc:.2f}  walks/txn={walks:.1f}")

    const = results["constant surcharge"].ipc
    measured = results["measured dTLB (4KB pages)"].ipc
    huge = results["measured dTLB (2MB pages)"].ipc
    # (a) the calibrated constant approximates the measured walks;
    assert abs(measured - const) / const < 0.35
    # (b) huge pages cut walks and lift IPC — but only partially: even
    # 2MB pages cannot map a 100GB working set into a 512-entry STLB,
    # which is itself a Section 8-flavoured finding.
    assert huge > measured * 1.05
    assert (
        results["measured dTLB (2MB pages)"].counters.dtlb_walks
        < 0.85 * results["measured dTLB (4KB pages)"].counters.dtlb_walks
    )


# -- VoltDB's single-sited optimisation --------------------------------------
#
# Section 7's side note: "If we do not ensure single-site transactions,
# the instruction stalls of VoltDB increase significantly (by ~60%)."
# The engine model carries the multi-partition path behind
# ``single_sited=False``.


def test_single_sited_ablation():
    results = {
        name: run(
            RunSpec(system="voltdb", engine_config=EngineConfig(single_sited=sited))
        ).stalls_per_kilo_instruction.instruction_total
        for name, sited in (("single-sited", True), ("multi-partition", False))
    }
    increase = results["multi-partition"] / results["single-sited"] - 1.0
    print()
    for name, stalls in results.items():
        print(f"  VoltDB {name:<16} I-stalls/kI = {stalls:.0f}")
    print(f"  increase without single-siting: {increase:.0%} (paper: ~60%)")
    assert 0.25 < increase < 1.2


# -- Section 8's hardware implications, measured -----------------------------
#
# The paper argues these; the simulator runs the L1I-size, LLC-size and
# core-width sweeps of repro.analysis.hardware_sweep.


def test_hardware_implications():
    base_d = RunSpec(system="dbms-d").quick()
    base_h = RunSpec(system="hyper").quick()
    sweeps = {
        "l1i": sweep_l1i_size(base_d, micro_100gb(), sizes_kb=(32, 64, 128)),
        "llc": sweep_llc_size(base_h, micro_100gb(), sizes_mb=(20, 40, 80)),
        "width": sweep_core_width(base_d, micro_100gb(), ideal_ipcs=(1.5, 3.0)),
    }
    print()
    print(render_sweep("DBMS D @100GB micro: L1I sweep", sweeps["l1i"]))
    print()
    print(render_sweep("HyPer @100GB micro: LLC sweep", sweeps["llc"]))
    print()
    print(render_sweep("DBMS D @100GB micro: core-width sweep", sweeps["width"]))

    # Claim (a): a big L1I fixes what software could not.
    assert sweeps["l1i"][-1].l1i_stalls_per_ki < 0.4 * sweeps["l1i"][0].l1i_stalls_per_ki
    # Claim (b): 4x the LLC barely moves a 100GB working set.
    assert sweeps["llc"][-1].ipc < 1.4 * sweeps["llc"][0].ipc
    # Claim (c): halving core width costs little.
    assert sweeps["width"][0].ipc > 0.6 * sweeps["width"][1].ipc


# -- access skew (beyond the paper) ------------------------------------------
#
# The paper blames HyPer's collapse on requests with no data locality;
# Zipf skew quantifies how much locality restores it.


def test_skew_sweep():
    points = sweep_skew("hyper", thetas=(0.0, 0.5, 0.8, 0.95), quick=True)
    print()
    print(render_skew(points))
    # Monotone recovery: hotter keys -> fewer LLC-D stalls -> higher IPC.
    assert points[-1].ipc > points[0].ipc
    assert points[-1].llcd_stalls_per_ki < points[0].llcd_stalls_per_ki


# -- TPC-E-lite: the paper's omission rationale ------------------------------
#
# The paper skips TPC-E because [6, 29] showed it behaves like TPC-B and
# TPC-C micro-architecturally: L1I-dominated stalls for the interpreted
# engine and IPC below 1.


def test_tpce_behaves_like_tpcb_tpcc():
    results = {
        system: run(RunSpec(system=system), lambda: TPCELite(db_bytes=100 << 30))
        for system in ("dbms-d", "voltdb")
    }
    print()
    for system, result in results.items():
        b = result.stalls_per_kilo_instruction
        print(
            f"  {system:<8} TPC-E-lite  IPC={result.ipc:.2f}  "
            f"L1I/kI={b.l1i:.0f}  LLC-D/kI={b.llcd:.0f}"
        )
    # The [6, 29] similarity claim, on this substrate:
    for system, result in results.items():
        assert result.ipc < 1.25, system  # same sub-1 IPC regime
    # The full-stack system stays L1I-dominated, like TPC-B/TPC-C.
    b = results["dbms-d"].stalls_per_kilo_instruction
    assert b.l1i == max(b.as_dict().values())
