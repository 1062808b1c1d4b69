"""Block-granular cost accounting over compiled code objects.

The block-compiled executor (:mod:`repro.machine.blockjit`) charges each
fused basic block's base cycle cost in a single add.  This module exposes
the same block-granular view of a code object as a static profile —
per-block base costs and instruction-class mixes — for the bench
harness's executor section and for reasoning about which blocks dominate
a function's fast-timing-model cost.

The per-block ``base_cost`` is the identical left-folded float the two
executor tiers accumulate (the block's decoded cycle prefix at its last
instruction), so summing profile costs weighted by block execution counts
reproduces executor cycle totals exactly, branch penalties aside.

As a CLI the module doubles as the trace tier's formation report::

    python -m repro.uarch.blockcost FIB --chains

runs one benchmark with the trace tier armed at low thresholds and
prints the per-edge retirement histogram the chain detector counted
plus every chain it stitched (head, blocks, cyclic/call-spanning/
auditable flags, guards elided).  With ``--versions`` it reports the
lazy block versioning tier (:mod:`repro.machine.lbbv`) instead:
per-block version-table occupancy, each version's keyed type-state
with its hit count, and which states went hot.  Without either flag it
prints the static per-block cost profile of the compiled code objects.
"""

from __future__ import annotations

from typing import List, Optional

from ..machine.blockjit import block_spans
from ..machine.dispatch import decode
from ..machine.executor import CostModel


class BlockCost:
    """Static profile of one fused basic block."""

    __slots__ = ("start", "end", "n_instr", "base_cost")

    def __init__(self, start: int, end: int, n_instr: int, base_cost: float) -> None:
        self.start = start
        self.end = end
        self.n_instr = n_instr
        self.base_cost = base_cost

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "instructions": self.n_instr,
            "base_cost": self.base_cost,
        }


def block_profile(code, cost_model: Optional[CostModel] = None) -> List[BlockCost]:
    """Per-block static costs for ``code``, in block order.

    Reuses the code object's cached decode when its cost prefixes were
    computed under an equivalent cost model; otherwise decodes afresh.
    """
    decoded = code._decoded
    if decoded is None or cost_model is not None:
        decoded = decode(code, (cost_model or CostModel()).op_costs())
    profile = []
    for start, end in block_spans(code.instrs):
        profile.append(BlockCost(start, end, end - start, decoded[end - 1][8]))
    return profile


def block_shape_summary(codes, cost_model: Optional[CostModel] = None) -> dict:
    """Aggregate block-partition shape over a set of code objects.

    Reported by ``python -m repro.exec.bench`` so perf runs record how
    much straight-line work each superinstruction fuses (the lever the
    block executor's speedup rides on).
    """
    code_list = list(codes)
    blocks = 0
    instructions = 0
    base_cycles = 0.0
    for code in code_list:
        for entry in block_profile(code, cost_model):
            blocks += 1
            instructions += entry.n_instr
            base_cycles += entry.base_cost
    return {
        "code_objects": len(code_list),
        "blocks": blocks,
        "instructions": instructions,
        "mean_block_len": (instructions / blocks) if blocks else 0.0,
        "static_base_cycles": base_cycles,
    }


# -- CLI -----------------------------------------------------------------


def _print_chains(engine) -> None:
    tables = [
        code._traces
        for code in engine._code_objects
        if code._traces is not None
        and code._traces.executor is engine.executor
    ]
    if not tables:
        print("no trace tables (trace tier off or nothing compiled)")
        return
    for tt in tables:
        name = tt.code.shared.info.name or "<anonymous>"
        state = ("disabled" if tt.disabled
                 else "promoted" if tt.promoted else "counting")
        print(f"== {name} [{tt.code.target.name}] — {state}, "
              f"{tt.entries} activations counted ==")
        if tt.edge_counts:
            print("  edge histogram (src -> dst : retirements):")
            ranked = sorted(tt.edge_counts.items(),
                            key=lambda item: (-item[1], item[0]))
            peak = ranked[0][1]
            for (src, dst), count in ranked:
                bar = "#" * max(1, round(40 * count / peak))
                kind = " (back-edge)" if dst <= src else ""
                print(f"    {src:4d} -> {dst:<4d} : {count:8d} {bar}{kind}")
        else:
            print("  no edges counted")
        if not tt.traces:
            print("  no chains formed")
            continue
        for info in sorted(tt.traces.values(), key=lambda t: t.head):
            flags = []
            if info.cyclic:
                flags.append("cyclic")
            if info.n_calls:
                flags.append(f"spans {info.n_calls} call(s)")
            if info.auditable:
                flags.append("auditable")
            if info.guards_elided:
                flags.append(f"{info.guards_elided} guards elided")
            chain = " -> ".join(str(bid) for bid in info.chain)
            print(f"  chain @ block {info.head}: [{chain}]"
                  + (f"  ({', '.join(flags)})" if flags else ""))


def _print_versions(engine) -> None:
    stats = engine.version_stats()
    if not stats["tables"]:
        print("no version tables (lbbv off, or typed tier inactive)")
        return
    for table in stats["tables"]:
        name = table["code"] or "<anonymous>"
        occupancy = table["occupancy"]
        print(f"== {name} — {sum(occupancy.values())} versions over "
              f"{len(occupancy)} blocks ==")
        rows = sorted(table["states"], key=lambda r: (-r["hits"], r["block"]))
        peak = max((r["hits"] for r in rows), default=0)
        for row in rows:
            flags = []
            if row["elides_site"]:
                flags.append("elides site")
            if row["negated"]:
                flags.append("negated seed")
            if not row["compiled"]:
                flags.append("lazy")
            if row["chained_out"]:
                chained = ",".join(
                    f"{succ}->v{idx}" for succ, idx in row["chained_out"]
                )
                flags.append(f"chains [{chained}]")
            bar = "#" * (max(1, round(30 * row["hits"] / peak))
                         if peak and row["hits"] else 0)
            state = " & ".join(row["state"]) or "<generic>"
            print(f"  block {row['block']:3d} v{row['index']:<3d} "
                  f"{row['hits']:8d} hits {bar:31s} {state}"
                  + (f"  ({', '.join(flags)})" if flags else ""))
        widened = table["widened"]
        if widened:
            print("  widened blocks: "
                  + ", ".join(f"{bid} ({n}x)"
                              for bid, n in sorted(widened.items())))
    print("-- version_stats --")
    for key, value in stats.items():
        if key != "tables":
            print(f"  {key}: {value}")


def _print_profile(engine) -> None:
    for code in engine._code_objects:
        name = code.shared.info.name or "<anonymous>"
        profile = block_profile(code)
        print(f"== {name} [{code.target.name}] — {len(profile)} blocks ==")
        for bid, entry in enumerate(profile):
            print(f"  block {bid:3d} [{entry.start:4d}, {entry.end:4d})  "
                  f"{entry.n_instr:3d} instr  base {entry.base_cost:9.2f} cyc")


def main(argv=None) -> int:
    import argparse
    import os

    parser = argparse.ArgumentParser(
        prog="repro.uarch.blockcost",
        description="block-cost profile / trace-chain formation report",
    )
    parser.add_argument("benchmark")
    parser.add_argument("--chains", action="store_true",
                        help="run with the trace tier armed and print the "
                             "edge-frequency histogram and formed chains")
    parser.add_argument("--versions", action="store_true",
                        help="run the lbbv tier and print "
                             "per-block version occupancy, keyed states "
                             "and hit counts (which states are hot)")
    parser.add_argument("--iterations", type=int, default=10)
    args = parser.parse_args(argv)

    if args.chains:
        # Low thresholds so short CLI runs promote; same knobs the
        # chaos driver uses.  Real runs keep the defaults.
        os.environ.setdefault("REPRO_TRACEJIT_BUDGET", "400")
        os.environ.setdefault("REPRO_TRACEJIT_HOT", "8")
        os.environ.setdefault("REPRO_TRACEJIT_ENTRY", "8")

    from ..suite.runner import BenchmarkRunner
    from ..suite.spec import get_benchmark

    runner = BenchmarkRunner(get_benchmark(args.benchmark))
    runner.run(iterations=args.iterations)
    engine = runner.last_engine
    assert engine is not None
    if args.chains:
        # Force promotion even if the budget did not run out, so the
        # report always shows what the counters would stitch.
        for code in engine._code_objects:
            tt = code._traces
            if tt is not None and tt.counting:
                tt.promote()
                tt.counting = False
        _print_chains(engine)
        stats = engine.trace_stats()
        print("-- trace_stats --")
        for key, value in stats.items():
            print(f"  {key}: {value}")
    elif args.versions:
        _print_versions(engine)
    else:
        _print_profile(engine)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
