"""Chaos CLI: sweep the speculation fault injector across the suite.

Runs every benchmark under its canonical :func:`~repro.resilience.faults.plan_for`
fault plan on every requested ISA, and checks the differential oracle —
post-fault results and heap of the full default stack (the ``deoptless``
rung) must be bitwise-identical to a pure-interpreter run under the same
plan.

    python -m repro.resilience                 # full sweep, arm64 + x64
    python -m repro.resilience --smoke         # quick CI slice
    python -m repro.resilience --benchmark FIB --seed 3 --iterations 50
    python -m repro.resilience --corpus        # include fuzz-corpus programs
    python -m repro.resilience fuzz --count 200 --jobs 4   # the fuzz fleet

Exit code 0 when every cell recovers and matches; 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Tuple

from ..suite.spec import all_benchmarks
from .faults import plan_for
from .oracle import CHAOS_TIERS, MatrixOutcome, matrix_run, resolve_benchmark

#: fast slice exercising every fault kind across categories (CI smoke job)
SMOKE_BENCHMARKS = ("FIB", "NBODY", "SPMV-CSR-SMI", "CRC32", "JSONLIKE", "RICH")


def _run_case(case: Tuple[str, str, int, int]) -> MatrixOutcome:
    benchmark, target, seed, iterations = case
    return matrix_run(
        resolve_benchmark(benchmark), target,
        plan=plan_for(benchmark, seed, iterations),
        iterations=iterations, tiers=CHAOS_TIERS,
    )


def _format_row(out: MatrixOutcome) -> str:
    verdict = "ok" if out.ok else "FAIL"
    top = out.tiers[CHAOS_TIERS[-1].name]
    return (
        f"{out.benchmark:<16} {out.target:<6} {verdict:<5} "
        f"eager={top.eager_deopts:<3} lazy={top.lazy_deopts:<3} "
        f"disp={top.continuation_dispatches:<3} "
        f"storms={top.storms_detected} reopt<={top.max_reopt_count} "
        f"faults={len(top.faults_applied)}"
    )


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "fuzz":
        from ..fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="speculation fault-injection sweep with differential oracle",
    )
    parser.add_argument(
        "--benchmark", action="append", default=None,
        help="benchmark name (repeatable; default: whole suite)",
    )
    parser.add_argument(
        "--targets", nargs="+", default=["arm64", "x64"], help="ISAs to sweep"
    )
    parser.add_argument("--seed", type=int, default=0, help="plan seed")
    parser.add_argument(
        "--iterations", type=int, default=30, help="iterations per run"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"quick slice ({len(SMOKE_BENCHMARKS)} benchmarks, fewer iterations)",
    )
    parser.add_argument(
        "--corpus", action="store_true",
        help="also sweep every fuzz-corpus program (results/corpus/)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print applied faults per cell"
    )
    args = parser.parse_args(argv)

    if args.benchmark:
        names = list(args.benchmark)
    elif args.smoke:
        names = list(SMOKE_BENCHMARKS)
    else:
        names = [spec.name for spec in all_benchmarks()]
    if args.corpus:
        from ..fuzz.corpus import load_corpus

        names.extend(entry.name for entry in load_corpus())
    iterations = min(args.iterations, 16) if args.smoke else args.iterations

    cases = [
        (name, target, args.seed, iterations)
        for name in names
        for target in args.targets
    ]
    print(
        f"chaos sweep: {len(names)} benchmark(s) x {len(args.targets)} "
        f"target(s), seed={args.seed}, {iterations} iterations"
    )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_case, cases))
    else:
        outcomes = [_run_case(case) for case in cases]

    failures: List[MatrixOutcome] = []
    no_deopt: List[MatrixOutcome] = []
    for out in outcomes:
        top = out.tiers[CHAOS_TIERS[-1].name]
        print(_format_row(out))
        if args.verbose:
            for iteration, kind, detail in top.faults_applied:
                print(f"    @{iteration:<3} {kind}: {detail}")
        if not out.ok:
            failures.append(out)
        elif top.eager_deopts == 0:
            no_deopt.append(out)

    total = len(outcomes)
    print(
        f"\n{total - len(failures)}/{total} cells recovered with "
        f"interpreter-identical results"
    )
    if no_deopt:
        # The two anchored TRIP_CHECK faults should force eager deopts in
        # any cell whose optimized code runs; a zero here means the plan
        # never engaged speculation and the cell proved nothing.
        print(f"warning: {len(no_deopt)} cell(s) saw no eager deopt:")
        for out in no_deopt:
            print(f"  {out.benchmark} [{out.target}]")
    for out in failures:
        print(f"\nFAIL {out.benchmark} [{out.target}] seed={out.seed}")
        for line in out.mismatches:
            print(f"  mismatch: {line}")
        top = out.tiers[CHAOS_TIERS[-1].name]
        for iteration, kind, detail in top.faults_applied:
            print(f"  fault @{iteration}: {kind}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
