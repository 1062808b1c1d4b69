"""Harness-throughput benchmark: simulated cycles per wall-second.

Runs the smoke-scale timed grid through the scheduler four ways — serial,
``--jobs N`` (both uncached), then cold and warm through a temporary disk
cache — and writes ``BENCH_harness.json``::

    python -m repro.exec.bench --jobs 4 --out BENCH_harness.json

``cpu_count`` is recorded so the parallel numbers are interpretable: on a
single-core container the pool can only add overhead, so the payload is
marked ``degenerate`` there and ``parallel_speedup`` carries the explicit
``"skipped_single_core"`` marker instead of a number (CI's perf gate
skips the parallel assertion on that marker rather than comparing
against null); the warm-cache speedup does not depend on core count.

The ``executor`` section measures the simulator core directly —
instructions retired per wall-second with the per-instruction step loop
(tier ``opt``) versus the block-compiled executor (tier ``lbbv``, every
block feature below traces) versus the trace tier (``trace``; see
:mod:`repro.machine.ladder`) — plus
the fused-block shape of the compiled code, so perf regressions in any
tier are visible without the scheduler noise on top.  Per-benchmark
block-vs-trace walls are recorded for the call-heavy pair (RAY, RICH),
the workloads the cross-call chaining targets.  CI's perf-smoke job
fails when block stops beating step or trace stops beating block.

``--section executor`` skips the scheduler grid and cache passes and
re-measures only the executor tiers (fast inner loop for perf work).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from ..engine import Engine, EngineConfig
from ..experiments.common import SCALES, suite_for_scale
from ..machine.ladder import Tier
from ..suite.spec import get_benchmark
from ..uarch.blockcost import block_shape_summary
from .cache import DiskCache
from .cells import RunCell, timed_cell
from .scheduler import execute_cells

#: benchmarks the executor section times (int-heavy, load/store-heavy and
#: float-heavy, so every tier exercises every hot dispatch kind), plus
#: the call-heavy pair the trace tier's cross-call chaining targets
EXECUTOR_BENCHMARKS = ("FIB", "AES2", "MANDEL", "RAY", "RICH")

#: of those, the call-heavy workloads whose block-vs-trace walls are
#: reported per benchmark (the paper's RAYTRACE/DELTABLUE stand-ins —
#: this registry ships RAY and RICHARDS, so those carry the gate)
CALL_HEAVY_BENCHMARKS = ("RAY", "RICH")


def smoke_grid(targets=("arm64",)) -> List[RunCell]:
    scale = SCALES["smoke"]
    return [
        timed_cell(spec, target, scale.iterations, rep=rep)
        for spec in suite_for_scale(scale)
        for target in targets
        for rep in range(scale.reps)
    ]


def measure(cells: List[RunCell], jobs: int, disk=None) -> Dict[str, float]:
    start = time.perf_counter()
    results = execute_cells(cells, jobs=jobs, memo={}, disk=disk)
    wall = time.perf_counter() - start
    sim_cycles = sum(run.total_cycles for run in results.values())
    return {
        "wall_s": round(wall, 3),
        "sim_cycles": round(sim_cycles, 1),
        "cells": len(cells),
        "cycles_per_wall_s": round(sim_cycles / wall, 1) if wall else 0.0,
    }


def executor_section(iterations: int = 20, warmup: int = 10,
                     reps: int = 3) -> Dict[str, object]:
    """Time the three executor tiers head-to-head on warmed JIT code.

    Each (tier, benchmark) cell is run ``reps`` times in fresh engines
    and the *minimum* wall is reported: instruction counts are
    deterministic, so min-of-N measures the code and discards scheduler
    noise — which on a shared single-core runner is of the same order
    as the block-vs-trace delta the CI gate checks.
    """
    section: Dict[str, object] = {
        "benchmarks": list(EXECUTOR_BENCHMARKS),
        "call_heavy_benchmarks": list(CALL_HEAVY_BENCHMARKS),
        "iterations": iterations,
        "reps": reps,
    }
    shape = None
    configs = (
        ("step", EngineConfig(tier=Tier.OPT)),
        ("block", EngineConfig(tier=Tier.LBBV)),
        ("trace", EngineConfig(tier=Tier.TRACE)),
        # The divergence sentinel at its default schedule over the full
        # stack; its budget is <= 10 % over the plain trace tier
        # (asserted by CI perf-smoke).
        ("audit", EngineConfig(tier=Tier.TRACE, audit=True)),
    )
    walls: Dict[str, Dict[str, float]] = {}
    for label, config in configs:
        instructions = 0
        wall = 0.0
        audits = 0
        trace_stats: Dict[str, int] = {}
        walls[label] = {}
        for name in EXECUTOR_BENCHMARKS:
            spec = get_benchmark(name)
            best_wall = None
            for rep in range(reps):
                engine = Engine(config)
                engine.load(spec.source)
                engine.call_global("setup")
                for i in range(warmup):
                    engine.current_iteration = i
                    engine.call_global("run")
                before = engine.executor.stats.instructions
                start = time.perf_counter()
                for i in range(iterations):
                    engine.current_iteration = warmup + i
                    engine.call_global("run")
                rep_wall = time.perf_counter() - start
                if best_wall is None or rep_wall < best_wall:
                    best_wall = rep_wall
                if rep > 0:
                    continue  # counters are deterministic across reps
                instructions += engine.executor.stats.instructions - before
                if engine.executor._audit is not None:
                    audits += engine.executor._audit.audits
                if label == "block" and shape is None:
                    codes = [f.code for f in engine.functions
                             if f.code is not None]
                    shape = block_shape_summary(codes)
                if label == "trace":
                    for key, value in engine.trace_stats().items():
                        trace_stats[key] = trace_stats.get(key, 0) + value
            wall += best_wall
            walls[label][name] = best_wall
        entry: Dict[str, object] = {
            "wall_s": round(wall, 3),
            "instructions": instructions,
            "instructions_per_wall_s": round(instructions / wall, 1) if wall else 0.0,
        }
        if label == "audit":
            entry["audits"] = audits
        if label == "trace":
            entry["trace_stats"] = trace_stats
        section[label] = entry
    step = section["step"]["instructions_per_wall_s"]  # type: ignore[index]
    block = section["block"]["instructions_per_wall_s"]  # type: ignore[index]
    trace = section["trace"]["instructions_per_wall_s"]  # type: ignore[index]
    section["block_speedup"] = round(block / step, 3) if step else 0.0
    section["trace_speedup"] = round(trace / block, 3) if block else 0.0
    # Per-benchmark block-vs-trace on the call-heavy pair: the workloads
    # cross-call chaining exists for, reported honestly per benchmark so
    # a mean over loop-dominated workloads cannot hide a call-path loss.
    section["call_heavy"] = {
        name: {
            "block_wall_s": round(walls["block"][name], 3),
            "trace_wall_s": round(walls["trace"][name], 3),
            "trace_speedup": (
                round(walls["block"][name] / walls["trace"][name], 3)
                if walls["trace"][name] else 0.0
            ),
        }
        for name in CALL_HEAVY_BENCHMARKS
    }
    audit_wall = section["audit"]["wall_s"]  # type: ignore[index]
    trace_wall = section["trace"]["wall_s"]  # type: ignore[index]
    section["audit_overhead"] = (
        round(audit_wall / trace_wall, 3) if trace_wall else 0.0
    )
    section["block_shape"] = shape
    return section


def storm_section(iterations: int = 30) -> Dict[str, object]:
    """Deoptless dispatch vs. classic bailout under a deopt storm.

    Runs FIB under a TRIP_CHECK-heavy fault plan (a forced guard trip
    every other iteration) twice: with continuation dispatch on (the
    default) and with ``EngineConfig(continuations=False)``, which takes
    the classic discard-recompile-backoff path on every trip.  The
    numbers compared are **simulated cycles** — the engine's own cost
    model — not host wall time: staying on optimized code and charging
    ``DISPATCH_CYCLES`` per trip must beat falling back to the
    interpreter while the exponential re-tier backoff climbs.  CI's
    perf-smoke job gates on ``dispatch_speedup > 1`` with
    ``dispatches > 0``.
    """
    from ..resilience.faults import Fault, FaultInjector, FaultKind, FaultPlan
    from ..suite.runner import BenchmarkRunner, NoiseModel

    plan = FaultPlan("FIB", 0, tuple(
        Fault(i, FaultKind.TRIP_CHECK) for i in range(4, iterations, 2)
    ))
    section: Dict[str, object] = {
        "benchmark": "FIB",
        "iterations": iterations,
        "forced_trips": len(plan.faults),
    }
    for label, config in (
        ("dispatch", EngineConfig()),
        ("classic", EngineConfig(continuations=False)),
    ):
        runner = BenchmarkRunner(get_benchmark("FIB"), config,
                                 NoiseModel(enabled=False))
        result = runner.run(iterations=iterations,
                            injector=FaultInjector(plan))
        engine = runner.last_engine
        assert engine is not None
        stats = engine.resilience_stats()
        section[label] = {
            "sim_cycles": round(result.total_cycles, 1),
            "dispatches": stats["continuation_dispatches"],
            "storms_detected": stats["storms_detected"],
            "ladder_descents": len(stats["ladder_descents"]),  # type: ignore[arg-type]
        }
    dispatch = section["dispatch"]["sim_cycles"]  # type: ignore[index]
    classic = section["classic"]["sim_cycles"]  # type: ignore[index]
    section["dispatch_speedup"] = (
        round(classic / dispatch, 3) if dispatch else 0.0
    )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default="BENCH_harness.json")
    parser.add_argument(
        "--targets", default="arm64",
        help="comma-separated ISA list for the grid (default: arm64)",
    )
    parser.add_argument(
        "--section", choices=("all", "executor"), default="all",
        help="'executor' skips the scheduler grid and cache passes and "
             "measures only the executor tiers",
    )
    args = parser.parse_args(argv)

    # A single-core host cannot demonstrate pool parallelism — the honest
    # report is "degenerate", not a ~1.0x speedup headline.
    degenerate = (os.cpu_count() or 1) == 1
    payload: Dict[str, object] = {
        "bench": "harness_throughput",
        "cpu_count": os.cpu_count(),
        "degenerate": degenerate,
    }

    if args.section == "all":
        cells = smoke_grid(tuple(args.targets.split(",")))
        print(f"harness throughput over {len(cells)} smoke cells "
              f"(cpu_count={os.cpu_count()})")
        serial = measure(cells, jobs=1)
        print(f"  serial:      {serial['wall_s']:8.2f}s  "
              f"{serial['cycles_per_wall_s']:>14,.0f} cyc/s")
        parallel = measure(cells, jobs=args.jobs)
        print(f"  jobs={args.jobs}:      {parallel['wall_s']:8.2f}s  "
              f"{parallel['cycles_per_wall_s']:>14,.0f} cyc/s")
        with tempfile.TemporaryDirectory() as tmp:
            cold = measure(cells, jobs=1, disk=DiskCache(root=Path(tmp)))
            warm = measure(cells, jobs=1, disk=DiskCache(root=Path(tmp)))
        print(f"  cache cold:  {cold['wall_s']:8.2f}s")
        print(f"  cache warm:  {warm['wall_s']:8.2f}s")
        payload.update({
            "grid": f"smoke/{args.targets}",
            "jobs": args.jobs,
            "serial": serial,
            "parallel": parallel,
            # Explicit marker rather than null + the degenerate flag:
            # downstream gates key on the string and skip the parallel
            # assertion instead of null-comparing their way to a failure.
            "parallel_speedup": "skipped_single_core" if degenerate else (
                round(serial["wall_s"] / parallel["wall_s"], 3)
                if parallel["wall_s"] else 0.0
            ),
            "cache_cold": cold,
            "cache_warm": warm,
            "warm_speedup": round(cold["wall_s"] / warm["wall_s"], 3)
            if warm["wall_s"] else 0.0,
        })
    else:
        print(f"executor section only (cpu_count={os.cpu_count()})")

    executor = executor_section()
    payload["executor"] = executor
    print(f"  executor step:  {executor['step']['instructions_per_wall_s']:>14,.0f}"
          " instr/s")
    print(f"  executor block: {executor['block']['instructions_per_wall_s']:>14,.0f}"
          f" instr/s ({executor['block_speedup']}x step)")
    print(f"  executor trace: {executor['trace']['instructions_per_wall_s']:>14,.0f}"
          f" instr/s ({executor['trace_speedup']}x block)")
    for name, entry in executor["call_heavy"].items():
        print(f"    {name:6s} block {entry['block_wall_s']:6.3f}s  "
              f"trace {entry['trace_wall_s']:6.3f}s  "
              f"({entry['trace_speedup']}x)")
    print(f"  executor audit: {executor['audit']['instructions_per_wall_s']:>14,.0f}"
          f" instr/s ({executor['audit_overhead']}x trace wall, "
          f"{executor['audit']['audits']} audits)")

    storm = storm_section()
    payload["storm"] = storm
    print(f"  storm cell ({storm['benchmark']}, {storm['forced_trips']} "
          f"forced trips): dispatch {storm['dispatch']['sim_cycles']:,.0f} "
          f"sim-cycles ({storm['dispatch']['dispatches']} dispatches) vs "
          f"classic {storm['classic']['sim_cycles']:,.0f} "
          f"({storm['classic']['ladder_descents']} descents) -> "
          f"{storm['dispatch_speedup']}x")

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.section == "executor":
        print(f"executor section -> {args.out}")
    elif degenerate:
        print("parallel speedup: n/a (single-core host; pool overhead only), "
              f"warm-cache speedup {payload['warm_speedup']}x -> {args.out}")
    else:
        print(f"parallel speedup {payload['parallel_speedup']}x, "
              f"warm-cache speedup {payload['warm_speedup']}x -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
