"""Layered benchmark for the speculation stack.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --record                  # regenerate perfbench/refs/

Run from the repository root.  The engine is imported from ``src/``; there
is nothing to build.  Workloads are described in ``workloads.py`` and
named, with their metrics, in ``BENCHMARK.json``.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print every metric by name and unit,
the sample counts, and the resolved engine knobs.  A full record of the
run, including those knobs, ``nproc``, the Python version and the commit,
goes to ``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

Only host wall time is measured.  Simulated cycles, results and deopt
streams are the model's output: every operation is checked against the
references under ``perfbench/refs/`` and counts as failed if it raises or
differs.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``           median host seconds of one round of the timed phase
  (steady: one ``run()`` of each program; the other workloads: their one
  pass)
* ``setup_s``          the median of five fresh interpreters' imports plus
  the median of three set-ups (steady: engines built, loaded and warmed
  past tier-up)
* ``sim_cycles_per_s`` simulated cycles (all buckets) per timed host second
* ``sim_instr_per_s``  simulated instructions retired per timed host second
* ``iter_ms_p50/p90``  host latency of one guest ``run()``, GC included
  when due (the figure drivers' own GC calls are not inside it);
  Harrell-Davis percentile estimates
* ``peak_rss_mb``      peak resident memory of the process

Operations failed over operations attempted is reported by the result's
``attempted`` and ``failed`` keys.

``--trace 1`` first runs the same command untraced in a child process,
then runs the workload again with a span around every layer entry point
(see ``spans.py``) and prints the per-layer metrics: self seconds
(``*.s``) and call counts (``*.calls``) over the timed phase, the same
for the set-up (``setup.*``), engine counters and ratios, the tier
ablation (``machine.rung.*``, steady only) and ``trace.overhead_frac``,
the traced ``wall_s`` over the untraced one, minus one.

Which end-to-end metric each layer should move, and where:

    lang.parse, bytecode.compile   setup_s everywhere; wall_s on coldstart
    interpreter                    wall_s on coldstart and storm; ~0 on steady
    runtime                        wall_s on coldstart; iter_ms_p50 on steady
    ir.*, jit.codegen              wall_s on coldstart and figures; setup_s on steady
    jit.deopt                      iter_ms_p90 on storm
    analysis.typeflow              wall_s on coldstart
    machine.exec                   sim_instr_per_s on steady
    machine.*.compile              wall_s on coldstart; setup_s on steady
    machine ratios, machine.rung.* sim_instr_per_s on steady
    cont.*, deopt.*, ladder.*      iter_ms_p90 and wall_s on storm
    values.gc                      iter_ms_p90 on steady
    uarch.simulate, experiments.*  wall_s on figures
    exec.*                         wall_s and setup_s on figures
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("steady", "coldstart", "storm", "figures")
#: fresh interpreters timed importing what a workload needs (a process
#: can import a module only once, so set-up repetitions need children)
IMPORT_REPS = 5


def _spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _hermetic_env(run_dir: Path) -> Dict[str, str]:
    """Clear every ambient ``REPRO_*`` knob, so the engine runs on its
    built-in defaults, and point every path knob at a fresh directory."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    pinned = {
        "REPRO_CACHE_DIR": str(run_dir / "cache"),
        "REPRO_BUNDLE_DIR": str(run_dir / "bundles"),
        "REPRO_WAL_DIR": str(run_dir / "wal"),
        "REPRO_CORPUS_DIR": str(ROOT / "results" / "corpus"),
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "1",
    }
    os.environ.update(pinned)
    return pinned


def _resolved_knobs() -> Dict[str, object]:
    from repro.analysis import default_verify
    from repro.exec import current_config
    from repro.machine.blockjit import default_blockjit, default_typed_blocks
    from repro.machine.continuations import (
        default_continuations,
        resolve_redispatch_budget,
    )
    from repro.machine.lbbv import default_lbbv
    from repro.machine.tracejit import default_tracejit
    from repro.supervise.sentinel import resolve_audit_interval

    scheduler = current_config()
    return {
        "blockjit": default_blockjit(),
        "typed_blocks": default_typed_blocks(),
        "tracejit": default_tracejit(),
        "lbbv": default_lbbv(),
        "continuations": default_continuations(),
        "redispatch_budget": resolve_redispatch_budget(),
        "verify": default_verify(),
        "audit_interval": resolve_audit_interval(None),
        "jobs": scheduler.jobs,
        "cache": scheduler.cache,
    }


def _commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def import_seconds(workload: str) -> List[float]:
    """Seconds each of ``IMPORT_REPS`` fresh interpreters takes to import
    the modules ``workload`` needs, rescaled to nominal host speed by the
    calibration loop run in the same interpreter right after."""
    modules = ["perfbench.workloads"]
    if workload == "figures":
        modules += ["repro.exec", "repro.experiments"]
    code = (f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}; "
            "t = time.perf_counter(); "
            + "".join(f"import {module}; " for module in modules)
            + "t = time.perf_counter() - t; "
            "from perfbench.hostspeed import NOMINAL_S, loop_seconds; "
            "print(t * NOMINAL_S / loop_seconds())")
    times = []
    for _rep in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return times


def _percentile(values: List[float], q: int) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile: a weighted
    mean of the order statistics around it, so that one sample moving
    past its neighbours does not make the estimate jump between the
    latency clusters of different programs."""
    if len(values) < 2:
        return values[0] if values else 0.0
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q / 100.0])[0])


def end_to_end(outcome, import_s: float) -> Dict[str, float]:
    timed = outcome.timed_s
    iter_ms = [s * 1000.0 for s in outcome.iter_s]
    return {
        "wall_s": statistics.median(outcome.rounds) if outcome.rounds else 0.0,
        "setup_s": import_s + statistics.median(outcome.setup_reps),
        "sim_cycles_per_s": outcome.sim_cycles / timed if timed else 0.0,
        "sim_instr_per_s": outcome.sim_instructions / timed if timed else 0.0,
        "iter_ms_p50": _percentile(iter_ms, 50),
        "iter_ms_p90": _percentile(iter_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(recorder, outcome, overhead: float) -> Dict[str, float]:
    from perfbench.spans import OP_SPAN
    from perfbench.workloads import FIGURE_DRIVERS
    from repro.resilience.oracle import EXECUTOR_LADDER

    lo, hi = outcome.timed_spans
    timed = recorder.totals(lo, hi)
    setup = recorder.totals(*outcome.setup_spans)

    def s(name: str, totals=timed) -> float:
        return totals.get(name, (0.0, 0))[0]

    def c(name: str) -> float:
        return float(timed.get(name, (0.0, 0))[1])

    passes = ("hoist_invariant_checks", "eliminate_checks", "eliminate_dead_code",
              "elide_truncated_minus_zero_checks", "schedule_rpo")
    metrics: Dict[str, float] = {
        "lang.parse.s": s("lang.parse"),
        "bytecode.compile.s": s("bytecode.compile"),
        "interpreter.s": s("interpreter.run") + s("interpreter.run_from"),
        # a call enters through run(); run_from() alone is a deopt resume
        "interpreter.calls": c("interpreter.run") + recorder.entries(
            "interpreter.run_from", "interpreter.run", lo, hi),
        "runtime.s": s("runtime"),
        "runtime.calls": c("runtime"),
        "ir.build.s": s("ir.build"),
        "ir.compiles": c("ir.build"),
        "jit.codegen.s": s("jit.codegen"),
        "jit.code_instructions": float(recorder.tallied("jit.codegen", lo, hi)),
        "jit.deopt.s": s("jit.deopt"),
        "jit.deopt.calls": c("jit.deopt"),
        "analysis.typeflow.s": s("analysis.typeflow"),
        "machine.exec.s": s("machine.exec"),
        "machine.decode.s": s("machine.decode"),
        "values.gc.s": s("values.gc"),
        "values.gc.calls": c("values.gc"),
        "uarch.simulate.s": s("uarch.simulate"),
        "uarch.simulate.calls": c("uarch.simulate"),
        "exec.schedule.s": s("exec.schedule"),
        "exec.cache.get.s": s("exec.cache.get"),
        "exec.cache.put.s": s("exec.cache.put"),
        "exec.cells": c("exec.cell"),
        "engine.glue.s": s(OP_SPAN),
        "trace.overhead_frac": overhead,
    }
    for name in passes:
        metrics[f"ir.pass.{name}.s"] = s(f"ir.pass.{name}")
    for tier in ("blockjit", "lbbv", "tracejit"):
        metrics[f"machine.{tier}.compile.s"] = s(f"machine.{tier}.compile")
        metrics[f"machine.{tier}.compile.calls"] = c(f"machine.{tier}.compile")
    for driver in FIGURE_DRIVERS:
        metrics[f"experiments.{driver}.s"] = s(f"experiments.{driver}")
    metrics.update(outcome.tally.metrics())

    # The tier ablation runs on steady only; elsewhere its metrics read as
    # "not measured": zero seconds, no gain, p = 1.
    for k, tier in enumerate(EXECUTOR_LADDER):
        metrics[f"machine.rung.{tier.name}.wall_s"] = 0.0
        metrics[f"machine.rung.{tier.name}.compile_s"] = 0.0
        if k:
            metrics[f"machine.rung.{tier.name}.gain_frac"] = 0.0
            metrics[f"machine.rung.{tier.name}.p_value"] = 1.0
            metrics[f"machine.rung.{tier.name}.practical"] = 0.0
    metrics.update(outcome.layers)

    metrics.update({
        "setup.lang.parse.s": s("lang.parse", setup),
        "setup.bytecode.compile.s": s("bytecode.compile", setup),
        "setup.interpreter.s": s("interpreter.run", setup) + s("interpreter.run_from", setup),
        "setup.ir.s": s("ir.build", setup) + sum(s(f"ir.pass.{p}", setup) for p in passes),
        "setup.jit.codegen.s": s("jit.codegen", setup),
        "setup.analysis.typeflow.s": s("analysis.typeflow", setup),
        "setup.machine.compile.s": sum(
            s(f"machine.{tier}.compile", setup) for tier in ("blockjit", "lbbv", "tracejit")),
        "setup.machine.exec.s": s("machine.exec", setup),
    })
    return metrics


def _untraced_wall(args) -> Optional[float]:
    """``wall_s`` of the same command run untraced in a child process."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return float(result["metrics"]["wall_s"]["value"])


def _record(names) -> int:
    if len(names) > 1:
        # One process per workload: engines run earlier in a process can
        # change later figure text (fig10), so references start clean.
        for name in names:
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--record", "--workload", name], cwd=str(ROOT))
            if done.returncode:
                return done.returncode
        return 0
    from perfbench import workloads

    started = time.perf_counter()
    workloads.record(names[0])
    print(f"recorded {names[0]} references in {time.perf_counter() - started:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark for the speculation stack.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="regenerate the reference outputs under perfbench/refs/ "
                             "(all workloads unless --workload is given)")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "engine.py").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=str(OUT_DIR)))
    try:
        pinned = _hermetic_env(run_dir)
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        if args.record:
            return _record([args.workload] if args.workload else WORKLOAD_NAMES)
        return _measure(args, pinned)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, pinned: Dict[str, str]) -> int:
    recorder = None
    untraced_wall = None
    if args.trace:
        untraced_wall = _untraced_wall(args)
        from perfbench.spans import SpanRecorder, install_layers

        recorder = SpanRecorder()
        install_layers(recorder)
    from perfbench import workloads

    import_s = 0.0 if args.trace else statistics.median(import_seconds(args.workload))
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, recorder)
    check = outcome.check

    spec = _spec()
    if args.trace:
        traced_wall = end_to_end(outcome, import_s)["wall_s"]
        overhead = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
        check.op("untraced reference run", [] if untraced_wall else ["child run failed"])
        metrics = per_layer(recorder, outcome, overhead)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(outcome, import_s)
        declared = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}")

    from perfbench.hostspeed import NOMINAL_S

    speed = outcome.speed
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": pinned,
        "knobs": _resolved_knobs(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "samples": {"rounds": len(outcome.rounds), "iterations": len(outcome.iter_s),
                    "setup_reps": len(outcome.setup_reps)},
        "host_speed": {"nominal_s": NOMINAL_S, "samples": len(speed.samples),
                       "median_factor": speed.factor(since=0),
                       "factors": [min(speed.samples) / NOMINAL_S,
                                   max(speed.samples) / NOMINAL_S]},
    }
    from repro.exec.fingerprint import engine_fingerprint

    meta["source_fingerprint"] = engine_fingerprint()
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.save(OUT_DIR / f"spans-{stem}.npz")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(dict(meta, result=result, failures=check.failures,
                        iter_ms=[s * 1000.0 for s in outcome.iter_s]), indent=1) + "\n",
        encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name in units:
        print(f"  {name:48s} {metrics[name]:16.6g} {units[name]}")
    iterations = len(outcome.iter_s)
    print(f"  samples: {len(outcome.rounds)} rounds, {iterations} run() latencies "
          f"({iterations - int(0.9 * iterations)} at or above p90), "
          f"{len(outcome.setup_reps)} set-ups")
    print(f"  checks: {check.attempted} attempted, {check.failed} failed")
    print(f"  meta: {json.dumps(meta, sort_keys=True)}")
    for failure in check.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
