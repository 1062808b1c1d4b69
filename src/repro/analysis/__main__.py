"""``python -m repro.analysis`` — lint and typeflow-audit benchmark code.

Two subcommands over the compiled code of suite benchmarks (the first
positional argument; ``lint`` is the default, so existing invocations
keep working):

``lint``
    Compiles benchmarks with per-pass IR verification enabled, lints
    every emitted code object, runs the static check-density analyzer,
    and prints a diagnostics table.

``typeflow``
    Runs the flow-sensitive type-state analysis
    (:mod:`repro.analysis.typeflow`) over every code object the engine
    compiled, reports the static check-density delta (all checks vs the
    *required*-only residual), the dynamic check executions the typed
    block tier actually elided, and **cross-validates** static
    classifications against the engine's dynamic check-trip profile: a
    redundant-classified check that dynamically deoptimized is an
    analysis soundness bug and fails the run.  ``--json PATH`` writes
    the full machine-readable report (the CI artifact).

Exit status is non-zero when any ERROR diagnostic is found.

Examples::

    python -m repro.analysis --benchmark FIB
    python -m repro.analysis lint --all --target x64 --jobs 4
    python -m repro.analysis typeflow --all --jobs 4 --json typeflow.json
    python -m repro.analysis typeflow --benchmark NBODY --target x64

``--jobs`` analyzes benchmarks on worker processes; lint reports are
cached in the persistent result cache (keyed by engine fingerprint, so
any source change re-analyzes) unless ``--no-cache`` is given.  Typeflow
reports include dynamic profiles, so they are never disk-cached.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Tuple

from ..engine import EngineConfig
from ..exec import MISS, DiskCache
from ..suite import (
    BenchmarkSpec,
    all_benchmarks,
    compile_benchmark,
    compiled_code_objects,
    get_benchmark,
)
from .density import analyze_density
from .diagnostics import Diagnostic, Severity, render_table
from .mclint import lint_code
from .verifier import VerificationError


def analyze_one(name: str, target: str, iterations: int, verbose: bool) -> Tuple[int, str]:
    """Compile + lint one benchmark; returns (exit_code, report text)."""
    spec = get_benchmark(name)
    config = EngineConfig(target=target, verify=True)
    lines: List[str] = []
    try:
        engine = compile_benchmark(spec, config, iterations=iterations)
    except VerificationError as failure:
        lines.append(render_table(failure.diagnostics,
                                  title=f"== {spec.name} [{target}] =="))
        return 1, "\n".join(lines)
    diagnostics: List[Diagnostic] = []
    codes = compiled_code_objects(engine)
    density_lines: List[str] = []
    for code in codes:
        diagnostics.extend(lint_code(code))
        report = analyze_density(code)
        diagnostics.extend(report.diagnostics)
        density_lines.extend(report.rows())
    if not verbose:
        diagnostics = [d for d in diagnostics if d.severity != Severity.INFO]
    exit_code = 1 if any(d.severity == Severity.ERROR for d in diagnostics) else 0
    lines.append(render_table(
        diagnostics,
        title=(f"== {spec.name} [{target}] — "
               f"{len(codes)} code object(s) =="),
    ))
    lines.extend(density_lines)
    return exit_code, "\n".join(lines)


def typeflow_one(
    name: str, target: str, iterations: int, verbose: bool
) -> Tuple[int, str, Dict[str, object]]:
    """Analyze + cross-validate one benchmark.

    Returns (exit_code, report text, machine-readable record).
    """
    from .typeflow import REDUNDANT, REQUIRED, analyze_typeflow, cross_validate

    spec = get_benchmark(name)
    config = EngineConfig(target=target, verify=True)
    try:
        engine = compile_benchmark(spec, config, iterations=iterations)
    except VerificationError as failure:
        text = render_table(failure.diagnostics,
                            title=f"== {spec.name} [{target}] ==")
        return 1, text, {"benchmark": name, "target": target,
                         "error": "verification failed"}
    # The full compilation history, not just live codes: a check that
    # tripped usually discarded its code object, and those trips are
    # exactly what the validator must see.
    codes = list(engine._code_objects)
    diagnostics = cross_validate(codes, engine.check_trips)
    counts = {"checks": 0, REDUNDANT: 0, "hoistable": 0, REQUIRED: 0,
              "eligible": 0}
    body = 0
    functions = []
    for code in codes:
        result = analyze_typeflow(code)
        for key, value in result.counts.items():
            counts[key] += value
        body += result.body_instructions
        functions.append(result.to_json() if verbose else {
            "function": result.function,
            "code_serial": getattr(code, "serial", -1),
            "counts": result.counts,
            "residual_density": result.residual_density(),
        })
    static_density = 100.0 * counts["checks"] / body if body else 0.0
    residual_density = 100.0 * counts[REQUIRED] / body if body else 0.0
    typed = engine.typed_check_stats()
    executed = engine.executor.stats.deopt_branch_instrs
    elided = typed["branch_checks_elided"] + typed["smi_tag_tests_elided"]
    reduction = 100.0 * elided / executed if executed else 0.0
    errors = [d for d in diagnostics if d.severity == Severity.ERROR]

    lines = [
        f"== {spec.name} [{target}] — {len(codes)} code object(s) ==",
        f"  checks: {counts['checks']} — {counts[REDUNDANT]} redundant, "
        f"{counts['hoistable']} hoistable, {counts[REQUIRED]} required "
        f"({counts['eligible']} elidable by the typed tier)",
        f"  static density: {static_density:.2f} -> residual "
        f"{residual_density:.2f} checks per 100 instructions",
        f"  dynamic: {elided}/{executed} check executions elided "
        f"({reduction:.1f}%), {typed['entry_guards_evaluated']} guards, "
        f"{typed['guard_failures']} guard failures",
        f"  soundness: {len(errors)} violation(s) over "
        f"{sum(engine.check_trips.values())} recorded check trip(s)",
    ]
    if diagnostics:
        lines.append(render_table(diagnostics, title="typeflow soundness"))
    record = {
        "benchmark": name,
        "target": target,
        "code_objects": len(codes),
        "counts": counts,
        "static_density": static_density,
        "residual_density": residual_density,
        "dynamic": {
            **typed,
            "deopt_branches_executed": executed,
            "reduction_percent": reduction,
        },
        "check_trips": sum(engine.check_trips.values()),
        "soundness_violations": [d.message for d in errors],
        "functions": functions,
    }
    return (1 if errors else 0), "\n".join(lines), record


def _analyze_star(task: Tuple[str, str, int, bool]) -> Tuple[int, str]:
    return analyze_one(*task)


def _typeflow_star(
    task: Tuple[str, str, int, bool]
) -> Tuple[int, str, Dict[str, object]]:
    return typeflow_one(*task)


def _report_token(name: str, target: str, iterations: int, verbose: bool) -> str:
    key = f"analysis-v1|{name}|{target}|{iterations}|{int(verbose)}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Verify, lint and typeflow-audit the compiled code of "
        "suite benchmarks.",
    )
    parser.add_argument(
        "command", nargs="?", default="lint", choices=("lint", "typeflow"),
        help="lint (default): verify + lint + density; typeflow: static "
        "type-state classification cross-validated against dynamic deopts",
    )
    parser.add_argument(
        "--benchmark", "-b", action="append", default=[],
        help="benchmark name (repeatable); see repro.suite",
    )
    parser.add_argument(
        "--all", action="store_true", help="analyze every registered benchmark"
    )
    parser.add_argument(
        "--target", default=None, choices=("x64", "arm64", "arm64+smi"),
        help="compilation target (default: arm64 for lint; both arm64 "
        "and x64 for typeflow)",
    )
    parser.add_argument(
        "--iterations", type=int, default=40,
        help="warmup iterations before analyzing (default: 40)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="lint: also show INFO diagnostics; typeflow: full per-block "
        "summaries in the JSON report",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="analyze benchmarks on this many worker processes",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write cached analysis reports",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="typeflow only: write the machine-readable report here",
    )
    options = parser.parse_args(argv)

    if options.all:
        specs = all_benchmarks()
    elif options.benchmark:
        try:
            specs = [get_benchmark(name) for name in options.benchmark]
        except KeyError as missing:
            known = ", ".join(spec.name for spec in all_benchmarks())
            parser.error(f"unknown benchmark {missing}; known: {known}")
    else:
        parser.error("pass --benchmark NAME (repeatable) or --all")

    if options.command == "typeflow":
        return _run_typeflow(options, specs)

    target = options.target or "arm64"
    disk = None if options.no_cache else DiskCache()
    tasks = [
        (spec.name, target, options.iterations, options.verbose)
        for spec in specs
    ]
    reports: dict = {}
    pending = []
    if disk is not None:
        for task in tasks:
            cached = disk.get(_report_token(*task))
            if cached is MISS:
                pending.append(task)
            else:
                reports[task] = cached
    else:
        pending = tasks

    if pending:
        if options.jobs > 1 and len(pending) > 1:
            workers = min(options.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(_analyze_star, pending))
        else:
            fresh = [analyze_one(*task) for task in pending]
        for task, report in zip(pending, fresh):
            reports[task] = report
            if disk is not None:
                disk.put(_report_token(*task), report)

    exit_code = 0
    for task in tasks:
        code, text = reports[task]
        exit_code = max(exit_code, code)
        print(text)
        print()
    return exit_code


def _run_typeflow(options: argparse.Namespace, specs: List[BenchmarkSpec]) -> int:
    targets = (options.target,) if options.target else ("arm64", "x64")
    tasks = [
        (spec.name, target, options.iterations, options.verbose)
        for target in targets
        for spec in specs
    ]
    if options.jobs > 1 and len(tasks) > 1:
        workers = min(options.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_typeflow_star, tasks))
    else:
        results = [typeflow_one(*task) for task in tasks]

    exit_code = 0
    records = []
    for code, text, record in results:
        exit_code = max(exit_code, code)
        records.append(record)
        print(text)
        print()
    totals = {
        "benchmarks": len(specs),
        "targets": list(targets),
        "soundness_violations": sum(
            len(r.get("soundness_violations", ())) for r in records
        ),
        "checks": sum(r.get("counts", {}).get("checks", 0) for r in records),
        "redundant": sum(
            r.get("counts", {}).get("redundant", 0) for r in records
        ),
        "hoistable": sum(
            r.get("counts", {}).get("hoistable", 0) for r in records
        ),
        "elided_dynamic": sum(
            r.get("dynamic", {}).get("branch_checks_elided", 0)
            + r.get("dynamic", {}).get("smi_tag_tests_elided", 0)
            for r in records
        ),
    }
    print(
        f"typeflow: {totals['checks']} checks across "
        f"{totals['benchmarks']} benchmark(s) x {len(targets)} target(s) — "
        f"{totals['redundant']} redundant, {totals['hoistable']} hoistable, "
        f"{totals['elided_dynamic']} dynamic check executions elided, "
        f"{totals['soundness_violations']} soundness violation(s)"
    )
    if options.json:
        with open(options.json, "w", encoding="utf-8") as sink:
            json.dump({"summary": totals, "results": records}, sink, indent=2)
        print(f"wrote {options.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
