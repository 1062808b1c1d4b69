"""Deterministic re-execution and minimization of crash bundles.

Every bundle kind records enough to rebuild its run exactly — benchmark,
ISA target, engine-config knobs (tier and continuations included),
iteration count, rep, the serialized fault plan, and the ``REPRO_*``
environment that shaped execution — so replay is a matter of
reconstructing that world and checking that the same failure happens
again:

* ``divergence`` — re-run the benchmark with the recorded audit
  interval (and chaos hook, if one seeded the divergence), capturing
  bundles into a scratch directory; reproduced iff a divergence bundle
  for the same code object, block and mismatch set appears.
* ``continuation-divergence`` — re-run the benchmark under the recorded
  fault plan with the recorded audit environment (``REPRO_AUDIT`` /
  ``REPRO_CHAOS_AUDIT``); reproduced iff a spurious continuation
  dispatch is refused again at the same code object, check and fact.
* ``engine-exception`` — re-run the benchmark under the recorded fault
  plan; reproduced iff the same exception type escapes.
* ``oracle-failure`` — re-run :func:`repro.resilience.oracle.matrix_run`
  over the recorded executor-ladder rungs under the recorded plan;
  reproduced iff the oracle fails again.
* ``cell-failure`` — re-run the cell in a fresh single-worker process
  pool with the recorded chaos environment; reproduced iff the worker
  crashes, hangs past the watchdog, or raises the recorded error.
* ``fuzz-divergence`` — regenerate the program from the recorded
  generator seed + config, prove the regeneration is byte-identical by
  sha256, and re-run the N-way tier matrix under the recorded
  environment (including ``REPRO_CHAOS_FUZZ`` when a seeded fault
  caused the divergence); reproduced iff the matrix diverges again.

``--minimize`` shrinks the reproducer while it still reproduces: the
iteration count is halved toward the latest fault-plan entry, then each
fault entry is dropped greedily — except ``fuzz-divergence`` bundles,
which are shrunk at the *program* level by the AST minimizer
(:mod:`repro.fuzz.minimize`).  The minimized bundle is captured next
to the original with a ``minimized_from`` back-reference.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .bundles import ENV_KEYS, capture_bundle, list_bundles, load_bundle

#: wall-clock watchdog for cell-failure replays (a recorded hang chaos
#: sleeps for an hour; we call it reproduced long before that)
CELL_REPLAY_TIMEOUT = 60.0


@dataclass
class ReplayResult:
    reproduced: bool
    detail: str
    minimized: Optional[Path] = None


@contextmanager
def _replay_env(record: Dict[str, object], extra: Dict[str, str]):
    """Install the bundle's recorded REPRO_* environment plus overrides."""
    desired: Dict[str, str] = {}
    recorded = record.get("env")
    if isinstance(recorded, dict):
        for key in ENV_KEYS:
            if key in recorded:
                desired[key] = str(recorded[key])
    desired.update(extra)
    saved: Dict[str, Optional[str]] = {}
    touched = set(ENV_KEYS) | set(desired) | {
        "REPRO_BUNDLE_DIR", "REPRO_CHAOS_MAIN_PID", "REPRO_BUNDLES",
    }
    for key in touched:
        saved[key] = os.environ.get(key)
        if key in desired:
            os.environ[key] = desired[key]
        else:
            os.environ.pop(key, None)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _rebuild_engine_config(record: Dict[str, object]):
    from ..engine import EngineConfig
    from ..jit.checks import CheckKind

    config = record.get("config")
    config = config if isinstance(config, dict) else {}
    removed = frozenset(
        CheckKind[name] for name in config.get("removed_checks", ())
    )
    # Bundles from before the tier was recorded defer both to the
    # restored environment.
    return EngineConfig(
        target=str(record.get("target", config.get("target", "arm64"))),
        removed_checks=removed,
        emit_check_branches=bool(config.get("emit_check_branches", True)),
        tier=config.get("tier"),
        continuations=config.get("continuations"),
    )


def _rebuild_plan(record: Dict[str, object]):
    from ..resilience.faults import Fault, FaultKind, FaultPlan

    data = record.get("fault_plan")
    if not isinstance(data, dict):
        return None
    return FaultPlan(
        benchmark=str(data["benchmark"]),
        seed=int(data["seed"]),  # type: ignore[arg-type]
        faults=tuple(
            Fault(int(it), FaultKind(kind), int(salt))
            for it, kind, salt in data.get("faults", ())
        ),
    )


def _plan_with(plan, faults):
    from ..resilience.faults import FaultPlan

    if plan is None:
        return None
    return FaultPlan(benchmark=plan.benchmark, seed=plan.seed,
                     faults=tuple(faults))


def _run_benchmark(record: Dict[str, object], iterations: int, plan) -> Optional[BaseException]:
    """One replay run of the recorded benchmark; returns the escaping
    exception, if any."""
    from ..resilience.faults import FaultInjector
    from ..suite.runner import BenchmarkRunner, NoiseModel
    from ..suite.spec import get_benchmark

    spec = get_benchmark(str(record["benchmark"]))
    runner = BenchmarkRunner(
        spec,
        _rebuild_engine_config(record),
        NoiseModel(enabled=bool(record.get("noise", True))),
    )
    injector = FaultInjector(plan) if plan is not None else None
    try:
        runner.run(
            iterations=iterations,
            rep=int(record.get("rep", 0)),  # type: ignore[arg-type]
            injector=injector,
        )
    except Exception as failure:
        return failure
    return None


# ----------------------------------------------------------------------
# per-kind reproduction predicates
# ----------------------------------------------------------------------

def _same_divergence(original: Dict[str, object], candidate: Dict[str, object]) -> bool:
    if candidate.get("kind") != "divergence":
        return False
    return all(
        candidate.get(key) == original.get(key)
        for key in ("code", "block", "span", "mismatch")
    )


def _reproduce_divergence(
    record: Dict[str, object], iterations: int, faults
) -> Tuple[bool, Optional[Dict[str, object]]]:
    plan = _rebuild_plan(record)
    if faults is not None:
        plan = _plan_with(plan, faults)
    interval = record.get("audit_interval") or 0
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        extra = {
            "REPRO_AUDIT": str(int(interval)) if int(interval) > 1 else "1",
            "REPRO_BUNDLE_DIR": scratch,
        }
        with _replay_env(record, extra):
            _run_benchmark(record, iterations, plan)
        for path in list_bundles(Path(scratch)):
            candidate = load_bundle(path)
            if _same_divergence(record, candidate):
                return True, candidate
    return False, None


def _same_cont_divergence(
    original: Dict[str, object], candidate: Dict[str, object]
) -> bool:
    if candidate.get("kind") != "continuation-divergence":
        return False
    return all(
        candidate.get(key) == original.get(key)
        for key in ("code", "check_id", "bytecode_pc", "fact")
    )


def _reproduce_cont_divergence(
    record: Dict[str, object], iterations: int, faults
) -> bool:
    plan = _rebuild_plan(record)
    if faults is not None:
        plan = _plan_with(plan, faults)
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        # The recorded env carries REPRO_AUDIT (the sentinel must be
        # armed for dispatch audits to run) and REPRO_CHAOS_AUDIT (when
        # chaos seeded the spurious trip in the first place).
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            _run_benchmark(record, iterations, plan)
        for path in list_bundles(Path(scratch)):
            if _same_cont_divergence(record, load_bundle(path)):
                return True
    return False


def _reproduce_engine_exception(
    record: Dict[str, object], iterations: int, faults
) -> bool:
    plan = _plan_with(_rebuild_plan(record), faults)
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            failure = _run_benchmark(record, iterations, plan)
    return (
        failure is not None
        and type(failure).__name__ == record.get("error_type")
    )


def _reproduce_oracle_failure(
    record: Dict[str, object], iterations: int, faults
) -> bool:
    from ..resilience.faults import plan_for
    from ..resilience.oracle import (
        CHAOS_TIERS,
        LADDER_BY_NAME,
        matrix_run,
        resolve_benchmark,
    )

    benchmark = str(record["benchmark"])
    plan = _plan_with(_rebuild_plan(record), faults) or plan_for(
        benchmark, int(record.get("seed", 0)), iterations  # type: ignore[arg-type]
    )
    names = record.get("tiers")
    tiers = (
        tuple(LADDER_BY_NAME[str(name)] for name in names)
        if isinstance(names, list) else CHAOS_TIERS
    )
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            outcome = matrix_run(
                resolve_benchmark(benchmark), str(record["target"]),
                plan=plan, iterations=iterations, tiers=tiers, capture=False,
            )
    return not outcome.ok


def _reproduce_cell_failure(record: Dict[str, object]) -> Tuple[bool, str]:
    from ..exec.cells import RunCell, compute_cell

    data = record.get("cell")
    if not isinstance(data, dict):
        return False, "bundle has no cell record"
    cell = RunCell(
        kind=str(data["kind"]),
        benchmark=str(data["benchmark"]),
        target=str(data["target"]),
        iterations=int(data["iterations"]),  # type: ignore[arg-type]
        rep=int(data.get("rep", 0)),  # type: ignore[arg-type]
        removed=tuple(data.get("removed", ())),
        emit_check_branches=bool(data.get("emit_check_branches", True)),
        noise=bool(data.get("noise", True)),
    )
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        # REPRO_CHAOS_MAIN_PID must NOT name this process: the recorded
        # crash/hang happened in a pool worker and the chaos hook only
        # fires off the main pid — a fresh single-worker pool recreates
        # exactly that.
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            pool = ProcessPoolExecutor(max_workers=1)
            future = pool.submit(compute_cell, cell)
            try:
                future.result(timeout=CELL_REPLAY_TIMEOUT)
                return False, "cell completed without failing"
            except BrokenProcessPool:
                return True, "worker process died again"
            except FutureTimeout:
                return True, (
                    f"worker hung past {CELL_REPLAY_TIMEOUT:.0f}s watchdog"
                )
            except Exception as failure:
                detail = f"{type(failure).__name__}: {failure}"
                recorded = str(record.get("error", ""))
                if type(failure).__name__ in recorded or detail == recorded:
                    return True, f"cell failed again: {detail}"
                return False, f"cell failed differently: {detail}"
            finally:
                for process in list(
                    (getattr(pool, "_processes", None) or {}).values()
                ):
                    try:
                        process.terminate()
                    except OSError:
                        pass
                pool.shutdown(wait=False, cancel_futures=True)


def _regenerate_fuzz_program(record: Dict[str, object], source: Optional[str]):
    """Rebuild the generated program a fuzz bundle records.

    Regenerates from (seed, config) and — when no candidate ``source``
    override is supplied — refuses a generator whose output no longer
    matches the recorded sha256: a stale bundle must never silently
    replay a different program.
    """
    import dataclasses

    from ..fuzz.generator import (
        GENERATOR_VERSION,
        FuzzConfig,
        generate_program,
    )
    from ..fuzz.oracle import source_digest

    version = int(record.get("generator_version", GENERATOR_VERSION))  # type: ignore[arg-type]
    if version != GENERATOR_VERSION:
        raise ValueError(
            f"bundle generator version {version} != {GENERATOR_VERSION}"
        )
    config = FuzzConfig.from_dict(record.get("generator_config") or {})  # type: ignore[arg-type]
    program = generate_program(int(record["generator_seed"]), config)  # type: ignore[arg-type]
    if source is None:
        recorded = record.get("source_sha256")
        if recorded and source_digest(program.source) != str(recorded):
            raise ValueError(
                "regenerated source does not match the recorded sha256"
            )
        return program
    return dataclasses.replace(program, source=source)


def _reproduce_fuzz_divergence(
    record: Dict[str, object], iterations: int, source: Optional[str] = None
) -> bool:
    from ..fuzz.oracle import run_fuzz_program

    if source is None and record.get("minimized_from"):
        # a minimized bundle's source is no longer the generator's
        # output — replay the recorded (shrunken) program directly
        source = str(record["source"])
    try:
        program = _regenerate_fuzz_program(record, source)
    except ValueError:
        return False
    targets = (str(record.get("target", "arm64")),)
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            verdict = run_fuzz_program(
                program,
                targets=targets,
                iterations=iterations,
                capture=False,
                with_profile=False,
            )
    return not verdict.ok


def _baseline_runs_clean(record: Dict[str, object], source: str) -> bool:
    """Does the candidate program complete an interpreter-only run?"""
    from ..engine import EngineConfig
    from ..machine.ladder import Tier
    from ..suite.runner import BenchmarkRunner, NoiseModel
    from ..suite.spec import BenchmarkSpec

    spec = BenchmarkSpec(
        name=str(record.get("benchmark", "FZ-candidate")),
        category="Objects",
        source=source,
        expected=None,
    )
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        with _replay_env(record, {"REPRO_BUNDLE_DIR": scratch}):
            try:
                BenchmarkRunner(
                    spec,
                    EngineConfig(tier=Tier.INTERP),
                    NoiseModel(enabled=False),
                ).run(iterations=2)
            except Exception:
                return False
    return True


def _minimize_fuzz(record: Dict[str, object], iterations: int):
    """AST-level shrink of a fuzz bundle's program; the divergence must
    still reproduce and the baseline run must stay clean (a candidate
    that crashes the interpreter is a broken program, not a smaller
    reproducer)."""
    from ..fuzz.minimize import minimize_source

    def predicate(source: str) -> bool:
        if not _baseline_runs_clean(record, source):
            return False
        return _reproduce_fuzz_divergence(record, iterations, source)

    return minimize_source(str(record["source"]), predicate)


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

def _minimize(record: Dict[str, object], reproduce) -> Tuple[int, List]:
    """Greedy shrink: halve iterations toward the latest fault, then drop
    fault-plan entries one at a time.  ``reproduce(iterations, faults)``
    re-runs the failure; every accepted step still reproduces."""
    iterations = int(record.get("iterations", 1))  # type: ignore[arg-type]
    plan = _rebuild_plan(record)
    faults: List = list(plan.faults) if plan is not None else []

    while iterations > 1:
        trial = max(1, iterations // 2)
        if faults:
            trial = max(trial, 1 + max(fault.iteration for fault in faults))
        if trial >= iterations:
            break
        if reproduce(trial, faults):
            iterations = trial
        else:
            break

    index = 0
    while index < len(faults):
        candidate = faults[:index] + faults[index + 1:]
        if reproduce(iterations, candidate):
            faults = candidate
        else:
            index += 1
    return iterations, faults


def _write_minimized(
    record: Dict[str, object],
    iterations: int,
    faults,
    bundle_dir: Path,
    extra: Optional[Dict[str, object]] = None,
) -> Optional[Path]:
    from .bundles import serialize_plan

    payload = {
        key: value
        for key, value in record.items()
        if key not in ("bundle_id", "captured_at", "pid", "schema", "kind")
    }
    payload["iterations"] = iterations
    plan = _plan_with(_rebuild_plan(record), faults)
    payload["fault_plan"] = serialize_plan(plan)
    payload["minimized_from"] = record.get("bundle_id")
    if extra:
        payload.update(extra)
    return capture_bundle(str(record["kind"]), payload, root=bundle_dir)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def replay_bundle(
    path: Path, minimize: bool = False
) -> ReplayResult:
    """Re-execute one bundle; optionally shrink it to a minimal reproducer."""
    record = load_bundle(path)
    kind = record.get("kind")
    bundle_dir = path.resolve().parent

    if kind == "divergence":
        def reproduce(iterations, faults):
            hit, _candidate = _reproduce_divergence(record, iterations, faults)
            return hit

        reproduced, _candidate = _reproduce_divergence(
            record,
            int(record.get("iterations", 1)),  # type: ignore[arg-type]
            None,
        )
        result = ReplayResult(
            reproduced,
            "divergence recurred on the recorded audit schedule"
            if reproduced else "no matching divergence was observed",
        )
    elif kind == "continuation-divergence":
        def reproduce(iterations, faults):
            return _reproduce_cont_divergence(record, iterations, faults)

        reproduced = reproduce(
            int(record.get("iterations", 1)),  # type: ignore[arg-type]
            None,
        )
        result = ReplayResult(
            reproduced,
            "spurious continuation dispatch was refused again at the "
            "recorded check"
            if reproduced else "no matching continuation divergence was "
            "observed",
        )
    elif kind == "engine-exception":
        def reproduce(iterations, faults):
            return _reproduce_engine_exception(record, iterations, faults)

        plan = _rebuild_plan(record)
        reproduced = reproduce(
            int(record.get("iterations", 1)),  # type: ignore[arg-type]
            list(plan.faults) if plan is not None else None,
        )
        result = ReplayResult(
            reproduced,
            f"{record.get('error_type')} escaped again"
            if reproduced else "run completed without the recorded exception",
        )
    elif kind == "oracle-failure":
        def reproduce(iterations, faults):
            return _reproduce_oracle_failure(record, iterations, faults)

        plan = _rebuild_plan(record)
        reproduced = reproduce(
            int(record.get("iterations", 1)),  # type: ignore[arg-type]
            list(plan.faults) if plan is not None else None,
        )
        result = ReplayResult(
            reproduced,
            "oracle failed again under the recorded fault plan"
            if reproduced else "oracle passed on replay",
        )
    elif kind == "cell-failure":
        reproduced, detail = _reproduce_cell_failure(record)
        return ReplayResult(reproduced, detail)  # no minimizer for cells
    elif kind == "fuzz-divergence":
        iterations = int(record.get("iterations", 14))  # type: ignore[arg-type]
        reproduced = _reproduce_fuzz_divergence(record, iterations)
        result = ReplayResult(
            reproduced,
            "regenerated program diverged across the tier matrix again"
            if reproduced
            else "tier matrix agreed on replay (or regeneration mismatched)",
        )
        if minimize and reproduced:
            shrunk = _minimize_fuzz(record, iterations)
            from ..fuzz.oracle import source_digest

            payload = {
                key: value
                for key, value in record.items()
                if key not in ("bundle_id", "captured_at", "pid", "schema",
                               "kind")
            }
            payload["source"] = shrunk.source
            payload["source_sha256"] = source_digest(shrunk.source)
            payload["minimized_from"] = record.get("bundle_id")
            payload["minimize_attempts"] = shrunk.attempts
            payload["minimize_reductions"] = shrunk.reductions
            result.minimized = capture_bundle(
                "fuzz-divergence", payload, root=bundle_dir
            )
            before = len(str(record.get("source", "")).splitlines())
            after = len(shrunk.source.splitlines())
            result.detail += (
                f"; program minimized {before} -> {after} line(s) in "
                f"{shrunk.attempts} attempt(s)"
            )
        return result
    else:
        return ReplayResult(False, f"unknown bundle kind {kind!r}")

    if minimize and result.reproduced:
        iterations, faults = _minimize(record, reproduce)
        result.minimized = _write_minimized(
            record, iterations, faults, bundle_dir
        )
        result.detail += (
            f"; minimized to {iterations} iteration(s), "
            f"{len(faults)} fault(s)"
        )
    return result
