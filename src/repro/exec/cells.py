"""Work-unit descriptors for the experiment scheduler.

A :class:`RunCell` names one measurement the harness may ever need — a
timed repetition, a PC-sampled profiling run, or a leftover-check probe —
as a frozen, hashable, picklable value.  That single representation is
what lets the scheduler deduplicate cells across figure drivers (Fig.
7/8/9 share the same with/without-checks runs), ship them to pool workers,
and key the persistent on-disk cache.

:func:`compute_cell` is the one entry point that turns a cell into its
result.  It is a plain module-level function so ``ProcessPoolExecutor``
can pickle a reference to it, and it is deterministic: every random draw
inside comes from :func:`repro.suite.runner.stable_seed`, so the same cell
produces the same result in any process.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from ..engine import Engine, EngineConfig
from ..jit.checks import CheckKind
from ..profiling.attribution import AttributionResult, attribute_samples
from ..profiling.sampler import attach_sampler
from ..suite.runner import (
    BenchmarkRunner,
    NoiseModel,
    RunResult,
    determine_removable_kinds,
    stable_seed,
)
from ..suite.spec import BenchmarkSpec, get_benchmark

#: default sampling period (simulated cycles); odd to avoid phase lock
SAMPLE_PERIOD = 211.0

#: default probe length for leftover-check detection (matches the historic
#: ``ResultsCache.removable_kinds`` default; part of the cell key)
REMOVABLE_ITERATIONS = 40

#: cell kinds
TIMED = "timed"
PROFILED = "profiled"
REMOVABLE = "removable"
CORPUS = "corpus"


@dataclass(frozen=True)
class RunCell:
    """One schedulable measurement of one benchmark configuration."""

    kind: str  # TIMED / PROFILED / REMOVABLE / CORPUS
    benchmark: str
    target: str
    iterations: int
    rep: int = 0
    #: sorted CheckKind names withheld from codegen (TIMED only)
    removed: Tuple[str, ...] = ()
    emit_check_branches: bool = True
    noise: bool = True
    #: kind-specific discriminator; CORPUS cells carry the entry's source
    #: digest here so a regenerated corpus entry invalidates its cache row
    extra: str = ""

    def key(self) -> str:
        """Stable text form of the cell (the cache key before hashing)."""
        return "|".join(
            (
                "cell-v2",
                self.kind,
                self.benchmark,
                self.target,
                str(self.iterations),
                str(self.rep),
                ",".join(self.removed),
                "1" if self.emit_check_branches else "0",
                "1" if self.noise else "0",
                self.extra,
            )
        )

    def token(self) -> str:
        """Content-address of the cell for the on-disk cache."""
        return hashlib.sha256(self.key().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        extras = []
        if self.removed:
            extras.append(f"-{len(self.removed)} checks")
        if not self.emit_check_branches:
            extras.append("no-branches")
        if not self.noise:
            extras.append("quiet")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{self.kind} {self.benchmark} [{self.target}]"
            f" x{self.iterations} rep{self.rep}{suffix}"
        )


SpecOrName = Union[BenchmarkSpec, str]


def _name_of(benchmark: SpecOrName) -> str:
    return benchmark.name if isinstance(benchmark, BenchmarkSpec) else benchmark


def _removed_names(removed: Iterable[object]) -> Tuple[str, ...]:
    return tuple(sorted(getattr(kind, "name", kind) for kind in removed))  # type: ignore[arg-type]


def timed_cell(
    benchmark: SpecOrName,
    target: str,
    iterations: int,
    rep: int = 0,
    removed: FrozenSet[CheckKind] = frozenset(),
    emit_check_branches: bool = True,
    noise: bool = True,
) -> RunCell:
    return RunCell(
        TIMED,
        _name_of(benchmark),
        target,
        iterations,
        rep,
        _removed_names(removed),
        emit_check_branches,
        noise,
    )


def profiled_cell(
    benchmark: SpecOrName, target: str, iterations: int, rep: int = 0
) -> RunCell:
    return RunCell(PROFILED, _name_of(benchmark), target, iterations, rep)


def removable_cell(
    benchmark: SpecOrName, target: str, iterations: int = REMOVABLE_ITERATIONS
) -> RunCell:
    # Fields irrelevant to the probe are normalized so equivalent requests
    # collapse to one cell; `iterations` is deliberately part of the key
    # (two callers probing at different lengths must not share results).
    return RunCell(REMOVABLE, _name_of(benchmark), target, iterations, 0, (), True, False)


def corpus_cell(name: str, target: str, iterations: int = 14) -> RunCell:
    """Cell running a graduated fuzz-corpus program through the tier matrix.

    ``extra`` carries the entry's source digest: regenerating the corpus
    (new generator version, re-fuzzed entry under the same name) changes
    the digest and therefore the cache key, so stale matrix verdicts are
    never served for a different program body.
    """
    from ..fuzz.corpus import corpus_dir, load_entry

    entry = load_entry(corpus_dir() / f"{name}.json")
    return RunCell(
        CORPUS, name, target, iterations, 0, (), True, False,
        extra=entry.source_sha256[:16],
    )


@dataclass
class ProfiledRun:
    """A PC-sampled run plus its attribution and static check statistics."""

    run: RunResult
    window: AttributionResult
    truth: AttributionResult
    #: static check counts over this benchmark's optimized code
    static_checks: int = 0
    static_body: int = 0
    checks_by_kind: Dict[object, int] = field(default_factory=dict)

    @property
    def static_density(self) -> float:
        """Checks emitted per 100 JIT instructions (Fig. 1 metric)."""
        if not self.static_body:
            return 0.0
        return 100.0 * self.static_checks / self.static_body


#: pid of the process running the scheduler, whose cells the chaos hook
#: never crashes or hangs.  A fork child inherits a pid that is not its
#: own; a spawn child starts with None.
_scheduler_pid: Optional[int] = None


def mark_scheduler_process() -> None:
    """Record this process as the scheduler's (see :func:`_chaos_hook`)."""
    global _scheduler_pid
    _scheduler_pid = os.getpid()


def _chaos_hook(cell: RunCell) -> None:
    """Test-only failure injection, driven by ``REPRO_CHAOS_EXEC``.

    The variable holds ``action:benchmark`` (e.g. ``crash:FIB``); when a
    matching cell is computed the worker crashes (``os._exit``), hangs, or
    raises — exercising the scheduler's retry/timeout/quarantine paths with
    real process death rather than mocks.  ``crash`` and ``hang`` are
    suppressed in the scheduler's own process (:func:`mark_scheduler_process`)
    so serial fallback passes survive to report the failure.
    """
    spec_var = os.environ.get("REPRO_CHAOS_EXEC")
    if not spec_var:
        return
    try:
        action, _, benchmark = spec_var.partition(":")
    except ValueError:
        return
    if benchmark != cell.benchmark:
        return
    in_main = _scheduler_pid == os.getpid()
    if action == "crash" and not in_main:
        os._exit(17)
    elif action == "hang" and not in_main:
        time.sleep(3600)
    elif action == "fail":
        raise RuntimeError(f"chaos: injected failure for {cell.describe()}")


def compute_cell(cell: RunCell) -> object:
    """Execute one cell; the sole entry point for scheduler workers."""
    from ..supervise.bundles import clear_run_context, set_run_context

    _chaos_hook(cell)
    # Identify the cell in any crash bundle captured below this frame, so
    # a worker that dies deep in the engine still names its work unit.
    set_run_context(
        cell_kind=cell.kind,
        cell_token=cell.token(),
        benchmark=cell.benchmark,
        target=cell.target,
        iterations=cell.iterations,
        rep=cell.rep,
    )
    try:
        spec = _resolve_spec(cell.benchmark)
        if cell.kind == CORPUS:
            return _corpus_matrix(spec, cell)
        if cell.kind == TIMED:
            config = EngineConfig(
                target=cell.target,
                removed_checks=frozenset(CheckKind[name] for name in cell.removed),
                emit_check_branches=cell.emit_check_branches,
            )
            runner = BenchmarkRunner(spec, config, NoiseModel(enabled=cell.noise))
            return runner.run(iterations=cell.iterations, rep=cell.rep)
        if cell.kind == PROFILED:
            return _profiled_run(spec, cell.target, cell.iterations, cell.rep)
        if cell.kind == REMOVABLE:
            return determine_removable_kinds(
                spec, EngineConfig(target=cell.target), iterations=cell.iterations
            )
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    finally:
        clear_run_context(
            "cell_kind", "cell_token", "benchmark", "target", "iterations",
            "rep",
        )


def _resolve_spec(name: str) -> BenchmarkSpec:
    """Suite registry first, then graduated fuzz-corpus programs.

    Lazy corpus import keeps the hot suite path free of the fuzz package
    and avoids an import cycle (fuzz's oracle imports the resilience
    oracle, which imports the suite runner this module also uses).
    """
    try:
        return get_benchmark(name)
    except KeyError:
        from ..fuzz.corpus import corpus_benchmark

        spec = corpus_benchmark(name)
        if spec is None:
            raise KeyError(f"unknown benchmark {name!r} (suite and corpus)")
        return spec


def _corpus_matrix(spec: BenchmarkSpec, cell: RunCell) -> object:
    """Run one corpus program through the full differential tier matrix."""
    from ..fuzz.oracle import fuzz_base_config
    from ..resilience.faults import FaultPlan
    from ..resilience.oracle import matrix_run

    plan = FaultPlan(benchmark=spec.name, seed=cell.rep, faults=())
    return matrix_run(
        spec,
        target=cell.target,
        plan=plan,
        iterations=cell.iterations,
        base_config=fuzz_base_config(),
        capture=False,
    )


def _profiled_run(
    spec: BenchmarkSpec, target: str, iterations: int, rep: int
) -> ProfiledRun:
    config = EngineConfig(target=target)
    noise = NoiseModel(enabled=True)
    rng = random.Random((stable_seed(spec.name) & 0xFFFFFFF) * 7919 + rep)
    config = noise.perturb_config(config, rng)
    engine = Engine(config)
    engine.load(spec.source)
    engine.call_global("setup")
    # Warm up so steady-state code dominates the samples (the paper
    # samples whole runs; warmup samples land outside JIT code either
    # way and only dilute, which we also model).
    warmup = max(4, iterations // 5)
    for i in range(warmup):
        engine.current_iteration = i
        engine.call_global("run")
    sampler = attach_sampler(engine, SAMPLE_PERIOD)
    cycles: List[float] = []
    for i in range(iterations):
        engine.current_iteration = warmup + i
        before = engine.total_cycles
        engine.call_global("run")
        cycles.append(engine.total_cycles - before)
    window = attribute_samples(sampler, "window")
    truth = attribute_samples(sampler, "truth")
    static_checks = 0
    static_body = 0
    checks_by_kind: Dict[object, int] = {}
    seen_codes = set()
    for shared in engine.functions:
        code = shared.code
        if code is None or id(code) in seen_codes:
            continue
        seen_codes.add(id(code))
        static_checks += len(code.deopt_points)
        static_body += code.body_instruction_count()
        for point in code.deopt_points.values():
            checks_by_kind[point.kind] = checks_by_kind.get(point.kind, 0) + 1
    run = RunResult(
        name=spec.name,
        target=target,
        iterations=iterations,
        cycles=cycles,
        result=None,
        valid=True,
        deopts=[],
        code_stats=_sum_code_stats(engine),
        hw_stats=engine.executor.stats.snapshot(),
        buckets=dict(engine.buckets),
        total_cycles=engine.total_cycles,
    )
    return ProfiledRun(
        run=run,
        window=window,
        truth=truth,
        static_checks=static_checks,
        static_body=static_body,
        checks_by_kind=checks_by_kind,
    )


def _sum_code_stats(engine: Engine) -> Dict[str, int]:
    totals = {"body_instructions": 0, "check_instructions": 0, "deopt_branches": 0}
    seen = set()
    for shared in engine.functions:
        code = shared.code
        if code is not None and id(code) not in seen:
            seen.add(id(code))
            stats = code.check_instruction_stats()
            for k in totals:
                totals[k] += stats[k]
    return totals
