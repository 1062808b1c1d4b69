"""Benchmark runner: iterations, repetitions, noise, leftover checks.

Reproduces the paper's measurement protocol (Section II-D): each benchmark
runs for many iterations (1,000 in the paper; scaled down by default) and
the whole process repeats several times (30 in the paper).

Two experimental realities of the paper are modelled explicitly:

* **Noise** — "there is some non-determinism in V8 in how JIT-compilation
  and garbage collection are triggered" (Section IV-A), and the authors
  argue *against* artificially quieting it.  Our simulator is deterministic,
  so per-repetition jitter is injected where V8's nondeterminism lives: the
  tier-up thresholds and the GC cadence vary per repetition, and a small
  multiplicative measurement noise models OS/timer jitter on real hardware.
* **Leftover checks** — removing a check type that actually fires breaks a
  benchmark (16/51 in the paper).  :func:`determine_removable_kinds` runs
  the benchmark once with all checks enabled and withholds every eager
  check kind that fired, exactly the paper's Section III-B.2 procedure.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..engine import Engine, EngineConfig
from ..jit.checks import CheckKind, DeoptCategory, category_of
from .spec import BenchmarkSpec

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject

#: All eager check kinds (candidates for removal).
EAGER_KINDS: FrozenSet[CheckKind] = frozenset(
    kind for kind in CheckKind if category_of(kind) == DeoptCategory.EAGER
)


def stable_seed(name: str) -> int:
    """Process-stable seed digest for a benchmark name.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), so seeding noise
    from it makes results differ across runs and across pool workers.
    CRC32 is stable everywhere and cheap.
    """
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class NoiseModel:
    """Per-repetition nondeterminism injection."""

    enabled: bool = True
    measurement_sigma: float = 0.006  # ~0.6 % multiplicative timer noise
    tierup_jitter: float = 0.35  # +-35 % threshold jitter
    gc_period_choices: Tuple[int, ...] = (13, 17, 23, 29)

    def perturb_config(self, config: EngineConfig, rng: random.Random) -> EngineConfig:
        if not self.enabled:
            return config
        scale = 1.0 + rng.uniform(-self.tierup_jitter, self.tierup_jitter)
        return dataclasses.replace(
            config,
            tierup_invocations=max(2, int(config.tierup_invocations * scale)),
            tierup_backedges=max(100, int(config.tierup_backedges * scale)),
            random_seed=rng.getrandbits(62) | 1,
        )

    def gc_period(self, rng: random.Random) -> int:
        if not self.enabled:
            return 16
        return rng.choice(self.gc_period_choices)

    def iteration_noise(self, rng: random.Random) -> float:
        if not self.enabled:
            return 1.0
        return max(0.5, rng.gauss(1.0, self.measurement_sigma))


@dataclass
class RunResult:
    """Outcome of one repetition of one benchmark configuration."""

    name: str
    target: str
    iterations: int
    #: simulated cycles per iteration (noise applied)
    cycles: List[float]
    result: object
    valid: bool
    #: (iteration, check kind name) per eager deopt event
    deopts: List[Tuple[int, str]]
    #: static stats summed over this benchmark's optimized code objects
    code_stats: Dict[str, int]
    #: hardware-counter deltas over the measured iterations
    hw_stats: Dict[str, int]
    #: cycle buckets at the end of the run
    buckets: Dict[str, float]
    total_cycles: float = 0.0
    #: every iteration's Python-level result (populated only when the
    #: runner is asked to collect them, e.g. by the differential oracle)
    values: Optional[List[object]] = None
    #: deopt/backoff counters (Engine.resilience_stats) at the end of the run
    resilience: Optional[Dict[str, object]] = None

    @property
    def steady_state_cycles(self) -> float:
        """Mean of the last 30 % of iterations."""
        tail = self.cycles[-max(1, len(self.cycles) * 3 // 10):]
        return sum(tail) / len(tail)

    @property
    def total_time(self) -> float:
        return sum(self.cycles)


class BenchmarkRunner:
    """Runs one benchmark under one engine configuration."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        config: Optional[EngineConfig] = None,
        noise: Optional[NoiseModel] = None,
    ) -> None:
        self.spec = spec
        self.config = config or EngineConfig()
        self.noise = noise or NoiseModel(enabled=False)
        #: the engine of the most recent :meth:`run` (chaos harnesses read
        #: deopt counters and heap state off it after the run)
        self.last_engine: Optional[Engine] = None

    def run(
        self,
        iterations: int = 100,
        rep: int = 0,
        reference: object = None,
        injector: object = None,
        collect_values: bool = False,
    ) -> RunResult:
        """One repetition.

        ``injector`` is an optional fault injector (duck-typed: anything
        with ``before_iteration(engine, iteration)``) invoked between
        iterations — see :mod:`repro.resilience.faults`.

        Any escaping engine exception captures a crash bundle
        (:mod:`repro.supervise.bundles`) carrying everything a replay
        needs — benchmark, config, rep, the serialized fault plan — and
        then propagates unchanged.
        """
        import traceback

        # Imported lazily: repro.supervise pulls in repro.exec, whose
        # cells module imports the engine this module already imports.
        from ..supervise.bundles import (
            capture_bundle,
            clear_run_context,
            serialize_plan,
            set_run_context,
        )

        set_run_context(
            benchmark=self.spec.name,
            target=self.config.target,
            iterations=iterations,
            rep=rep,
            noise=self.noise.enabled,
            config={
                "removed_checks": sorted(
                    kind.name for kind in self.config.removed_checks
                ),
                "emit_check_branches": self.config.emit_check_branches,
                "tier": self.config.resolved_tier().label,
                "continuations": self.config.resolved_continuations(),
            },
            fault_plan=serialize_plan(getattr(injector, "plan", None)),
        )
        try:
            return self._run(iterations, rep, reference, injector, collect_values)
        except Exception as failure:
            capture_bundle("engine-exception", {
                "error": f"{type(failure).__name__}: {failure}",
                "error_type": type(failure).__name__,
                "traceback": "".join(
                    traceback.format_exception(
                        type(failure), failure, failure.__traceback__
                    )
                ),
            })
            raise
        finally:
            clear_run_context(
                "benchmark", "target", "iterations", "rep", "noise",
                "config", "fault_plan",
            )

    def _run(
        self,
        iterations: int,
        rep: int,
        reference: object,
        injector: object,
        collect_values: bool,
    ) -> RunResult:
        rng = random.Random((stable_seed(self.spec.name) & 0xFFFFFFF) * 1000003 + rep)
        config = self.noise.perturb_config(self.config, rng)
        engine = Engine(config)
        self.last_engine = engine
        engine.load(self.spec.source)
        engine.call_global("setup")
        gc_period = self.noise.gc_period(rng)

        cycles: List[float] = []
        values: Optional[List[object]] = [] if collect_values else None
        result: object = None
        valid = True
        hw_before = engine.executor.stats.snapshot()
        for iteration in range(iterations):
            engine.current_iteration = iteration
            if injector is not None:
                injector.before_iteration(engine, iteration)
            before = engine.total_cycles
            value = engine.call_global("run")
            if values is not None:
                values.append(value)
            elapsed = (engine.total_cycles - before) * self.noise.iteration_noise(rng)
            if config.gc_between_iterations and iteration % gc_period == gc_period - 1:
                gc_before = engine.total_cycles
                engine.run_gc()
                elapsed += engine.total_cycles - gc_before
            cycles.append(elapsed)
            if iteration == 0:
                result = value
            elif not _consistent(self.spec, value, result):
                valid = False
        if reference is not None and not _consistent(self.spec, result, reference):
            valid = False
        if self.spec.expected is not None and not self.spec.validate(result):
            valid = False
        hw_after = engine.executor.stats.snapshot()

        code_stats = {"body_instructions": 0, "check_instructions": 0, "deopt_branches": 0}
        for shared in engine.functions:
            if shared.code is not None:
                stats = shared.code.check_instruction_stats()
                for key in code_stats:
                    code_stats[key] += stats[key]
        deopts = [
            (event.iteration, event.kind.name)
            for event in engine.deopt_events
            if category_of(event.kind) == DeoptCategory.EAGER
        ]
        return RunResult(
            name=self.spec.name,
            target=config.target,
            iterations=iterations,
            cycles=cycles,
            result=result,
            valid=valid,
            deopts=deopts,
            code_stats=code_stats,
            hw_stats={k: hw_after[k] - hw_before[k] for k in hw_after},
            buckets=dict(engine.buckets),
            total_cycles=engine.total_cycles,
            values=values,
            resilience=engine.resilience_stats(),
        )


def _consistent(spec: BenchmarkSpec, a: object, b: object) -> bool:
    if spec.tolerance:
        try:
            return abs(float(a) - float(b)) <= spec.tolerance * max(1.0, abs(float(b)))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return a == b
    return a == b


def determine_removable_kinds(
    spec: BenchmarkSpec,
    base_config: Optional[EngineConfig] = None,
    iterations: int = 60,
) -> Tuple[FrozenSet[CheckKind], FrozenSet[CheckKind]]:
    """(removable kinds, leftover kinds) for a benchmark.

    A kind is *leftover* (must stay) when a deopt of that kind fires during
    a fully-checked run — removing it would alter the program's semantics
    (paper Section III-B.2).
    """
    config = base_config or EngineConfig()
    runner = BenchmarkRunner(spec, config, NoiseModel(enabled=False))
    result = runner.run(iterations=iterations)
    fired = frozenset(CheckKind[name] for _it, name in result.deopts)
    leftovers = frozenset(fired & EAGER_KINDS)
    return frozenset(EAGER_KINDS - leftovers), leftovers


def compile_benchmark(
    spec: BenchmarkSpec,
    config: Optional[EngineConfig] = None,
    iterations: int = 40,
) -> Engine:
    """Warm a benchmark until its hot functions are JIT-compiled.

    Returns the engine; the compiled code objects are on
    ``engine.functions[i].code``.  Used by the ``python -m repro.analysis``
    CLI and by analysis tests that need real compiled code without the
    full measurement protocol.
    """
    engine = Engine(config or EngineConfig())
    engine.load(spec.source)
    engine.call_global("setup")
    for iteration in range(iterations):
        engine.current_iteration = iteration
        engine.call_global("run")
    return engine


def compiled_code_objects(engine: Engine) -> List["CodeObject"]:
    """The live optimized code objects of an engine, in function order."""
    return [
        shared.code for shared in engine.functions if shared.code is not None
    ]


def run_benchmark(
    spec: BenchmarkSpec,
    config: Optional[EngineConfig] = None,
    iterations: int = 100,
    reps: int = 1,
    noise: Optional[NoiseModel] = None,
) -> List[RunResult]:
    """Run ``reps`` repetitions; validates cross-repetition consistency."""
    runner = BenchmarkRunner(spec, config, noise)
    results: List[RunResult] = []
    reference: object = None
    for rep in range(reps):
        result = runner.run(iterations=iterations, rep=rep, reference=reference)
        if reference is None:
            reference = result.result
        results.append(result)
    return results
