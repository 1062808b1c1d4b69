"""The four workloads, each a closed loop driven from one process.

* ``steady``    FIB, AES2, MANDEL, RAY and RICH on arm64, each warmed past
  tier-up during set-up; the timed phase then runs rounds of one
  ``run()`` per program under the runner's protocol (noise off, GC every
  16 iterations) in whole GC periods until the run length is spent
  (three periods at 10 s).
  Isolates execution in the machine tiers.
* ``coldstart`` every suite program, each in a fresh engine, run just
  past tier-up (12 iterations).  Programs alternate between arm64 and x64
  in registry order, so both code generators are exercised in one pass
  of about half the cost of running every program on both ISAs.  Front
  end, interpreter, optimizer and every tier's compile step dominate.
* ``storm``     two ``plan_for`` fault plans (plan seeds 0 and 1) over each
  deopt-prone suite program (RICH, RAY, FIB, AES2) and each fuzz corpus
  program, 12 iterations each on the default ladder: code is invalidated
  instead of reused (deopt materialisation, continuation dispatch, ladder
  descents, recompiles).
* ``figures``   the smoke-scale figure pipeline through ``repro.exec`` at
  ``jobs=1`` with a fresh, empty cache directory, trimmed to the drivers
  that fit one run: ``builtins``, ``fig01``, ``fig03``, ``fig04`` and
  ``fig10`` cover the profiling sampler, ``uarch.pipeline`` and cache
  writes.

Only ``steady`` uses the seed: it orders the programs within a round.
``coldstart``, ``storm`` and ``figures`` run one fixed pass in registry
order.  Their operations start from fresh engines while the process-wide
generated-code memo keeps growing, so the order moves peak memory (by up
to 40 % on coldstart across five seeds) and a second pass in the same
process would measure warm compiles; storm's fault plans are fixed too,
because drawing them from the seed made the pass's work vary by about
9 % between seeds.  ``steady`` fills the run length.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine import Engine, EngineConfig
from repro.resilience.faults import FaultInjector, FaultPlan, plan_for
from repro.resilience.oracle import (
    EXECUTOR_LADDER,
    canonical_value,
    resolve_benchmark,
    snapshot_globals,
)
from repro.suite.runner import BenchmarkRunner, NoiseModel
from repro.suite.spec import all_benchmarks, get_benchmark

from . import refs
from .hostspeed import HostSpeed
from .refs import Checker

STEADY_PROGRAMS = ("FIB", "AES2", "MANDEL", "RAY", "RICH")
#: the runner's GC cadence with noise off (NoiseModel.gc_period)
GC_PERIOD = 16
#: warm-up iterations per steady program: one GC period, past every
#: program's optimizing tier-up (iteration 7 at the latest); the last two
#: trace formations (AES2 at 17, RICH at 24) fall in the timed phase
STEADY_WARMUP = GC_PERIOD
STEADY_SETUP_REPS = 3
#: timed iterations per steady program that have recorded digests
STEADY_HORIZON = 256
COLDSTART_ITERATIONS = 12
STORM_SUITE = ("RICH", "RAY", "FIB", "AES2")
STORM_ITERATIONS = 12
#: plan seeds applied to every storm program in every run
STORM_PLAN_SEEDS = (0, 1)
FIGURE_DRIVERS = ("builtins", "fig01", "fig03", "fig04", "fig10")
#: timed iterations per (program, rung) in the tier ablation
ABLATION_ITERATIONS = 4
#: set-up repetitions of the workloads whose set-up is only preparation
PREP_REPS = 3


def interp_config() -> EngineConfig:
    """The reference rung: the bytecode interpreter alone."""
    return EXECUTOR_LADDER[0].apply(EngineConfig())


class EngineTally:
    """Counters read from the engines' public ``*_stats()`` methods."""

    KEYS = ("trace_entries", "traces", "chained", "versions", "guards",
            "guard_failures", "dispatches", "eager", "descents", "breaker")

    def __init__(self) -> None:
        self.values: Dict[str, int] = dict.fromkeys(self.KEYS, 0)

    def add(self, engine: Engine) -> None:
        trace = engine.trace_stats()
        typed = engine.typed_check_stats()
        res = engine.resilience_stats()
        v = self.values
        v["trace_entries"] += trace["trace_entries"]
        v["traces"] += trace["traces"]
        v["chained"] += typed["version_chained_entries"]
        v["versions"] += typed["version_executions"]
        v["guards"] += typed["entry_guards_evaluated"]
        v["guard_failures"] += typed["guard_failures"]
        v["dispatches"] += int(res["continuation_dispatches"])  # type: ignore[arg-type]
        v["eager"] += sum(res["eager_deopts_by_kind"].values())  # type: ignore[union-attr]
        v["descents"] += len(res["ladder_descents"])  # type: ignore[arg-type]
        v["breaker"] += int(res["continuation_breaker_trips"])  # type: ignore[arg-type]

    def metrics(self) -> Dict[str, float]:
        v = self.values
        return {
            "machine.tracejit.entries_per_trace": _ratio(v["trace_entries"], v["traces"]),
            "machine.lbbv.chained_frac": _ratio(v["chained"], v["versions"]),
            "machine.typed.guard_pass_frac": _ratio(
                v["guards"] - v["guard_failures"], v["guards"]),
            "cont.dispatches": float(v["dispatches"]),
            # share of guard trips re-dispatched rather than bailed out
            "cont.dispatch_frac": _ratio(v["dispatches"], v["dispatches"] + v["eager"]),
            "deopt.eager": float(v["eager"]),
            "ladder.descents": float(v["descents"]),
            "cont.breaker_trips": float(v["breaker"]),
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class Outcome:
    """What one workload run measured; run.py turns it into metrics."""

    #: every duration below is rescaled to nominal host speed by this
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: seconds per set-up repetition
    setup_reps: List[float] = field(default_factory=list)
    #: seconds per round of the timed phase (a round is a fixed unit of work)
    rounds: List[float] = field(default_factory=list)
    #: seconds per guest ``run()`` call, GC included when due
    iter_s: List[float] = field(default_factory=list)
    sim_cycles: float = 0.0
    sim_instructions: int = 0
    check: Checker = field(default_factory=Checker)
    tally: EngineTally = field(default_factory=EngineTally)
    #: per-layer values the workload measures itself (the rung ablation)
    layers: Dict[str, float] = field(default_factory=dict)
    #: span index ranges of the set-up and the timed phase
    setup_spans: Tuple[int, int] = (0, 0)
    timed_spans: Tuple[int, int] = (0, 0)

    @property
    def timed_s(self) -> float:
        return sum(self.rounds)


def _mark(recorder) -> int:
    return recorder.mark() if recorder is not None else 0


def _op(recorder):
    if recorder is None:
        return nullcontext()
    from .spans import OP_SPAN

    return recorder.span(OP_SPAN)


def _iterate(engine: Engine, iteration: int) -> object:
    """One iteration under the runner's protocol."""
    engine.current_iteration = iteration
    value = engine.call_global("run")
    if iteration % GC_PERIOD == GC_PERIOD - 1:
        engine.run_gc()
    return value


def _warm_engine(spec, config: EngineConfig, warmup: int,
                 speed: Optional[HostSpeed] = None) -> Engine:
    engine = Engine(config)
    engine.load(spec.source)
    engine.call_global("setup")
    for iteration in range(warmup):
        if speed is not None:
            speed.sample()
        _iterate(engine, iteration)
    return engine


def _value_problem(spec, value: object, reference: Optional[str]) -> List[str]:
    if spec.expected is not None:
        if spec.validate(value):
            return []
        return [f"result {value!r} != expected {spec.expected!r}"]
    if canonical_value(value) != reference:
        return [f"result {value!r} differs from the interp rung"]
    return []


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------


def steady_order(seed: int) -> List[str]:
    """The order of the programs within a steady round."""
    return random.Random(seed).sample(STEADY_PROGRAMS, len(STEADY_PROGRAMS))


def steady(seed: int, seconds: float, recorder=None) -> Outcome:
    out = Outcome(speed=HostSpeed(recorder))
    speed = out.speed
    ref = refs.load("steady")
    specs = {name: get_benchmark(name) for name in STEADY_PROGRAMS}
    lo = _mark(recorder)
    engines: Dict[str, Engine] = {}
    for rep in range(1 if recorder is not None else STEADY_SETUP_REPS):
        mark = speed.mark()
        engines = {
            name: _warm_engine(spec, EngineConfig(), STEADY_WARMUP, speed)
            for name, spec in specs.items()
        }
        out.setup_reps.append(speed.since(mark))
        for name, engine in engines.items():
            same = refs.sim_digest(engine) == ref["setup"][name]
            out.check.op(f"steady set-up {name} rep {rep}",
                         [] if same else ["set-up digest differs"])
    out.setup_spans = (lo, _mark(recorder))

    lo = _mark(recorder)
    live = steady_order(seed)
    iteration = STEADY_WARMUP
    while live and iteration < STEADY_WARMUP + STEADY_HORIZON:
        # Whole GC periods only: host cost per iteration climbs with the
        # heap between collections (RAY most), so a partial period would
        # skew the median round.  The run length is counted in nominal
        # seconds, so a slow spell does not shorten the phase.
        if (iteration - STEADY_WARMUP) % GC_PERIOD == 0 and out.timed_s >= seconds:
            break
        round_s = 0.0
        for name in list(live):
            engine = engines[name]
            label = f"steady {name} iteration {iteration}"
            c0 = engine.total_cycles
            n0 = engine.executor.stats.instructions
            d0 = len(engine.deopt_events)
            speed.sample()
            try:
                with _op(recorder):
                    t0 = time.perf_counter()
                    value = _iterate(engine, iteration)
                    elapsed = speed.scale(time.perf_counter() - t0)
            except Exception as failure:
                out.check.error(label, failure)
                live.remove(name)
                continue
            round_s += elapsed
            out.iter_s.append(elapsed)
            out.sim_cycles += engine.total_cycles - c0
            out.sim_instructions += engine.executor.stats.instructions - n0
            problems = _value_problem(specs[name], value, ref["values"][name])
            expected = ref["iterations"][name][iteration - STEADY_WARMUP]
            if refs.sim_digest(engine, c0, n0, d0) != expected:
                problems.append("simulated digest differs")
            out.check.op(label, problems)
        out.rounds.append(round_s)
        iteration += 1
    out.timed_spans = (lo, _mark(recorder))
    for engine in engines.values():
        out.tally.add(engine)
    if recorder is not None:
        out.layers.update(rung_ablation(seed, recorder, ref, out.check, speed))
    return out


def rung_ablation(seed: int, recorder, ref, check: Checker,
                  speed: HostSpeed) -> Dict[str, float]:
    """Each executor-ladder rung against the rung below it, on steady's
    programs.  Every rung's engine is warmed with tracing on, which gives
    its compile seconds; the timed iterations then alternate between the
    rungs with tracing off, so each pair of samples (same program, same
    iteration) is taken close together in time and without tracing cost.
    A rung's gain is judged with the paper's test: Wilcoxon signed-rank
    plus the >2 % practical-significance bar."""
    from repro.stats.analysis import compare_populations

    from .spans import COMPILE_SPANS

    ladder = EXECUTOR_LADDER
    times: Dict[str, List[float]] = {tier.name: [] for tier in ladder}
    compile_s = dict.fromkeys(times, 0.0)
    for name in steady_order(seed):
        spec = get_benchmark(name)
        engines: Dict[str, Tuple[Engine, int]] = {}
        for tier in ladder:
            warmup = STEADY_WARMUP if tier.optimizer else 0
            lo = recorder.mark()
            engines[tier.name] = (
                _warm_engine(spec, tier.apply(EngineConfig()), warmup), warmup)
            compile_s[tier.name] += sum(
                own for span, (own, _calls) in recorder.totals(lo).items()
                if span in COMPILE_SPANS
            )
        recorder.enabled = False
        try:
            for k in range(ABLATION_ITERATIONS):
                for tier in ladder:
                    engine, warmup = engines[tier.name]
                    speed.sample()
                    t0 = time.perf_counter()
                    value = _iterate(engine, warmup + k)
                    times[tier.name].append(speed.scale(time.perf_counter() - t0))
                    check.op(f"ablation {tier.name} {name} iteration {k}",
                             _value_problem(spec, value, ref["values"][name]))
        finally:
            recorder.enabled = True
    metrics: Dict[str, float] = {}
    for tier in ladder:
        metrics[f"machine.rung.{tier.name}.wall_s"] = sum(times[tier.name])
        metrics[f"machine.rung.{tier.name}.compile_s"] = compile_s[tier.name]
    for below, tier in zip(ladder, ladder[1:]):
        verdict = compare_populations(
            times[below.name], times[tier.name], test_count=len(ladder) - 1)
        metrics[f"machine.rung.{tier.name}.gain_frac"] = verdict.effect
        metrics[f"machine.rung.{tier.name}.p_value"] = verdict.p_value
        metrics[f"machine.rung.{tier.name}.practical"] = float(
            verdict.practically_significant)
    return metrics


# ---------------------------------------------------------------------------
# coldstart
# ---------------------------------------------------------------------------


def coldstart_ops() -> List[Tuple[str, str]]:
    """(program, ISA) per cold start: ISAs alternate in registry order."""
    return [
        (spec.name, "arm64" if k % 2 == 0 else "x64")
        for k, spec in enumerate(all_benchmarks())
    ]


def coldstart(seed: int, seconds: float, recorder=None) -> Outcome:
    out = Outcome(speed=HostSpeed(recorder))
    speed = out.speed
    for _rep in range(PREP_REPS):
        speed.sample()
        mark = speed.mark()
        ref = refs.load("coldstart")
        ops = coldstart_ops()
        specs = {name: get_benchmark(name) for name, _isa in ops}
        out.setup_reps.append(speed.since(mark))

    lo = _mark(recorder)
    for name, isa in ops:
        spec = specs[name]
        label = f"coldstart {name} on {isa}"
        values = []
        try:
            speed.sample()
            with _op(recorder):
                mark = speed.mark()
                engine = Engine(EngineConfig(target=isa))
                engine.load(spec.source)
                engine.call_global("setup")
                for iteration in range(COLDSTART_ITERATIONS):
                    speed.sample()
                    ti = time.perf_counter()
                    values.append(_iterate(engine, iteration))
                    out.iter_s.append(speed.scale(time.perf_counter() - ti))
                elapsed = speed.since(mark)
        except Exception as failure:
            out.check.error(label, failure)
            continue
        out.rounds.append(elapsed)
        out.sim_cycles += engine.total_cycles
        out.sim_instructions += engine.executor.stats.instructions
        problems: List[str] = []
        for iteration, value in enumerate(values):
            problems += _value_problem(spec, value, ref["values"][name][iteration])
        if refs.sim_digest(engine) != ref["digests"][f"{name}/{isa}"]:
            problems.append("simulated digest differs")
        out.check.op(label, problems)
        out.tally.add(engine)
    out.timed_spans = (lo, _mark(recorder))
    out.rounds = [sum(out.rounds)]
    return out


# ---------------------------------------------------------------------------
# storm
# ---------------------------------------------------------------------------


def storm_programs() -> List[str]:
    from repro.fuzz.corpus import load_corpus

    return list(STORM_SUITE) + [entry.name for entry in load_corpus()]


def storm_ops() -> List[Tuple[str, FaultPlan]]:
    """(program, fault plan) per storm operation, in order."""
    return [
        (name, plan_for(name, plan_seed, STORM_ITERATIONS))
        for name in storm_programs()
        for plan_seed in STORM_PLAN_SEEDS
    ]


class _IterationClock:
    """Fault injector wrapper that times every iteration: from after its
    faults are armed to the start of the next iteration (or the end)."""

    def __init__(self, injector: FaultInjector, speed: HostSpeed) -> None:
        self.injector = injector
        self.plan = injector.plan
        self.speed = speed
        self.iter_s: List[float] = []
        self._started: Optional[float] = None

    def before_iteration(self, engine: Engine, iteration: int) -> None:
        self.stop()
        self.speed.sample()
        self.injector.before_iteration(engine, iteration)
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.iter_s.append(self.speed.scale(time.perf_counter() - self._started))
            self._started = None


def _storm_run(spec, config: EngineConfig, plan, injector=None):
    runner = BenchmarkRunner(spec, config, NoiseModel(enabled=False))
    result = runner.run(
        iterations=STORM_ITERATIONS,
        injector=injector if injector is not None else FaultInjector(plan),
        collect_values=True,
    )
    return result, runner.last_engine


def storm(seed: int, seconds: float, recorder=None) -> Outcome:
    out = Outcome(speed=HostSpeed(recorder))
    speed = out.speed
    for _rep in range(PREP_REPS):
        speed.sample()
        mark = speed.mark()
        ref = refs.load("storm")
        ops = storm_ops()
        specs = {name: resolve_benchmark(name) for name, _plan in ops}
        out.setup_reps.append(speed.since(mark))

    lo = _mark(recorder)
    for name, plan in ops:
        label = f"storm {name} plan {plan.seed}"
        clock = _IterationClock(FaultInjector(plan), speed)
        try:
            with _op(recorder):
                mark = speed.mark()
                result, engine = _storm_run(specs[name], EngineConfig(), plan, clock)
                clock.stop()
                elapsed = speed.since(mark)
        except Exception as failure:
            out.check.error(label, failure)
            continue
        out.rounds.append(elapsed)
        out.iter_s += clock.iter_s
        out.sim_cycles += engine.total_cycles
        out.sim_instructions += engine.executor.stats.instructions
        key = f"{name}/{plan.seed}"
        want = ref[key]
        problems: List[str] = []
        got = [canonical_value(v) for v in result.values]
        if got != want["values"]:
            problems.append("per-iteration values differ from the interp rung")
        if refs.digest(snapshot_globals(engine)) != want["globals"]:
            problems.append("globals differ from the interp rung")
        if refs.sim_digest(engine) != want["sim"]:
            problems.append("simulated digest differs")
        out.check.op(label, problems)
        out.tally.add(engine)
    out.timed_spans = (lo, _mark(recorder))
    out.rounds = [sum(out.rounds)]
    return out


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def figure_text(output) -> str:
    parts = list(output.values()) if isinstance(output, dict) else [output]
    return "\n\n".join(part.to_text() for part in parts)


class _RunClock:
    """Times every guest ``run()`` call made through ``Engine.call_global``
    (the figure drivers own their engines, so the clock sits on the
    method every one of them calls)."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        original = Engine.call_global
        speed = out.speed

        def call_global(engine, name, *args):
            if name != "run":
                return original(engine, name, *args)
            c0 = engine.total_cycles
            n0 = engine.executor.stats.instructions
            speed.sample()
            t0 = time.perf_counter()
            value = original(engine, name, *args)
            out.iter_s.append(speed.scale(time.perf_counter() - t0))
            out.sim_cycles += engine.total_cycles - c0
            out.sim_instructions += engine.executor.stats.instructions - n0
            return value

        self.original = original
        Engine.call_global = call_global  # type: ignore[method-assign]

    def close(self) -> None:
        Engine.call_global = self.original  # type: ignore[method-assign]


def figures(seed: int, seconds: float, recorder=None) -> Outcome:
    out = Outcome(speed=HostSpeed(recorder))
    speed = out.speed
    from repro.exec import configure
    from repro.experiments import EXPERIMENTS

    for _rep in range(PREP_REPS):
        speed.sample()
        mark = speed.mark()
        configure(jobs=1, cache=True, keep_going=False, timeout=None, retries=1)
        ref = refs.load("figures")
        out.setup_reps.append(speed.since(mark))

    lo = _mark(recorder)
    clock = _RunClock(out)
    try:
        for name in FIGURE_DRIVERS:
            label = f"figures {name}"
            speed.sample()
            try:
                with _op(recorder):
                    mark = speed.mark()
                    output = EXPERIMENTS[name](scale="smoke")
                    out.rounds.append(speed.since(mark))
            except Exception as failure:
                out.check.error(label, failure)
                continue
            same = refs.digest(figure_text(output)) == ref[name]
            out.check.op(label, [] if same else ["figure text differs"])
    finally:
        clock.close()
    out.timed_spans = (lo, _mark(recorder))
    out.rounds = [sum(out.rounds)]
    return out


WORKLOADS = {
    "steady": steady,
    "coldstart": coldstart,
    "storm": storm,
    "figures": figures,
}


# ---------------------------------------------------------------------------
# record mode
# ---------------------------------------------------------------------------


def record(workload: str) -> None:
    """Recompute and store the references of one workload."""
    data: Dict[str, object] = {}
    if workload == "steady":
        setup: Dict[str, str] = {}
        iterations: Dict[str, List[str]] = {}
        values: Dict[str, str] = {}
        for name in STEADY_PROGRAMS:
            spec = get_benchmark(name)
            engine = _warm_engine(spec, EngineConfig(), STEADY_WARMUP)
            setup[name] = refs.sim_digest(engine)
            digests = []
            for iteration in range(STEADY_WARMUP, STEADY_WARMUP + STEADY_HORIZON):
                c0 = engine.total_cycles
                n0 = engine.executor.stats.instructions
                d0 = len(engine.deopt_events)
                _iterate(engine, iteration)
                digests.append(refs.sim_digest(engine, c0, n0, d0))
            iterations[name] = digests
            interp = _warm_engine(spec, interp_config(), 0)
            values[name] = canonical_value(_iterate(interp, 0))
        data = {"setup": setup, "iterations": iterations, "values": values}
    elif workload == "coldstart":
        digests: Dict[str, str] = {}
        per_iteration: Dict[str, List[str]] = {}
        for spec in all_benchmarks():
            for isa in ("arm64", "x64"):
                engine = _warm_engine(spec, EngineConfig(target=isa), COLDSTART_ITERATIONS)
                digests[f"{spec.name}/{isa}"] = refs.sim_digest(engine)
            interp = _warm_engine(spec, interp_config(), 0)
            per_iteration[spec.name] = [
                canonical_value(_iterate(interp, i)) for i in range(COLDSTART_ITERATIONS)
            ]
        data = {"digests": digests, "values": per_iteration}
    elif workload == "storm":
        for name in storm_programs():
            spec = resolve_benchmark(name)
            for plan_seed in STORM_PLAN_SEEDS:
                plan = plan_for(name, plan_seed, STORM_ITERATIONS)
                result, engine = _storm_run(spec, interp_config(), plan)
                _opt, opt_engine = _storm_run(spec, EngineConfig(), plan)
                data[f"{name}/{plan_seed}"] = {
                    "values": [canonical_value(v) for v in result.values],
                    "globals": refs.digest(snapshot_globals(engine)),
                    "sim": refs.sim_digest(opt_engine),
                }
    elif workload == "figures":
        from repro.exec import configure
        from repro.experiments import EXPERIMENTS

        configure(jobs=1, cache=True)
        for name in FIGURE_DRIVERS:
            data[name] = refs.digest(figure_text(EXPERIMENTS[name](scale="smoke")))
    else:
        raise KeyError(workload)
    refs.save(workload, data)
