"""Differential oracle: the executor ladder as an N-way tier matrix.

Deoptimization is only correct if it is *invisible*: a run that tiers up,
speculates, takes injected faults, deopts and re-optimizes must produce
exactly the results of an interpreter-only run under the same fault plan.
:func:`matrix_run` runs one program under one plan on any rungs of the
:data:`EXECUTOR_LADDER` — every :class:`~repro.machine.ladder.Tier` from
the pure interpreter up to traces, plus ``deoptless`` (the top tier with
continuation dispatch) — with a per-rung :class:`ChaosOutcome`
breakdown.  The chaos sweep compares just :data:`CHAOS_TIERS`, the
interpreter against the full default stack; the fuzz fleet runs the
whole ladder.  The matrix compares

* every iteration's ``run()`` result,
* a canonical snapshot of all user-defined globals after the run, and
* the eager-deopt event stream across the rungs that share the classic
  bailout discipline — ``opt`` through ``trace`` are bit-identical by
  construction, while ``deoptless`` keeps optimized code installed on
  trips so its stream may legitimately differ

under a **bitwise** notion of equality for numbers: values are compared as
IEEE-754 bit patterns (so ``-0.0 != 0.0`` and NaN payloads must agree),
while the SMI/HeapNumber *representation* split — which legitimately
differs between tiers — is normalized away by converting through double.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine import Engine, EngineConfig
from ..jit.checks import DeoptCategory, category_of
from ..machine.ladder import Tier
from ..suite.runner import BenchmarkRunner, NoiseModel, RunResult
from ..suite.spec import BenchmarkSpec, get_benchmark
from ..values.maps import InstanceType
from ..values.tagged import is_smi, pointer_untag, smi_untag
from .faults import FaultInjector, FaultPlan

#: cap on mismatch details carried back to the caller/CLI
_MAX_MISMATCHES = 5

#: tamper(tier_name, values) -> possibly-corrupted values (seeded faults)
ValueTamper = Callable[[str, List[object]], List[object]]


def canonical_value(value: object) -> str:
    """Canonical text form of a Python-level guest value.

    Numbers collapse to their double bit pattern (bitwise comparison that
    is agnostic to the SMI/boxed split); containers canonicalize
    recursively.
    """
    if value is None:
        return "u"
    if isinstance(value, bool):
        return "b:1" if value else "b:0"
    if isinstance(value, (int, float)):
        return "d:" + struct.pack("<d", float(value)).hex()
    if isinstance(value, str):
        return "s:" + value
    if isinstance(value, list):
        return "[" + ",".join(canonical_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return (
            "{"
            + ",".join(
                f"{k}=" + canonical_value(value[k]) for k in sorted(value)
            )
            + "}"
        )
    return "?:" + repr(value)


def _canonical_word(engine: Engine, word: int, depth: int, seen: frozenset) -> str:
    """Canonicalize a tagged heap word without leaking heap addresses."""
    heap = engine.heap
    if is_smi(word):
        return "d:" + struct.pack("<d", float(smi_untag(word))).hex()
    addr = pointer_untag(word)
    if depth > 6 or addr in seen:
        return "..."
    itype = heap.map_of(addr).instance_type
    if itype == InstanceType.JS_FUNCTION:
        index = engine.shared_index_of_function(word)
        return f"fn:{engine.functions[index].name}"
    if itype == InstanceType.JS_ARRAY:
        seen = seen | {addr}
        return (
            "["
            + ",".join(
                _canonical_word(engine, heap.array_get(word, i), depth + 1, seen)
                for i in range(heap.array_length(word))
            )
            + "]"
        )
    if itype == InstanceType.JS_OBJECT:
        seen = seen | {addr}
        offsets = heap.map_of(addr).property_offsets
        return (
            "{"
            + ",".join(
                f"{name}="
                + _canonical_word(
                    engine, heap.read(addr, offsets[name]), depth + 1, seen
                )
                for name in sorted(offsets)
            )
            + "}"
        )
    return canonical_value(heap.to_python(word))


def snapshot_globals(engine: Engine) -> Dict[str, str]:
    """Canonical form of every user-defined global (post-run heap state).

    Names are visited in sorted order so the snapshot — and any diff or
    serialization derived from it — is byte-stable across processes and
    PYTHONHASHSEED values, not dependent on definition/insertion order.
    """
    out: Dict[str, str] = {}
    for name in sorted(engine.user_global_names()):
        word = engine.get_global_word(name)
        assert word is not None
        out[name] = _canonical_word(engine, word, 0, frozenset())
    return out


@dataclass(frozen=True)
class TierSpec:
    """One rung of the executor ladder as an engine-config transform.

    Pins the tier and the continuations switch explicitly, so a ladder
    run is insensitive to the ambient environment.
    """

    name: str
    tier: Tier
    continuations: bool = False

    @property
    def optimizer(self) -> bool:
        return self.tier > Tier.INTERP

    @property
    def compare_deopts(self) -> bool:
        """Does this rung share the classic bailout discipline?  Not the
        interpreter (which never deopts) and not deoptless dispatch
        (which absorbs trips instead of bailing, legitimately changing
        the eager-deopt stream)."""
        return self.optimizer and not self.continuations

    def apply(self, base: EngineConfig) -> EngineConfig:
        return dataclasses.replace(
            base, tier=self.tier, continuations=self.continuations
        )


#: The full executor ladder, weakest to strongest speculation: one rung
#: per :class:`Tier`, then ``deoptless`` (the top tier with continuation
#: dispatch, the orthogonal axis).
EXECUTOR_LADDER: Tuple[TierSpec, ...] = tuple(
    TierSpec(tier.label, tier) for tier in Tier
) + (TierSpec("deoptless", Tier.TRACE, continuations=True),)

#: name -> TierSpec lookup for CLI --targets parsing
LADDER_BY_NAME: Dict[str, TierSpec] = {tier.name: tier for tier in EXECUTOR_LADDER}

#: the chaos sweep's comparison: the default stack against the interpreter
CHAOS_TIERS: Tuple[TierSpec, ...] = (
    LADDER_BY_NAME["interp"], LADDER_BY_NAME["deoptless"],
)


@dataclass
class ChaosOutcome:
    """One rung's verdict on one benchmark × target × plan."""

    benchmark: str
    target: str
    seed: int
    ok: bool
    eager_deopts: int
    lazy_deopts: int
    storms_detected: int
    max_reopt_count: int
    #: deoptless re-dispatches (repro.machine.continuations) — trips the
    #: engine absorbed without abandoning optimized execution
    continuation_dispatches: int = 0
    faults_applied: List[Tuple[int, str, str]] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None
    resilience: Dict[str, object] = field(default_factory=dict)


def _chaos_run(
    spec: BenchmarkSpec,
    config: EngineConfig,
    plan: FaultPlan,
    iterations: int,
) -> Tuple[RunResult, Engine, FaultInjector]:
    runner = BenchmarkRunner(spec, config, NoiseModel(enabled=False))
    injector = FaultInjector(plan)
    result = runner.run(
        iterations=iterations, injector=injector, collect_values=True
    )
    assert runner.last_engine is not None
    return result, runner.last_engine, injector


def _capture_oracle_bundle(
    benchmark: str,
    target: str,
    plan: "FaultPlan",
    iterations: int,
    tiers: Tuple[TierSpec, ...],
    mismatches: List[str],
) -> None:
    """Crash-forensics record for an oracle failure: the fault plan,
    benchmark/seed and the compared rungs are everything
    ``repro.supervise replay`` needs to re-run the same comparison
    deterministically."""
    from ..supervise.bundles import capture_bundle, serialize_plan

    capture_bundle("oracle-failure", {
        "benchmark": benchmark,
        "target": target,
        "iterations": iterations,
        "seed": plan.seed,
        "fault_plan": serialize_plan(plan),
        "tiers": [tier.name for tier in tiers],
        "mismatches": mismatches,
    })


def resolve_benchmark(name: str) -> BenchmarkSpec:
    """Suite benchmark by name, falling back to the fuzz corpus.

    Lets every chaos entry point (CLI sweep, replay, grid cells) address
    graduated ``FZ-<seed>`` programs exactly like suite members.
    """
    try:
        return get_benchmark(name)
    except KeyError:
        from ..fuzz.corpus import corpus_benchmark

        spec = corpus_benchmark(name)
        if spec is None:
            raise KeyError(name) from None
        return spec


# ---------------------------------------------------------------------------
# N-way tier matrix
# ---------------------------------------------------------------------------


def deopt_stream(engine: Engine) -> List[Tuple[int, str, str, int, int]]:
    """Canonical eager-deopt event stream of a finished run.

    ``(iteration, function, kind, bytecode_pc, check_id)`` per event —
    everything semantically meaningful, nothing timing-dependent (cycle
    counts differ legitimately between executors).
    """
    return [
        (event.iteration, event.function_name, event.kind.name,
         event.bytecode_pc, event.check_id)
        for event in engine.deopt_events
        if category_of(event.kind) != DeoptCategory.SOFT
    ]


@dataclass
class MatrixOutcome:
    """Verdict of one program run through rungs of the executor ladder."""

    benchmark: str
    target: str
    seed: int
    ok: bool
    #: tier name -> per-tier verdict, in ladder order; each tier is
    #: compared against the baseline (first) tier
    tiers: Dict[str, ChaosOutcome]
    #: canonical per-iteration values of the baseline tier
    baseline: str = "interp"

    @property
    def mismatches(self) -> List[str]:
        out: List[str] = []
        for name, outcome in self.tiers.items():
            out.extend(f"[{name}] {m}" for m in outcome.mismatches)
            if outcome.error:
                out.append(f"[{name}] error: {outcome.error}")
        return out


def _compare_streams(
    got: List[Tuple[int, str, str, int, int]],
    want: List[Tuple[int, str, str, int, int]],
    mismatches: List[str],
) -> None:
    if got == want:
        return
    if len(got) != len(want):
        mismatches.append(
            f"deopt stream length {len(got)} != {len(want)}"
        )
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            mismatches.append(f"deopt event {index}: {g!r} != {w!r}")
        if len(mismatches) >= _MAX_MISMATCHES:
            return


def matrix_run(
    spec: BenchmarkSpec,
    target: str = "arm64",
    plan: Optional[FaultPlan] = None,
    iterations: int = 30,
    base_config: Optional[EngineConfig] = None,
    tiers: Tuple[TierSpec, ...] = EXECUTOR_LADDER,
    capture: bool = True,
    tamper: Optional[ValueTamper] = None,
) -> MatrixOutcome:
    """Run ``spec`` through the ``tiers`` rungs (by default the whole
    ladder) and demand equivalence.

    The first tier is the baseline: every other tier must match its
    per-iteration values and post-run globals snapshot bitwise, and all
    ``compare_deopts`` tiers must additionally agree on the eager-deopt
    event stream among themselves.  A failure captures an
    ``oracle-failure`` bundle naming the compared rungs, which replay
    re-runs.  Accepts a :class:`BenchmarkSpec`
    directly so generated (unregistered) programs can be run; pass
    ``capture=False`` when the caller owns bundle capture (the fuzz
    oracle records richer ``fuzz-divergence`` bundles instead).

    ``tamper(tier_name, values) -> values`` corrupts a tier's collected
    per-iteration values *before* comparison — the seeded-fault hook
    (REPRO_CHAOS_FUZZ) that proves the divergence→bundle→replay→minimize
    pipeline stays live end to end.
    """
    from .faults import plan_for

    if plan is None:
        plan = plan_for(spec.name, 0, iterations)
    base = base_config or EngineConfig()
    base = dataclasses.replace(base, target=target)

    outcomes: Dict[str, ChaosOutcome] = {}
    baseline_values: Optional[List[object]] = None
    baseline_globals: Optional[Dict[str, str]] = None
    reference_stream: Optional[List[Tuple[int, str, str, int, int]]] = None

    for tier in tiers:
        config = tier.apply(base)
        try:
            result, engine, injector = _chaos_run(spec, config, plan, iterations)
        except Exception as failure:
            outcomes[tier.name] = ChaosOutcome(
                spec.name, target, plan.seed, ok=False,
                eager_deopts=0, lazy_deopts=0, storms_detected=0,
                max_reopt_count=0,
                error=f"{type(failure).__name__}: {failure}",
            )
            continue

        mismatches: List[str] = []
        assert result.values is not None
        values = result.values
        if tamper is not None:
            values = tamper(tier.name, list(values))
        tier_globals = snapshot_globals(engine)
        if baseline_values is None:
            baseline_values = values
            baseline_globals = tier_globals
        else:
            for index, (got, want) in enumerate(
                zip(values, baseline_values)
            ):
                if canonical_value(got) != canonical_value(want):
                    mismatches.append(
                        f"iteration {index}: {got!r} != baseline {want!r}"
                    )
                    if len(mismatches) >= _MAX_MISMATCHES:
                        break
            assert baseline_globals is not None
            if len(mismatches) < _MAX_MISMATCHES:
                for name in sorted(set(tier_globals) | set(baseline_globals)):
                    if tier_globals.get(name) != baseline_globals.get(name):
                        mismatches.append(
                            f"global {name!r} diverged from baseline"
                        )
                        if len(mismatches) >= _MAX_MISMATCHES:
                            break
        if tier.compare_deopts and len(mismatches) < _MAX_MISMATCHES:
            stream = deopt_stream(engine)
            if reference_stream is None:
                reference_stream = stream
            else:
                _compare_streams(stream, reference_stream, mismatches)

        stats = engine.resilience_stats()
        outcomes[tier.name] = ChaosOutcome(
            spec.name, target, plan.seed,
            ok=not mismatches,
            eager_deopts=len(deopt_stream(engine)),
            lazy_deopts=engine.lazy_deopts,
            storms_detected=engine.storms_detected,
            max_reopt_count=int(stats["max_reopt_count"]),  # type: ignore[arg-type]
            continuation_dispatches=int(
                stats["continuation_dispatches"]  # type: ignore[arg-type]
            ),
            faults_applied=list(injector.applied),
            mismatches=mismatches,
            resilience=stats,
        )

    ok = all(outcome.ok and outcome.error is None for outcome in outcomes.values())
    outcome = MatrixOutcome(
        benchmark=spec.name,
        target=target,
        seed=plan.seed,
        ok=ok,
        tiers=outcomes,
        baseline=tiers[0].name if tiers else "interp",
    )
    if not ok and capture:
        _capture_oracle_bundle(
            spec.name, target, plan, iterations, tiers,
            outcome.mismatches[:_MAX_MISMATCHES],
        )
    return outcome
