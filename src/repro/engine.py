"""The engine: tiered execution, runtime services, and accounting.

Mirrors V8's architecture (paper Fig. 2): source is parsed and compiled to
bytecode, executed by the interpreter (Ignition role) which collects type
feedback; hot functions are optimized by the speculative compiler (TurboFan
role) into machine code for the configured target ISA; failed checks
deoptimize back to the interpreter; invalidated assumptions trigger lazy
deopts at the next invocation.

"Execution time" everywhere is *simulated cycles* from the machine's cost
model: interpreter handlers, builtins, compilation, GC pauses and JIT code
all advance the same clock, so warm-up curves and steady states (Fig. 6)
emerge from the tiering dynamics rather than being modelled directly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .bytecode.compiler import compile_source
from .bytecode.opcodes import FunctionInfo, Op
from .interpreter import builtins as builtin_impls
from .interpreter.feedback import CallSlot, FeedbackVector
from .interpreter.interpreter import Interpreter
from .interpreter import runtime
from .ir.builder import BailoutCompilation, build_graph
from .ir.passes.pipeline import run_optimization_pipeline
from .jit.checks import CheckKind, DeoptCategory, category_of
from .jit.codegen import CodeObject, generate_code
from .jit.deopt import (
    DeoptEvent,
    DeoptSignal,
    DeoptStateError,
    LazyDeoptEvent,
    materialize_frame,
)
from .lang.errors import JSTypeError
from .machine.continuations import (
    ContinuationTable,
    continuation_token,
    default_continuations,
    dispatch_fact,
    resolve_redispatch_budget,
)
from .machine.executor import CostModel, Executor
from .machine.ladder import DEGRADATION, Tier, default_tier
from .regex.engine import Regex
from .isa.base import TargetISA, resolve_target
from .values.heap import (
    FIXED_ARRAY_ELEMENTS_OFFSET,
    JS_FUNCTION_SHARED_OFFSET,
    Heap,
)
from .values.maps import (
    JS_ARRAY_TYPE,
    JS_FUNCTION_TYPE,
    JS_OBJECT_TYPE,
    PACKED_ELEMENTS,
    PACKED_SMI_ELEMENTS,
    STRING_TYPE,
)
from .values.tagged import TagConfig, is_smi, pointer_untag

_GLOBAL_CELL_CAPACITY = 4096


@dataclass
class EngineConfig:
    """Knobs for one engine instance (one experimental configuration)."""

    target: str = "arm64"
    smi_bits: int = 31
    #: Executor-ladder cap (repro.machine.ladder): ``interp`` never
    #: optimizes, ``opt`` runs optimized code on the step loop, then
    #: fused ``block``s, ``typed`` block variants, ``lbbv`` block
    #: versions and ``trace``s, each tier adding one feature.  Every tier
    #: is bit-identical in results and simulated counters.  A Tier or
    #: its name; None defers to REPRO_TIER (default ``trace``).
    tier: Union[Tier, str, None] = None
    tierup_invocations: int = 8
    tierup_backedges: int = 1500
    #: check kinds short-circuited in the optimizer (paper Section III-B).
    removed_checks: FrozenSet[CheckKind] = frozenset()
    #: emit check conditions but not the deopt branches (Section IV-B).
    emit_check_branches: bool = True
    gc_between_iterations: bool = True
    max_reoptimizations: int = 3
    #: deopt-storm guard (mirrors V8's deopt-loop detection): a function
    #: whose checks of the *same kind* fail this many times has its
    #: speculation permanently disabled, regardless of the total
    #: re-optimization budget above.
    storm_strikes: int = 3
    #: cap on the exponential re-tier backoff (threshold scale is
    #: ``2 ** min(reopt_count, backoff_cap)``).
    backoff_cap: int = 4
    cost_model: Optional[CostModel] = None
    collect_trace: bool = False
    random_seed: int = 0x9E3779B97F4A7C15
    #: Run the IR verifier after every pass and lint the emitted machine
    #: code (repro.analysis).  None defers to the process-wide default
    #: (on in the test suite, or via REPRO_VERIFY=1).
    verify: Optional[bool] = None
    #: Deoptless continuation dispatch (repro.machine.continuations):
    #: a failing check re-dispatches into a variant specialized for the
    #: observed type-state (the guard's fact negated, seeded from the
    #: typeflow lattice) instead of bailing out.  Orthogonal to ``tier``
    #: and ignored at ``interp``.  None defers to REPRO_CONTINUATIONS
    #: (default on).
    continuations: Optional[bool] = None
    #: cycle budget of the re-dispatch breaker: a consecutive-dispatch
    #: streak exceeding this falls back to the classic bailout path
    #: (livelock-freedom).  None means the default of 2000 cycles.
    redispatch_budget: Optional[float] = None
    #: Online divergence sentinel (repro.supervise.sentinel): on a
    #: deterministic schedule, shadow-execute fused blocks against their
    #: stepped twins and demote a diverging code object to the step tier.
    #: None defers to REPRO_AUDIT; True audits at the default interval;
    #: an integer sets the mean interval in fused-block executions.
    audit: object = None

    def resolved_tier(self) -> Tier:
        """``tier``, with None resolved from REPRO_TIER."""
        return default_tier() if self.tier is None else Tier.parse(self.tier)

    def resolved_continuations(self) -> bool:
        """``continuations``, with None resolved from REPRO_CONTINUATIONS."""
        if self.continuations is None:
            return default_continuations()
        return bool(self.continuations)


class SharedFunction:
    """Engine-side function record (V8's SharedFunctionInfo)."""

    __slots__ = (
        "info",
        "feedback",
        "constant_words",
        "index",
        "invocation_count",
        "backedge_count",
        "code",
        "deopt_count",
        "reopt_count",
        "deopts_by_kind",
        "optimization_disabled",
        "tier_rung",
        "rung_strikes",
        "native_impl",
        "name",
        "closure_word",
        "is_constructor_native",
    )

    def __init__(
        self,
        info: Optional[FunctionInfo],
        index: int,
        native_impl: Optional[Callable] = None,
        name: str = "",
    ) -> None:
        self.info = info
        self.feedback = (
            FeedbackVector(info.feedback_slot_count) if info is not None else None
        )
        self.constant_words: List[Optional[int]] = (
            [None] * len(info.constants) if info is not None else []
        )
        self.index = index
        self.invocation_count = 0
        self.backedge_count = 0
        self.code: Optional[CodeObject] = None
        self.deopt_count = 0
        self.reopt_count = 0
        #: eager deopts per check kind (the deopt-storm guard's strike
        #: counters; soft deopts are not strikes)
        self.deopts_by_kind: Dict[CheckKind, int] = {}
        self.optimization_disabled = False
        #: row of the degradation ladder (repro.machine.ladder
        #: .DEGRADATION); each storm or budget exhaustion descends ONE
        #: row, and only the final row sets ``optimization_disabled``.
        self.tier_rung = 0
        #: per-rung strike counters keyed (check kind name, type-state
        #: token); cleared on every descent so each rung re-earns its
        #: strikes — a storm on one type-state cannot carry strikes
        #: against states that never tripped.
        self.rung_strikes: Dict[Tuple[str, str], int] = {}
        self.native_impl = native_impl
        self.name = name or (info.name if info is not None else "<native>")
        self.closure_word: Optional[int] = None
        self.is_constructor_native = False


class _GlobalCells:
    """Array-like view over the heap-allocated global cell array."""

    def __init__(self, heap: Heap, array_word: int) -> None:
        self._heap = heap
        self._base = pointer_untag(array_word) + FIXED_ARRAY_ELEMENTS_OFFSET

    def __getitem__(self, index: int) -> int:
        value = self._heap.words[self._base + index]
        assert isinstance(value, int)
        return value

    def __setitem__(self, index: int, word: int) -> None:
        self._heap.words[self._base + index] = word


class Engine:
    """One JavaScript engine instance."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        if sys.getrecursionlimit() < 100000:
            sys.setrecursionlimit(100000)
        self.heap = Heap(TagConfig(self.config.smi_bits))
        self.target: TargetISA = resolve_target(self.config.target)
        self.executor = Executor(self, self.config.cost_model)
        self.tier = self.config.resolved_tier()
        #: the plain-int tier stamped on code compiled at each
        #: degradation rung: the engine cap, lowered by the rung's cap
        self._rung_tiers = tuple(
            int(min(self.tier, rung.tier)) for rung in DEGRADATION
        )
        # Imported lazily: repro.supervise pulls in repro.exec, which
        # imports this module back (cells -> engine).
        from .supervise.sentinel import (
            DivergenceSentinel,
            resolve_audit_interval,
        )

        audit_interval = resolve_audit_interval(self.config.audit)
        if audit_interval is not None and self.tier >= Tier.BLOCK:
            self.executor._audit = DivergenceSentinel(audit_interval)
        self.continuations: Optional[ContinuationTable] = (
            ContinuationTable(
                resolve_redispatch_budget()
                if self.config.redispatch_budget is None
                else float(self.config.redispatch_budget)
            )
            if self.config.resolved_continuations() and self.tier > Tier.INTERP
            else None
        )
        self.interpreter = Interpreter(self)
        self.functions: List[SharedFunction] = []
        self.random = builtin_impls.DeterministicRandom(self.config.random_seed)
        self.print_output: List[str] = []

        self._global_index: Dict[str, int] = {}
        self._global_array_word = self.heap.alloc_fixed_array(_GLOBAL_CELL_CAPACITY)
        self.global_cells = _GlobalCells(self.heap, self._global_array_word)
        # Interrupt/stack-limit cell polled by compiled code (value stays 0).
        self._interrupt_cell_word = self.heap.alloc_fixed_array(1, fill_word=0)
        # Bump-allocation nursery for the JIT's inline allocation fast path:
        # cell[0] = tagged top pointer, cell[1] = tagged limit pointer.
        self._nursery_cell_word = self.heap.alloc_fixed_array(2, fill_word=0)
        self._refill_nursery()

        self.regex_table: List[Regex] = []
        self._regex_marker = "__rx"

        self.buckets: Dict[str, float] = {
            "interpreter": 0.0,
            "builtin": 0.0,
            "compile": 0.0,
            "gc": 0.0,
            "deopt": 0.0,
        }
        self.deopt_events: List[DeoptEvent] = []
        #: dynamic check-trip profile: (code.serial, check_id) -> eager
        #: deopt count.  The typeflow cross-validator joins this against
        #: the static classifications — a trip of a redundant-classified
        #: check is an analysis soundness bug.
        self.check_trips: Dict[Tuple[int, int], int] = {}
        self.lazy_deopts = 0
        self.lazy_deopt_events: List[LazyDeoptEvent] = []
        #: engine-wide deopt tally per check kind (eager and soft)
        self.deopts_by_kind: Dict[CheckKind, int] = {}
        self.storms_detected = 0
        #: (function name, check kind name) pairs permanently disabled by
        #: a storm-caused descent into the ladder's interpreter rung
        self.storm_disabled: List[tuple] = []
        #: re-optimization-budget exhaustions (one per budget-caused
        #: ladder descent) — surfaced separately from storms so the
        #: chaos sweep can gate on each
        self.budget_exhaustions = 0
        #: (function name, check kind name) pairs permanently disabled by
        #: a budget-caused descent into the interpreter rung
        self.budget_disabled: List[tuple] = []
        #: (function, kind, cause, rung name) per degradation-ladder step
        self.ladder_descents: List[tuple] = []
        self.compilations = 0
        self.current_iteration = -1
        self._code_objects: List[CodeObject] = []
        if self.config.collect_trace:
            self.executor.trace = []

        self._runtime_table = _build_runtime_table()
        self._install_globals()
        #: names installed by the engine itself (Math, RegExp, ...); the
        #: fault injector perturbs only globals defined after this point.
        self._builtin_global_names: FrozenSet[str] = frozenset(self._global_index)

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        return self.executor.cycles

    def charge(self, cycles: float, bucket: str) -> None:
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + cycles
        self.executor.charge_external(cycles)

    def jit_cycles(self) -> float:
        return self.total_cycles - sum(self.buckets.values())

    # ------------------------------------------------------------------
    # Loading and top-level execution
    # ------------------------------------------------------------------

    def load(self, source: str) -> None:
        """Compile and execute top-level code."""
        program = compile_source(source)
        base = len(self.functions)
        for info in program.functions:
            for instr in info.bytecode:
                if instr.op == Op.CREATE_CLOSURE:
                    instr.a += base
            shared = SharedFunction(info, base + info.index)
            self.functions.append(shared)
        main = self.functions[base]
        self.interpreter.run(main, self.heap.undefined, [])

    def call_global(self, name: str, *py_args) -> object:
        """Call a global function with Python values; returns a Python value."""
        cell = self._global_index.get(name)
        if cell is None:
            raise JSTypeError(f"global {name!r} is not defined")
        fn_word = self.global_cells[cell]
        args = [self.heap.to_word(a) for a in py_args]
        result = self.call_value(fn_word, self.heap.undefined, args, None)
        return self.heap.to_python(result)

    def get_global(self, name: str) -> object:
        cell = self._global_index.get(name)
        if cell is None:
            return None
        return self.heap.to_python(self.global_cells[cell])

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def global_cell_index(self, name: str) -> int:
        cell = self._global_index.get(name)
        if cell is None:
            cell = len(self._global_index)
            if cell >= _GLOBAL_CELL_CAPACITY:
                raise JSTypeError("global table overflow")
            self._global_index[name] = cell
            self.global_cells[cell] = self.heap.undefined
        return cell

    def set_global_word(self, name: str, word: int) -> None:
        self.global_cells[self.global_cell_index(name)] = word

    def get_global_word(self, name: str) -> Optional[int]:
        cell = self._global_index.get(name)
        return None if cell is None else self.global_cells[cell]

    def user_global_names(self) -> List[str]:
        """Globals defined by the loaded program, in definition order."""
        return [
            name
            for name in self._global_index
            if name not in self._builtin_global_names
        ]

    def global_array_word(self) -> int:
        return self._global_array_word

    def interrupt_cell_word(self) -> int:
        return self._interrupt_cell_word

    NURSERY_WORDS = 1 << 14

    def nursery_cell_word(self) -> int:
        return self._nursery_cell_word

    def _refill_nursery(self) -> None:
        from .values.tagged import pointer_tag as _ptag

        start = self.heap.reserve_region(self.NURSERY_WORDS)
        base = pointer_untag(self._nursery_cell_word) + FIXED_ARRAY_ELEMENTS_OFFSET
        self.heap.words[base] = _ptag(start)
        self.heap.words[base + 1] = _ptag(start + self.NURSERY_WORDS - 2)

    def nursery_alloc_number_slow(self, value: float) -> int:
        """Slow path of the JIT's inline HeapNumber allocation: refill the
        nursery, then allocate from the fresh region."""
        from .values.tagged import pointer_tag as _ptag, pointer_untag as _puntag

        self._refill_nursery()
        base = pointer_untag(self._nursery_cell_word) + FIXED_ARRAY_ELEMENTS_OFFSET
        top_word = self.heap.words[base]
        assert isinstance(top_word, int)
        addr = _puntag(top_word)
        self.heap.words[base] = _ptag(addr + 2)
        self.heap.set_map(addr, self.heap.number_map)
        self.heap.words[addr + 1] = float(value)
        return _ptag(addr)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def shared_index_of_function(self, word: int) -> int:
        if is_smi(word):
            return -1
        addr = word >> 1
        if self.heap.map_of(addr).instance_type != JS_FUNCTION_TYPE:
            return -1
        index = self.heap.read(addr, JS_FUNCTION_SHARED_OFFSET)
        assert isinstance(index, int)
        return index

    def closure_for(self, shared_index: int) -> int:
        shared = self.functions[shared_index]
        if shared.closure_word is None:
            shared.closure_word = self.heap.alloc_function(shared_index)
        return shared.closure_word

    #: alias used by the graph builder's CompilationContext protocol
    def closure_word_for(self, shared_index: int) -> int:
        return self.closure_for(shared_index)

    def call_value(
        self,
        callee_word: int,
        this_word: int,
        args: Sequence[int],
        call_slot: Optional[CallSlot],
    ) -> int:
        index = self.shared_index_of_function(callee_word)
        if index < 0:
            raise JSTypeError("value is not callable")
        if call_slot is not None:
            call_slot.record_target(index)
        return self.call_shared(index, this_word, args)

    def call_shared(self, index: int, this_word: int, args: Sequence[int]) -> int:
        shared = self.functions[index]
        if shared.native_impl is not None:
            result, cost = shared.native_impl(self, this_word, list(args))
            self.charge(cost, "builtin")
            return result
        shared.invocation_count += 1
        code = shared.code
        if code is not None and code.invalidated:
            # Lazy deopt: assumptions died while the code was not running;
            # it is discarded at the beginning of the next invocation.
            shared.code = None
            code = None
            self.lazy_deopts += 1
            self.lazy_deopt_events.append(
                LazyDeoptEvent(
                    shared.name, self.current_iteration, int(self.total_cycles)
                )
            )
        if code is None:
            self.maybe_tier_up(shared)
            code = shared.code
        if code is not None:
            padded = list(args[: len(shared.info.params)])
            while len(padded) < len(shared.info.params):
                padded.append(self.heap.undefined)
            try:
                result = self.executor.run(code, padded, this_word)
            except DeoptSignal as signal:
                return self._deoptimize(shared, code, signal)
            # A clean machine exit ends any consecutive-dispatch streak:
            # the re-dispatch breaker only counts cycles between clean
            # exits, so productive code never accumulates toward it.
            cont = self.continuations
            if cont is not None and cont.streaks:
                cont.streaks.pop(index, None)
            return result
        return self.interpreter.run(shared, this_word, args)

    def construct(
        self, callee_word: int, args: Sequence[int], call_slot: Optional[CallSlot]
    ) -> int:
        index = self.shared_index_of_function(callee_word)
        if index < 0:
            raise JSTypeError("value is not a constructor")
        shared = self.functions[index]
        if call_slot is not None:
            call_slot.record_target(index)
        if shared.native_impl is not None:
            result, cost = shared.native_impl(self, self.heap.undefined, list(args))
            self.charge(cost, "builtin")
            return result
        this_word = self.heap.alloc_object()
        self.charge(20, "builtin")  # allocation + map setup
        result = self.call_shared(index, this_word, args)
        if not is_smi(result):
            itype = self.heap.map_of(result >> 1).instance_type
            if itype == JS_OBJECT_TYPE or itype == JS_ARRAY_TYPE:
                return result
        return this_word

    # ------------------------------------------------------------------
    # Tiering / deopt
    # ------------------------------------------------------------------

    def maybe_tier_up(self, shared: SharedFunction) -> None:
        if (
            self.tier is Tier.INTERP
            or shared.optimization_disabled
            or shared.code is not None
            or shared.native_impl is not None
        ):
            return
        # Exponential re-tier backoff: every prior deopt doubles the budget a
        # function must re-earn before the optimizer trusts it again, so a
        # function stuck in a deopt/re-opt cycle spends geometrically less of
        # its life being recompiled (V8's deopt-loop damping).
        threshold_scale = 1 << min(shared.reopt_count, self.config.backoff_cap)
        # Per-rung backoff: each degradation-ladder descent doubles the
        # budget again on top of the per-reopt scale, so a function that
        # has already burned through whole tiers re-earns trust slower
        # the further down the ladder it sits (rung 0 is unchanged).
        if shared.tier_rung:
            threshold_scale <<= min(shared.tier_rung, self.config.backoff_cap)
        if (
            shared.invocation_count < self.config.tierup_invocations * threshold_scale
            and shared.backedge_count < self.config.tierup_backedges * threshold_scale
        ):
            return
        self._optimize(shared)

    def _optimize(self, shared: SharedFunction) -> None:
        verify = self.config.verify
        if verify is None:
            from . import analysis

            verify = analysis.default_verify()
        try:
            builder = build_graph(shared, self)
            run_optimization_pipeline(
                builder, self.config.removed_checks, verify=verify
            )
            code = generate_code(
                builder, self.target, self.config.emit_check_branches
            )
        except BailoutCompilation:
            shared.optimization_disabled = True
            return
        if verify:
            from .analysis.mclint import assert_lint_clean

            assert_lint_clean(code)
        shared.code = code
        self.compilations += 1
        # Stamp the tier of the rung the function sits on: every
        # executor gate reads it (a descent discards the code, so the
        # stamp never goes stale on a live object).
        code._tier = self._rung_tiers[shared.tier_rung]
        code.serial = len(self._code_objects)
        self._code_objects.append(code)
        self.charge(code.compile_cycles, "compile")
        for a_map in code.map_dependencies:
            a_map.add_dependent(_invalidator(code))

    def _deoptimize(self, shared: SharedFunction, code: CodeObject, signal: DeoptSignal) -> int:
        # `code` is the object that was executing: with recursion, an outer
        # activation may deopt after an inner one already discarded
        # shared.code, so the signal's metadata must come from the running
        # code object itself.
        point = code.deopt_points[signal.check_id]
        state = getattr(self.executor, "deopt_state", None)
        if state is None:
            raise DeoptStateError(
                signal.check_id,
                point.kind.name,
                shared.name,
                context=f"bytecode pc {point.bytecode_pc}, iteration "
                f"{self.current_iteration}",
            )
        self.executor.deopt_state = None
        regs, fregs, frame = state
        interp_regs, this_word = materialize_frame(
            self.heap, point, shared.info.register_count, regs, fregs, frame
        )
        self.deopt_events.append(
            DeoptEvent(
                shared.name,
                point.kind,
                point.bytecode_pc,
                self.current_iteration,
                int(self.total_cycles),
                signal.check_id,
            )
        )
        trip_key = (getattr(code, "serial", -1), signal.check_id)
        self.check_trips[trip_key] = self.check_trips.get(trip_key, 0) + 1
        shared.deopt_count += 1
        self.deopts_by_kind[point.kind] = self.deopts_by_kind.get(point.kind, 0) + 1
        token = continuation_token(code, signal.check_id)

        # -- deoptless path: dispatch a specialized continuation ---------
        # Instead of abandoning optimized execution, re-dispatch into the
        # variant keyed by the type-state just observed (the failing
        # guard's fact, negated).  The code object stays installed, no
        # strike is recorded and the tier-up counters are not reset —
        # the function keeps its optimized life.  Reached with identical
        # state from all executor tiers, so the decision (and its cycle
        # charges) is tier-invariant by construction.
        cont = self.continuations
        if cont is not None and self._may_dispatch(shared, code, point,
                                                   signal.check_id, regs):
            cost = cont.dispatch_cost(shared.index, point.bytecode_pc, token)
            self.charge(cost, "deopt")
            before = self.total_cycles
            result = self.interpreter.run_from(
                shared, interp_regs, point.bytecode_pc, this_word
            )
            cont.note_dispatch(shared.index, cost + self.total_cycles - before)
            versions = code._versions
            if versions is not None:
                # The trip observed a concrete negated type-state; beyond
                # the continuation, seed a block *version* keyed by it so
                # the machine tier itself re-dispatches into specialized
                # code the next time that state shows up (repro.machine
                # .lbbv.VersionTable.observe_negated — par facts only,
                # the invertible subset of the guard vocabulary).
                versions.observe_negated(signal.check_id)
            if cont.loop_armed > 0:
                # REDISPATCH_LOOP fault: re-arm the flipped guard so the
                # next machine entry trips again — the breaker, not the
                # fault running dry, must terminate the loop.
                cont.loop_armed -= 1
                self.executor.forced_deopt_trips += 1
            return result

        # -- classic bailout: discard the code and strike the ladder -----
        # Re-optimization is allowed with an exponentially raised
        # threshold; a per-(kind, type-state) storm or an exhausted
        # re-optimization budget descends ONE degradation-ladder rung.
        if shared.code is code:
            shared.code = None
        if category_of(point.kind) != DeoptCategory.SOFT:
            strike_key = (point.kind.name, token)
            strikes = shared.rung_strikes.get(strike_key, 0) + 1
            shared.rung_strikes[strike_key] = strikes
            shared.deopts_by_kind[point.kind] = (
                shared.deopts_by_kind.get(point.kind, 0) + 1
            )
            shared.reopt_count += 1
            if strikes >= self.config.storm_strikes:
                # Deopt storm: the same speculation keeps failing in this
                # function.  Step down one rung instead of thrashing
                # through compile/deopt cycles (or giving up wholesale).
                self._descend_ladder(shared, code, point, token, "storm")
            elif shared.reopt_count > self.config.max_reoptimizations:
                self._descend_ladder(shared, code, point, token, "budget")
        shared.invocation_count = 0
        shared.backedge_count = 0
        if cont is not None:
            # The bailout ends any dispatch streak: the next optimized
            # entry starts with a fresh re-dispatch budget.
            cont.reset_streak(shared.index)
        self.charge(250, "deopt")  # stack-frame conversion cost
        return self.interpreter.run_from(
            shared, interp_regs, point.bytecode_pc, this_word
        )

    def _may_dispatch(self, shared: SharedFunction, code: CodeObject,
                      point, check_id: int, regs) -> bool:
        """Decide whether this deopt dispatches to a continuation."""
        cont = self.continuations
        assert cont is not None
        if (
            not DEGRADATION[shared.tier_rung].continuations
            or shared.optimization_disabled
            or shared.index in cont.demoted
        ):
            return False
        if not cont.allow(shared.index):
            # Cycle-budget breaker: the consecutive-dispatch streak spent
            # its budget without a clean machine exit — refuse further
            # dispatch so the classic path (which always terminates)
            # takes over.  This is the livelock-freedom guarantee.
            cont.breaker_trips += 1
            return False
        cont.seed(shared.index, code)
        audit = self.executor._audit
        if audit is not None and audit.audit_dispatch(
            self, shared, code, point, check_id,
            dispatch_fact(code, check_id), regs,
        ):
            # Spurious dispatch (the guard's fact still holds on the
            # observed state): the sentinel poisoned this function's
            # continuations and captured a bundle; fall back to the
            # always-safe classic path.
            return False
        return True

    def _descend_ladder(self, shared: SharedFunction, code: CodeObject,
                        point, token: str, cause: str) -> None:
        """One graceful step down the degradation ladder.

        Drops ALL tier artifacts of the tripping code object (fused
        blocks, traces chained over them, the block-version table riding
        in their driver, and the cached typeflow result the typed
        variants compile from), evicts only the continuations
        of the storming type-state, resets the rung's strike counters
        and the re-optimization budget, and — only on reaching the final
        rung — disables optimization permanently.
        """
        shared.tier_rung = min(shared.tier_rung + 1, len(DEGRADATION) - 1)
        rung = DEGRADATION[shared.tier_rung]
        shared.rung_strikes.clear()
        shared.reopt_count = 0
        code._blocks = None
        code._traces = None
        code._typeflow = None
        # The version table is built over the dropped block table (its
        # driver slots literally hold the version entries), so it falls
        # with it; rungs capped below ``lbbv`` never rebuild it.
        code._versions = None
        cont = self.continuations
        if cont is not None:
            cont.evict_token(shared.index, token)
        if cause == "storm":
            self.storms_detected += 1
        else:
            self.budget_exhaustions += 1
        self.ladder_descents.append(
            (shared.name, point.kind.name, cause, rung.name)
        )
        if rung.tier is Tier.INTERP:
            shared.optimization_disabled = True
            record = (shared.name, point.kind.name)
            if cause == "storm":
                self.storm_disabled.append(record)
            else:
                self.budget_disabled.append(record)
            if cont is not None:
                cont.evict_function(shared.index)

    def typed_check_stats(self) -> Dict[str, int]:
        """Typed/version-tier elision counters (repro.analysis.typeflow
        and repro.machine.lbbv).

        Python-level work the specialized variants avoided — never part
        of the simulated cycle/counter model, which stays bit-identical.
        ``version_chained_entries`` counts guard-free version-to-version
        transfers: body executions that did not come through a
        dispatcher paid **zero** entry tests."""
        elided = self.executor.typed_counters
        tables = self._version_tables()
        return {
            "branch_checks_elided": elided[0],
            "condition_instrs_elided": elided[1],
            "smi_tag_tests_elided": elided[2],
            "entry_guards_evaluated": elided[3],
            "guard_failures": elided[4],
            "version_dispatch_entries": elided[5],
            "version_executions": elided[6],
            "version_chained_entries": elided[6] - elided[5],
            "versions_registered": sum(t.created for t in tables),
            "versions_compiled": sum(t.compiled for t in tables),
            "version_widenings": sum(t.widenings for t in tables),
            "version_negated_seeds": sum(t.negated_seeds for t in tables),
        }

    def _version_tables(self):
        return [
            code._versions
            for code in self._code_objects
            if code._versions is not None
            and code._versions.executor is self.executor
        ]

    def version_stats(self) -> Dict[str, object]:
        """LBBV-tier occupancy and usage detail (repro.machine.lbbv).

        Structured counterpart to the flat integers in
        :meth:`typed_check_stats`: per-block version-table occupancy,
        per-state hit counts and chained edges, and widening events.
        Diagnostic only — versions are bit-identical to the base tier."""
        tables = self._version_tables()
        return {
            "code_objects_versioned": sum(1 for t in tables if t.created),
            "versions_registered": sum(t.created for t in tables),
            "versions_compiled": sum(t.compiled for t in tables),
            "version_widenings": sum(t.widenings for t in tables),
            "widened_blocks": sum(len(t.widened) for t in tables),
            "negated_seeds": sum(t.negated_seeds for t in tables),
            "dispatched_blocks": sum(len(t.dispatched) for t in tables),
            "tables": [
                {
                    "code": getattr(
                        getattr(t.code, "shared", None), "name", None
                    ),
                    "occupancy": t.occupancy(),
                    "widened": dict(t.widened),
                    "states": t.state_report(),
                }
                for t in tables
                if t.created
            ],
        }

    def trace_stats(self) -> Dict[str, int]:
        """Trace-tier formation/execution counters (repro.machine.tracejit).

        Python-level observability only — trace execution is bit-identical
        to the block tier, so nothing here feeds the simulated model."""
        tables = [
            code._traces
            for code in self._code_objects
            if code._traces is not None
            and code._traces.executor is self.executor
        ]
        infos = [t for tt in tables for t in tt.traces.values()]
        return {
            "code_objects_counting": sum(1 for tt in tables if tt.counting),
            "code_objects_promoted": sum(1 for tt in tables if tt.promoted),
            "traces": len(infos),
            "cyclic_traces": sum(1 for t in infos if t.cyclic),
            "call_spanning_traces": sum(1 for t in infos if t.n_calls > 0),
            "auditable_traces": sum(1 for t in infos if t.auditable),
            "trace_blocks": sum(len(t.chain) for t in infos),
            "calls_chained": sum(t.n_calls for t in infos),
            "chain_guards_elided": sum(t.guards_elided for t in infos),
            "trace_entries": sum(tt.trace_entries for tt in tables),
        }

    def resilience_stats(self) -> Dict[str, object]:
        """Deopt/backoff counters surfaced for the chaos CLI and figures."""
        eager: Dict[str, int] = {}
        soft: Dict[str, int] = {}
        for kind, count in self.deopts_by_kind.items():
            bucket = soft if category_of(kind) == DeoptCategory.SOFT else eager
            bucket[kind.name] = count
        cont = self.continuations
        cont_stats = cont.stats() if cont is not None else {}
        return {
            "eager_deopts_by_kind": dict(sorted(eager.items())),
            "soft_deopts_by_kind": dict(sorted(soft.items())),
            "lazy_deopts": self.lazy_deopts,
            "storms_detected": self.storms_detected,
            "storm_disabled": list(self.storm_disabled),
            "budget_exhaustions": self.budget_exhaustions,
            "budget_disabled": list(self.budget_disabled),
            "ladder_descents": list(self.ladder_descents),
            "tier_rungs": {
                f.name: DEGRADATION[f.tier_rung].name
                for f in self.functions
                if f.tier_rung > 0
            },
            "continuation_dispatches": cont_stats.get("dispatches", 0),
            "continuation_compiles": cont_stats.get("lazy_compiles", 0),
            "continuation_seeded_hits": cont_stats.get("seeded_hits", 0),
            "continuation_breaker_trips": cont_stats.get("breaker_trips", 0),
            "continuation_evictions": cont_stats.get("evictions", 0),
            "continuation_stats": cont_stats,
            "max_reopt_count": max(
                (f.reopt_count for f in self.functions), default=0
            ),
            "disabled_functions": [
                f.name
                for f in self.functions
                if f.optimization_disabled and f.info is not None
            ],
        }

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def run_gc(self) -> int:
        roots: List[int] = [
            self._global_array_word,
            self._interrupt_cell_word,
            self._nursery_cell_word,
        ]
        for shared in self.functions:
            if shared.closure_word is not None:
                roots.append(shared.closure_word)
            for word in shared.constant_words:
                if word is not None:
                    roots.append(word)
            if shared.code is not None:
                roots.extend(shared.code.embedded_words)
        freed = self.heap.collect(roots)
        self.charge(0.05 * self.heap.gc_stats.last_marked + 50, "gc")
        return freed

    # ------------------------------------------------------------------
    # Regex support
    # ------------------------------------------------------------------

    def make_regex(self, pattern: str, flags: str = "") -> int:
        regex = Regex(pattern, flags)
        regex_id = len(self.regex_table)
        self.regex_table.append(regex)
        word = self.heap.alloc_object()
        self.heap.object_set_property(word, self._regex_marker, self.heap.to_word(regex_id))
        self.heap.object_set_property(word, "source", self.heap.alloc_string(pattern))
        self.heap.object_set_property(
            word, "global", self.heap.true_value if regex.is_global else self.heap.false_value
        )
        return word

    def regex_from_word(self, word: int) -> Optional[Regex]:
        if is_smi(word):
            return None
        if self.heap.map_of(word >> 1).instance_type != JS_OBJECT_TYPE:
            return None
        marker = self.heap.object_get_property(word, self._regex_marker)
        if marker is None or not is_smi(marker):
            return None
        return self.regex_table[marker >> 1]

    # ------------------------------------------------------------------
    # Primitive methods & the JIT runtime interface
    # ------------------------------------------------------------------

    def call_primitive_method(
        self, receiver: int, name: str, args: List[int], call_slot
    ) -> int:
        heap = self.heap
        if not is_smi(receiver):
            itype = heap.map_of(receiver >> 1).instance_type
            if itype == STRING_TYPE:
                result, cost = builtin_impls.string_method(self, receiver, name, args)
                self.charge(cost, "builtin")
                return result
            if itype == JS_ARRAY_TYPE:
                result, cost = builtin_impls.array_method(self, receiver, name, args)
                self.charge(cost, "builtin")
                return result
            if itype == JS_OBJECT_TYPE:
                regex = self.regex_from_word(receiver)
                if regex is not None:
                    return self._regex_method(regex, name, args)
        raise JSTypeError(f"cannot call method {name!r}")

    def _regex_method(self, regex: Regex, name: str, args: List[int]) -> int:
        heap = self.heap
        text = runtime.js_to_string(heap, args[0]) if args else ""
        regex.steps = 0
        if name == "test":
            outcome = regex.test(text)
            self.charge(15 + 2 * regex.steps, "builtin")
            return heap.true_value if outcome else heap.false_value
        if name == "exec":
            match = regex.exec(text)
            cost = 20 + 2 * regex.steps
            if match is None:
                self.charge(cost, "builtin")
                return heap.null
            result = heap.alloc_array(PACKED_ELEMENTS, 1 + match.group_count)
            heap.array_set(result, 0, heap.alloc_string(match.matched))
            for g in range(1, match.group_count + 1):
                group = match.group(g)
                heap.array_set(
                    result,
                    g,
                    heap.alloc_string(group) if group is not None else heap.undefined,
                )
            self.charge(cost + 3 * (1 + match.group_count), "builtin")
            return result
        raise JSTypeError(f"unknown regex method {name!r}")

    def call_runtime(
        self, name: str, extra, args: List[int], fregs: List[float]
    ) -> object:
        """Runtime calls made by JIT-compiled code (CALL_RT)."""
        handler = self._runtime_table.get(name)
        if handler is not None:
            return handler(self, extra, args, fregs)
        if name.startswith("method:"):
            _prefix, kind, method = name.split(":", 2)
            receiver = args[0]
            rest = args[1:]
            if kind == "regex":
                regex = self.regex_from_word(receiver)
                if regex is None:
                    raise JSTypeError("regex receiver expected")
                return self._regex_method(regex, method, rest)
            return self.call_primitive_method(receiver, method, rest, None)
        raise JSTypeError(f"unknown runtime call {name!r}")

    # ------------------------------------------------------------------
    # Builtin installation
    # ------------------------------------------------------------------

    def _register_native(self, name: str, impl) -> int:
        shared = SharedFunction(None, len(self.functions), native_impl=impl, name=name)
        self.functions.append(shared)
        return self.closure_for(shared.index)

    def _install_globals(self) -> None:
        heap = self.heap
        math_obj = heap.alloc_object(capacity=48)
        for name, impl in builtin_impls.MATH_BUILTINS.items():
            heap.object_set_property(
                math_obj, name, self._register_native(f"Math.{name}", impl)
            )
        for name, value in builtin_impls.MATH_CONSTANTS.items():
            heap.object_set_property(math_obj, name, heap.alloc_number(value))
        self.set_global_word("Math", math_obj)

        string_obj = heap.alloc_object()
        heap.object_set_property(
            string_obj,
            "fromCharCode",
            self._register_native(
                "String.fromCharCode", builtin_impls._string_from_char_code
            ),
        )
        self.set_global_word("String", string_obj)

        def _regexp_ctor(engine, _this, ctor_args):
            pattern = (
                runtime.js_to_string(engine.heap, ctor_args[0]) if ctor_args else ""
            )
            flags = (
                runtime.js_to_string(engine.heap, ctor_args[1])
                if len(ctor_args) > 1
                else ""
            )
            return engine.make_regex(pattern, flags), 40

        self.set_global_word("RegExp", self._register_native("RegExp", _regexp_ctor))

        def _array_ctor(engine, _this, ctor_args):
            length = (
                int(runtime.js_to_number(engine.heap, ctor_args[0]))
                if ctor_args
                else 0
            )
            return (
                engine.heap.alloc_array(PACKED_SMI_ELEMENTS, length),
                15 + length // 4,
            )

        self.set_global_word("Array", self._register_native("Array", _array_ctor))

        for name, impl in builtin_impls.GLOBAL_BUILTINS.items():
            self.set_global_word(name, self._register_native(name, impl))


def _invalidator(code: CodeObject):
    def _on_destabilized(_map) -> None:
        code.invalidated = True

    return _on_destabilized


# ---------------------------------------------------------------------------
# JIT runtime table
# ---------------------------------------------------------------------------


def _rt_generic_binary(fn, cost: float):
    def handler(engine: Engine, _extra, args, _fregs):
        result, _fb = fn(engine.heap, args[0], args[1])
        engine.charge(cost, "builtin")
        return result

    return handler


def _rt_generic_bitwise(op_name: str, cost: float):
    def handler(engine: Engine, _extra, args, _fregs):
        result, _fb = runtime.js_bitwise(engine.heap, op_name, args[0], args[1])
        engine.charge(cost, "builtin")
        return result

    return handler


def _rt_generic_compare(cond: str):
    def handler(engine: Engine, _extra, args, _fregs):
        outcome, _fb = runtime.js_compare(engine.heap, cond, args[0], args[1])
        engine.charge(24, "builtin")
        return 1 if outcome else 0

    return handler


def _build_runtime_table() -> Dict[str, Callable]:
    import math as _math

    table: Dict[str, Callable] = {}
    table["generic_add"] = _rt_generic_binary(runtime.js_add, 28)
    table["generic_sub"] = _rt_generic_binary(runtime.js_subtract, 26)
    table["generic_mul"] = _rt_generic_binary(runtime.js_multiply, 26)
    table["generic_div"] = _rt_generic_binary(runtime.js_divide, 30)
    table["generic_mod"] = _rt_generic_binary(runtime.js_modulo, 30)
    for op_name in ("or", "and", "xor", "shl", "sar", "shr"):
        table[f"generic_{op_name}"] = _rt_generic_bitwise(op_name, 26)
    for cond in ("lt", "le", "gt", "ge"):
        table[f"generic_cmp_{cond}"] = _rt_generic_compare(cond)

    def rt_float64_mod(engine: Engine, _extra, _args, fregs):
        a, b = fregs[0], fregs[1]
        if b == 0.0 or _math.isnan(a) or _math.isnan(b) or _math.isinf(a):
            result = float("nan")
        elif _math.isinf(b):
            result = a
        else:
            result = _math.fmod(a, b)
        engine.charge(18, "builtin")
        return result

    table["float64_mod"] = rt_float64_mod

    def rt_alloc_number(engine: Engine, _extra, _args, fregs):
        engine.charge(10, "builtin")
        return engine.heap.alloc_number(fregs[0])

    table["alloc_number"] = rt_alloc_number

    def rt_to_boolean(engine: Engine, _extra, args, _fregs):
        engine.charge(8, "builtin")
        return 1 if runtime.js_truthy(engine.heap, args[0]) else 0

    table["to_boolean"] = rt_to_boolean

    def rt_strict_equals(engine: Engine, _extra, args, _fregs):
        outcome, _fb = runtime.js_strict_equals(engine.heap, args[0], args[1])
        engine.charge(14, "builtin")
        return 1 if outcome else 0

    table["strict_equals"] = rt_strict_equals

    def rt_loose_equals(engine: Engine, _extra, args, _fregs):
        outcome, _fb = runtime.js_loose_equals(engine.heap, args[0], args[1])
        engine.charge(18, "builtin")
        return 1 if outcome else 0

    table["loose_equals"] = rt_loose_equals

    def rt_typeof(engine: Engine, _extra, args, _fregs):
        engine.charge(10, "builtin")
        return engine.heap.alloc_string(
            runtime.js_typeof(engine.heap, args[0]), intern=True
        )

    table["typeof"] = rt_typeof

    def rt_to_number(engine: Engine, _extra, args, _fregs):
        engine.charge(16, "builtin")
        return engine.heap.number_from_float(
            runtime.js_to_number(engine.heap, args[0])
        )

    table["to_number"] = rt_to_number

    def rt_get_property_generic(engine: Engine, extra, args, _fregs):
        engine.charge(30, "builtin")
        return runtime.js_get_property(engine.heap, args[0], str(extra))

    table["get_property_generic"] = rt_get_property_generic

    def rt_set_property_generic(engine: Engine, extra, args, _fregs):
        engine.charge(34, "builtin")
        runtime.js_set_property(engine.heap, args[0], str(extra), args[1])
        return engine.heap.undefined

    table["set_property_generic"] = rt_set_property_generic

    def rt_get_element_generic(engine: Engine, _extra, args, _fregs):
        engine.charge(30, "builtin")
        return _generic_get_element(engine, args[0], args[1])

    table["get_element_generic"] = rt_get_element_generic

    def rt_set_element_generic(engine: Engine, _extra, args, _fregs):
        engine.charge(34, "builtin")
        _generic_set_element(engine, args[0], args[1], args[2])
        return engine.heap.undefined

    table["set_element_generic"] = rt_set_element_generic

    def rt_call_method_generic(engine: Engine, extra, args, _fregs):
        engine.charge(26, "builtin")
        receiver = args[0]
        name = str(extra)
        heap = engine.heap
        if not is_smi(receiver):
            itype = heap.map_of(receiver >> 1).instance_type
            if itype == JS_OBJECT_TYPE and engine.regex_from_word(receiver) is None:
                method = heap.object_get_property(receiver, name)
                if method is not None and method != heap.undefined:
                    return engine.call_value(method, receiver, args[1:], None)
        return engine.call_primitive_method(receiver, name, args[1:], None)

    table["call_method_generic"] = rt_call_method_generic

    def rt_create_array(engine: Engine, _extra, args, _fregs):
        heap = engine.heap
        kind = PACKED_SMI_ELEMENTS
        for word in args:
            kind = max(kind, heap._kind_of_value(word))
        array = heap.alloc_array(kind, len(args))
        for index, word in enumerate(args):
            heap.array_set(array, index, word)
        engine.charge(18 + 3 * len(args), "builtin")
        return array

    table["create_array"] = rt_create_array

    def rt_create_object(engine: Engine, extra, args, _fregs):
        heap = engine.heap
        obj = heap.alloc_object()
        keys = list(extra or [])
        for key, word in zip(keys, args):
            heap.object_set_property(obj, key, word)
        engine.charge(22 + 4 * len(keys), "builtin")
        return obj

    table["create_object"] = rt_create_object

    def rt_construct(engine: Engine, _extra, args, _fregs):
        engine.charge(20, "builtin")
        return engine.construct(args[0], args[1:], None)

    table["construct"] = rt_construct

    def rt_never(engine: Engine, _extra, _args, _fregs):  # pragma: no cover
        raise AssertionError("never-taken out-of-line stub executed")

    table["interrupt"] = rt_never
    table["write_barrier"] = rt_never

    def rt_alloc_number_slow(engine: Engine, _extra, _args, fregs):
        engine.charge(45, "builtin")
        return engine.nursery_alloc_number_slow(fregs[0])

    table["alloc_number_slow"] = rt_alloc_number_slow

    return table


def _generic_get_element(engine: Engine, receiver: int, key: int) -> int:
    heap = engine.heap
    if is_smi(key):
        index = key >> 1
    elif runtime.is_string(heap, key):
        return runtime.js_get_property(heap, receiver, heap.string_value(key))
    else:
        index = runtime.element_index(heap, key)
    if is_smi(receiver):
        raise JSTypeError("cannot index a number")
    itype = heap.map_of(receiver >> 1).instance_type
    if itype == JS_ARRAY_TYPE:
        if 0 <= index < heap.array_length(receiver):
            return heap.array_get(receiver, index)
        return heap.undefined
    if itype == STRING_TYPE:
        text = heap.string_value(receiver)
        if 0 <= index < len(text):
            return heap.alloc_string(text[index])
        return heap.undefined
    raise JSTypeError("value is not indexable")


def _generic_set_element(engine: Engine, receiver: int, key: int, value: int) -> None:
    heap = engine.heap
    if is_smi(key):
        index = key >> 1
    elif runtime.is_string(heap, key):
        runtime.js_set_property(heap, receiver, heap.string_value(key), value)
        return
    else:
        index = runtime.element_index(heap, key)
    if is_smi(receiver) or heap.map_of(receiver >> 1).instance_type != JS_ARRAY_TYPE:
        raise JSTypeError("value is not indexable")
    length = heap.array_length(receiver)
    if index == length:
        heap.array_push(receiver, value)
    elif 0 <= index < length:
        heap.array_set(receiver, index, value)
    else:
        raise JSTypeError(f"sparse store at {index}")
