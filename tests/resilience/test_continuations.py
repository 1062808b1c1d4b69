"""Deoptless re-dispatch: continuation table, ladder interplay, breaker.

Covers the dispatch path end to end: a tripped guard re-dispatches into
a specialized continuation (keeping the optimized code installed and the
re-optimization budget untouched), the typeflow lattice pre-seeds the
variant table, a storm on one type-state evicts only that token's
variants, injected re-dispatch loops terminate through the cycle-budget
breaker with interpreter-identical results, and the sentinel refuses —
and poisons — spurious dispatches whose guard fact still holds.
"""

from repro.engine import Engine, EngineConfig
from repro.machine.continuations import (
    CONTINUATION_COMPILE_CYCLES,
    DISPATCH_CYCLES,
    ContinuationTable,
    fact_holds,
)
from repro.machine.ladder import DEGRADATION
from repro.resilience.faults import Fault, FaultKind, FaultPlan
from repro.resilience.oracle import CHAOS_TIERS, matrix_run
from repro.suite.spec import get_benchmark

SOURCE = "function f(x) { return x + 1; }"


def warmed(calls=40, **config_kwargs):
    engine = Engine(EngineConfig(**config_kwargs))
    engine.load(SOURCE)
    for _ in range(calls):
        engine.call_global("f", 1)
    shared = next(f for f in engine.functions if f.name == "f")
    assert shared.code is not None
    return engine, shared


def force_trip(engine, shared):
    while shared.code is None:
        if shared.optimization_disabled:
            return None
        engine.call_global("f", 1)
    engine.executor.forced_deopt_trips += 1
    return engine.call_global("f", 1)


class TestDispatch:
    def test_dispatch_keeps_optimized_code_installed(self):
        engine, shared = warmed()
        code = shared.code
        assert force_trip(engine, shared) == 2
        # Deoptless: the code object survives, no strike, no budget burn,
        # no tier-up counter reset cascade into a recompile.
        assert shared.code is code
        assert shared.reopt_count == 0
        assert shared.rung_strikes == {}
        assert shared.tier_rung == 0
        stats = engine.resilience_stats()
        assert stats["continuation_dispatches"] == 1
        assert stats["continuation_compiles"] == 1  # first miss compiled
        # The deopt itself is still fully accounted: event, trip counter,
        # per-function deopt count (cross-validation depends on these).
        assert shared.deopt_count == 1
        assert engine.deopt_events

    def test_second_dispatch_reuses_the_variant(self):
        engine, shared = warmed()
        force_trip(engine, shared)
        force_trip(engine, shared)
        cont = engine.continuations
        assert cont.dispatches == 2
        assert cont.lazy_compiles == 1  # compiled once, re-entered warm

    def test_dispatch_charges_cheaper_than_classic_bailout(self):
        assert DISPATCH_CYCLES + CONTINUATION_COMPILE_CYCLES < 250
        engine, shared = warmed()
        before = engine.buckets.get("deopt", 0.0)
        force_trip(engine, shared)
        force_trip(engine, shared)
        charged = engine.buckets["deopt"] - before
        assert charged == (2 * DISPATCH_CYCLES + CONTINUATION_COMPILE_CYCLES)

    def test_continuations_off_restores_classic_bailout(self):
        engine, shared = warmed(continuations=False)
        assert engine.continuations is None
        assert force_trip(engine, shared) == 2
        assert shared.code is None  # classic: discard and re-tier later
        assert shared.reopt_count == 1


class TestTable:
    def test_seed_harvests_typeflow_lattice_and_hits_warm(self):
        from repro.analysis.typeflow import analyze_typeflow
        from repro.suite.spec import get_benchmark

        spec = get_benchmark("CRC32")
        engine = Engine(EngineConfig())
        engine.load(spec.source)
        engine.call_global("setup")
        for i in range(12):
            engine.current_iteration = i
            engine.call_global("run")
        shared = next(f for f in engine.functions
                      if f.code is not None
                      and analyze_typeflow(f.code).plans)
        table = ContinuationTable(2000.0)
        table.seed(shared.index, shared.code)
        assert table.seeded  # the lattice named at least one type-state
        index, pc, token = next(iter(sorted(table.seeded)))
        cost = table.dispatch_cost(index, pc, token)
        # A seeded key dispatches warm: no lazy-compile charge.
        assert cost == DISPATCH_CYCLES
        assert table.seeded_hits == 1
        assert table.lazy_compiles == 0

    def test_token_eviction_spares_other_type_states(self):
        table = ContinuationTable(2000.0)
        table.variants[(0, 4, "!smi(r1)")] = 3
        table.variants[(0, 9, "!smi(r1)")] = 1
        table.variants[(0, 4, "!map(r2)")] = 2
        table.variants[(1, 4, "!smi(r1)")] = 5
        assert table.evict_token(0, "!smi(r1)") == 2
        # The storming token is gone at every pc of that function...
        assert (0, 4, "!smi(r1)") not in table.variants
        assert (0, 9, "!smi(r1)") not in table.variants
        # ...but tokens that never tripped, and other functions, survive.
        assert (0, 4, "!map(r2)") in table.variants
        assert (1, 4, "!smi(r1)") in table.variants

    def test_poisoned_lookup_recompiles_on_the_spot(self):
        engine, shared = warmed()
        force_trip(engine, shared)
        cont = engine.continuations
        assert cont.lazy_compiles == 1
        cont.poison_misses = 1  # what the POISON_VARIANT fault arms
        assert force_trip(engine, shared) == 2  # dispatch still succeeds
        assert cont.poisoned_lookups == 1
        assert cont.lazy_compiles == 2  # the lost variant was recompiled
        assert cont.evictions == 1


class TestFactHolds:
    def test_parity_fact(self):
        assert fact_holds(("par", 0, 0), [2], []) is True
        assert fact_holds(("par", 0, 0), [3], []) is False
        assert fact_holds(("par", 0, 1), [3], []) is True

    def test_regeq_fact(self):
        assert fact_holds(("regeq", 1, 7), [0, 7], []) is True
        assert fact_holds(("regeq", 1, 7), [0, 8], []) is False

    def test_map_fact_reads_the_heap(self):
        heap = [0, 0, 0, 0xBEEF]
        # regs[0] is a tagged pointer to address 2; disp 1 -> word 3.
        assert fact_holds(("map", 0, 1, 0xBEEF), [2 << 1], heap) is True
        assert fact_holds(("map", 0, 1, 0xDEAD), [2 << 1], heap) is False

    def test_unreadable_state_is_none_not_a_guess(self):
        assert fact_holds(("par", 5, 0), [1], []) is None  # reg OOB
        assert fact_holds(("map", 0, 99, 1), [0], []) is None  # heap OOB
        assert fact_holds(("wat", 1), [0], []) is None  # unknown tag


class TestLivelockBreaker:
    def test_breaker_terminates_an_unbounded_redispatch_loop(self):
        # A tiny budget plus a forced trip on EVERY optimized entry: only
        # the cycle-budget breaker can end the dispatch streaks, and the
        # ladder must then absorb the storm without ever wedging.
        engine, shared = warmed(redispatch_budget=100.0)
        cont = engine.continuations
        for _ in range(300):
            if shared.optimization_disabled:
                break
            result = force_trip(engine, shared)
            if result is not None:
                assert result == 2
        assert shared.optimization_disabled  # terminated, gracefully
        assert DEGRADATION[shared.tier_rung].name == "interpreter"
        assert cont.breaker_trips >= 1
        assert cont.dispatches >= 1
        for _ in range(10):
            assert engine.call_global("f", 41) == 42

    def test_redispatch_loop_fault_is_interpreter_identical(self):
        # The injected guard re-arms itself after every dispatch; the run
        # must terminate through the breaker with bit-identical results.
        plan = FaultPlan("FIB", 0, (Fault(6, FaultKind.REDISPATCH_LOOP),))
        outcome = matrix_run(get_benchmark("FIB"), "arm64", plan=plan,
                             iterations=14, tiers=CHAOS_TIERS)
        assert outcome.ok, outcome.mismatches
        assert outcome.tiers["deoptless"].error is None
        assert outcome.tiers["deoptless"].continuation_dispatches >= 1

    def test_clean_exit_resets_the_streak(self):
        engine, shared = warmed(redispatch_budget=100.0)
        cont = engine.continuations
        force_trip(engine, shared)
        assert cont.streaks  # streak open after a dispatch
        engine.call_global("f", 1)  # clean optimized exit
        assert not cont.streaks  # budget restored


class TestSentinelAudit:
    def test_spurious_dispatch_is_refused_and_poisoned(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_AUDIT", "dispatch")
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path))
        engine, shared = warmed(audit=True)
        assert force_trip(engine, shared) == 2  # refused, classic path
        sentinel = engine.executor._audit
        assert sentinel is not None
        assert sentinel.cont_audits == 1
        assert sentinel.cont_demotions == 1
        cont = engine.continuations
        assert shared.index in cont.demoted
        assert cont.dispatches == 0  # the dispatch never happened
        assert cont.spurious_dispatches == 1
        assert shared.reopt_count == 1  # the classic ladder saw the deopt
        bundles = list(tmp_path.glob("continuation-divergence-*.json"))
        assert bundles, "no continuation-divergence bundle captured"
        # Poisoned functions never dispatch again — fails closed.
        force_trip(engine, shared)
        assert cont.dispatches == 0
        assert sentinel.cont_audits == 1  # not even audited: refused early

    def test_unaudited_engine_dispatches_normally(self):
        engine, shared = warmed()  # audit off: no sentinel in the loop
        assert engine.executor._audit is None
        force_trip(engine, shared)
        assert engine.continuations.dispatches == 1
