"""Differential oracle: canonical forms, end-to-end equality, sensitivity."""

import pytest

from repro.machine.ladder import Tier
from repro.resilience import canonical_value, matrix_run
from repro.resilience.oracle import (
    CHAOS_TIERS,
    _chaos_run,
    resolve_benchmark,
    snapshot_globals,
)
from repro.resilience.faults import FaultInjector, FaultPlan, plan_for


def chaos_run(bench, target, iterations):
    """The chaos sweep's cell: the full default stack against the
    interpreter under the canonical seed-0 plan."""
    return matrix_run(
        resolve_benchmark(bench), target,
        plan=plan_for(bench, 0, iterations), iterations=iterations,
        tiers=CHAOS_TIERS,
    )


class TestCanonicalValue:
    def test_int_and_float_of_same_value_agree(self):
        assert canonical_value(6) == canonical_value(6.0)

    def test_minus_zero_is_distinct(self):
        assert canonical_value(0.0) != canonical_value(-0.0)

    def test_bool_is_not_a_number(self):
        assert canonical_value(True) != canonical_value(1)

    def test_containers_recurse(self):
        assert canonical_value([1, 2.0]) == canonical_value([1.0, 2])
        assert canonical_value({"a": 1}) == canonical_value({"a": 1.0})
        assert canonical_value({"a": 1}) != canonical_value({"a": 2})

    def test_strings_and_none(self):
        assert canonical_value("x") != canonical_value("y")
        assert canonical_value(None) != canonical_value(0)


class TestDifferentialRun:
    @pytest.mark.parametrize(
        "bench,target",
        [("FIB", "arm64"), ("NBODY", "x64"), ("SPLAY", "arm64"), ("CRC32", "x64")],
    )
    def test_oracle_holds_under_canonical_plan(self, bench, target):
        outcome = chaos_run(bench, target, iterations=18)
        top = outcome.tiers["deoptless"]
        assert top.error is None
        assert outcome.ok, outcome.mismatches
        assert top.eager_deopts >= 1  # the anchored trips engaged
        assert top.faults_applied

    def test_outcome_carries_resilience_counters(self):
        top = chaos_run("FIB", "arm64", iterations=18).tiers["deoptless"]
        assert "eager_deopts_by_kind" in top.resilience
        # The anchored trips are absorbed deoptlessly: dispatched, not
        # burned against the re-optimization budget.
        assert top.continuation_dispatches >= 1
        assert top.resilience["storm_disabled"] == []


class _CorruptingInjector(FaultInjector):
    """Diverges on the optimized engine only — the oracle must catch it."""

    def before_iteration(self, engine, iteration):
        super().before_iteration(engine, iteration)
        if iteration == 5 and engine.tier > Tier.INTERP:
            from repro.values.tagged import is_smi

            for name in engine.user_global_names():
                word = engine.get_global_word(name)
                if word is not None and is_smi(word):
                    engine.set_global_word(name, engine.heap.to_word(7))
                    return


class TestSensitivity:
    def test_oracle_detects_engine_only_divergence(self, monkeypatch):
        import repro.resilience.oracle as oracle_module

        # PRIMES keeps its sieve LIMIT in an SMI global that run() reads.
        monkeypatch.setattr(oracle_module, "FaultInjector", _CorruptingInjector)
        outcome = chaos_run("PRIMES", "arm64", iterations=12)
        assert not outcome.ok
        assert outcome.mismatches

    def test_snapshot_covers_user_globals(self):
        from repro.engine import EngineConfig
        from repro.suite.spec import get_benchmark

        plan = FaultPlan("NBODY", 0, ())
        _result, engine, _inj = _chaos_run(
            get_benchmark("NBODY"), EngineConfig(), plan, 4
        )
        snapshot = snapshot_globals(engine)
        assert snapshot  # NBODY defines globals
        assert set(snapshot) == set(engine.user_global_names())
