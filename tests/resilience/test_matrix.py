"""N-way tier matrix: ladder composition, agreement, seeded tampering."""

from __future__ import annotations

import pytest

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import DEGRADATION, Tier
from repro.resilience.faults import FaultPlan
from repro.resilience.oracle import (
    EXECUTOR_LADDER,
    LADDER_BY_NAME,
    MatrixOutcome,
    matrix_run,
    snapshot_globals,
)
from repro.suite.spec import get_benchmark


class TestLadder:
    def test_seven_tiers_in_escalation_order(self):
        names = [tier.name for tier in EXECUTOR_LADDER]
        assert names == [
            "interp", "opt", "block", "typed", "lbbv", "trace", "deoptless",
        ]
        assert set(LADDER_BY_NAME) == set(names)
        # One rung per tier, in tier order, then the continuation axis.
        assert [tier.tier for tier in EXECUTOR_LADDER] == list(Tier) + [Tier.TRACE]

    def test_interp_tier_disables_everything(self):
        config = LADDER_BY_NAME["interp"].apply(EngineConfig())
        assert config.tier is Tier.INTERP
        assert config.continuations is False
        assert not LADDER_BY_NAME["interp"].optimizer

    def test_tiers_pin_executors_against_env(self, monkeypatch):
        """Explicit tiers must override ambient REPRO_* defaults."""
        monkeypatch.setenv("REPRO_TIER", "trace")
        monkeypatch.setenv("REPRO_CONTINUATIONS", "1")
        engine = Engine(LADDER_BY_NAME["block"].apply(EngineConfig()))
        assert engine.tier is Tier.BLOCK
        assert engine.continuations is None

    def test_every_degradation_row_is_an_oracle_rung(self):
        """The oracle must run every host state a storm can reach: each
        degradation row's tier cap is the tier of some ladder rung."""
        rung_tiers = {tier.tier for tier in EXECUTOR_LADDER}
        for row in DEGRADATION:
            assert row.tier in rung_tiers, row.name

    def test_deopt_streams_not_compared_at_the_ends(self):
        # interp never deopts; deoptless legitimately diverts eager
        # deopts into continuation dispatches — neither can anchor the
        # deopt-stream comparison.
        assert not LADDER_BY_NAME["interp"].compare_deopts
        assert not LADDER_BY_NAME["deoptless"].compare_deopts
        for name in ("opt", "block", "typed", "trace", "lbbv"):
            assert LADDER_BY_NAME[name].compare_deopts


class TestMatrixRun:
    @pytest.mark.parametrize("name", ["FIB", "JSONLIKE"])
    def test_suite_benchmark_agrees_across_ladder(self, name):
        outcome = matrix_run(get_benchmark(name), iterations=8)
        assert isinstance(outcome, MatrixOutcome)
        assert outcome.ok, outcome.mismatches
        assert set(outcome.tiers) == set(LADDER_BY_NAME)

    def test_tamper_forces_named_tier_mismatch(self):
        def tamper(tier_name, values):
            if tier_name == "typed" and values:
                values[-1] = -1.5
            return values

        outcome = matrix_run(
            get_benchmark("FIB"), iterations=8, capture=False, tamper=tamper
        )
        assert not outcome.ok
        assert any(line.startswith("[typed]") for line in outcome.mismatches)
        assert not outcome.tiers["typed"].ok
        assert outcome.tiers["block"].ok

    def test_fault_plan_threads_through_every_tier(self):
        plan = FaultPlan(benchmark="FIB", seed=3, faults=())
        outcome = matrix_run(
            get_benchmark("FIB"), plan=plan, iterations=6, capture=False
        )
        assert outcome.seed == 3
        assert outcome.ok


class TestSnapshotGlobals:
    def test_sorted_and_canonical(self):
        engine = Engine(EngineConfig(tier=Tier.INTERP))
        engine.load("var zz = 1; var aa = 2.0; function f() { return 0; }")
        snapshot = snapshot_globals(engine)
        assert list(snapshot) == sorted(snapshot)
        assert "aa" in snapshot and "zz" in snapshot

    def test_integral_double_and_int_agree(self):
        first = Engine(EngineConfig(tier=Tier.INTERP))
        first.load("var x = 2;")
        second = Engine(EngineConfig(tier=Tier.INTERP))
        second.load("var x = 2.0;")
        assert snapshot_globals(first) == snapshot_globals(second)
