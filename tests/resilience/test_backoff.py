"""Deopt storms, the degradation ladder, re-tier backoff, DeoptStateError.

Storm handling changed with the deoptless tier
(:mod:`repro.machine.continuations`): with continuation dispatch enabled
a tripping guard re-dispatches instead of bailing out, so these tests
pin ``continuations=False`` to exercise the classic path — and the
classic path no longer falls off a cliff.  A storm (or an exhausted
re-optimization budget) steps the function down ONE degradation-ladder
rung, dropping that rung's tier artifacts; only the final rung disables
optimization permanently.  The dispatch path itself is covered by
``tests/resilience/test_continuations.py``.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.jit.deopt import DeoptStateError
from repro.machine.ladder import DEGRADATION

#: the final degradation rung, and the number of descents to reach it
INTERP_RUNG = len(DEGRADATION) - 1


def warmed(source, name, warm_args, calls=40, **config_kwargs):
    config_kwargs.setdefault("continuations", False)
    engine = Engine(EngineConfig(**config_kwargs))
    engine.load(source)
    for _ in range(calls):
        engine.call_global(name, *warm_args)
    shared = next(f for f in engine.functions if f.name == name)
    assert shared.code is not None
    return engine, shared


def force_trip(engine, shared, name, *args):
    """Re-tier if needed, then force the next deopt branch to be taken."""
    while shared.code is None:
        if shared.optimization_disabled:
            return None
        engine.call_global(name, *args)
    engine.executor.forced_deopt_trips += 1
    return engine.call_global(name, *args)


def drive_to_disable(engine, shared, name="f", arg=1, bound=200):
    """Force same-kind trips until the ladder bottoms out; returns the
    number of trips it took."""
    trips = 0
    for _ in range(bound):
        if shared.optimization_disabled:
            return trips
        result = force_trip(engine, shared, name, arg)
        if result is not None:
            assert result == arg + 1  # semantics survive every deopt
            trips += 1
    raise AssertionError(f"ladder never bottomed out in {bound} trips")


class TestStormGuard:
    def test_storm_descends_one_rung_not_a_cliff(self):
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,))
        for _ in range(engine.config.storm_strikes):
            result = force_trip(engine, shared, "f", 1)
            assert result == 2
        # One storm = one rung down, NOT permanent disable.
        assert shared.tier_rung == 1
        assert not shared.optimization_disabled
        assert engine.storms_detected == 1
        assert engine.storm_disabled == []
        assert shared.deopts_by_kind  # per-kind strikes recorded
        # The rung's strike counters reset on descent: a fresh storm is
        # needed to descend again.
        assert shared.rung_strikes == {}

    def test_persistent_storm_walks_the_whole_ladder(self):
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,))
        drive_to_disable(engine, shared)
        assert shared.optimization_disabled
        assert shared.tier_rung == INTERP_RUNG
        # Five descents: full -> no-trace -> generic-blocks ->
        # classic-deopt -> stepped -> interpreter.
        assert engine.storms_detected == INTERP_RUNG
        assert len(engine.storm_disabled) == 1
        function_name, _kind_name = engine.storm_disabled[0]
        assert function_name == "f"
        assert [rung for _, _, _, rung in engine.ladder_descents] == [
            "no-trace", "generic-blocks", "classic-deopt", "stepped",
            "interpreter",
        ]
        assert [rung.name for rung in DEGRADATION[1:]] == [
            rung for _, _, _, rung in engine.ladder_descents
        ]

    def test_disabled_function_still_runs_correctly(self):
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,))
        drive_to_disable(engine, shared)
        assert shared.optimization_disabled
        for _ in range(50):
            assert engine.call_global("f", 41) == 42
        assert shared.code is None  # never re-tiers

    def test_storm_counters_in_resilience_stats(self):
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,))
        drive_to_disable(engine, shared)
        stats = engine.resilience_stats()
        assert stats["storms_detected"] == INTERP_RUNG
        assert ("f", engine.storm_disabled[0][1]) in stats["storm_disabled"]
        assert "f" in stats["disabled_functions"]
        assert stats["tier_rungs"]["f"] == "interpreter"
        assert len(stats["ladder_descents"]) == INTERP_RUNG
        # Storms and budget exhaustion are distinct failure accounts.
        assert stats["budget_exhaustions"] == 0
        assert stats["budget_disabled"] == []

    def test_different_kinds_do_not_count_as_one_storm(self):
        # A NOT_A_SMI deopt and forced branch trips are different kinds of
        # strike only if their check kinds differ; reopt_count still
        # accumulates toward the total budget.
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,), storm_strikes=99)
        engine.call_global("f", 1.5)  # NOT_A_SMI
        assert not shared.optimization_disabled
        assert shared.tier_rung == 0
        assert shared.reopt_count == 1


class TestExponentialBackoff:
    def test_retier_threshold_doubles_per_reopt(self):
        engine, shared = warmed(
            "function f(x) { return x + 1; }", "f", (1,),
            storm_strikes=99, max_reoptimizations=99,
        )
        threshold = engine.config.tierup_invocations
        for round_number in (1, 2):
            force_trip(engine, shared, "f", 1)
            assert shared.code is None
            scale = 2 ** round_number
            # One invocation short of the scaled threshold: still bytecode.
            for _ in range(threshold * scale - 1):
                engine.call_global("f", 1)
            assert shared.code is None, f"re-tiered too early at reopt {round_number}"
            engine.call_global("f", 1)
            engine.call_global("f", 1)
            assert shared.code is not None, f"failed to re-tier at reopt {round_number}"

    def test_backoff_cap_bounds_the_scale(self):
        engine, shared = warmed(
            "function f(x) { return x + 1; }", "f", (1,),
            storm_strikes=99, max_reoptimizations=99, backoff_cap=2,
        )
        for _ in range(5):
            force_trip(engine, shared, "f", 1)
        assert shared.reopt_count >= 5
        threshold = engine.config.tierup_invocations
        # Scale is capped at 2**2 even after 5 reopts.
        for _ in range(threshold * 4 + 2):
            engine.call_global("f", 1)
        assert shared.code is not None


class TestDeoptStateError:
    def test_missing_machine_state_raises_typed_error(self):
        engine, shared = warmed("function f(x) { return x + 1; }", "f", (1,))
        code = shared.code
        check_id = next(iter(code.deopt_points))
        from repro.jit.deopt import DeoptSignal

        engine.executor.deopt_state = None
        with pytest.raises(DeoptStateError) as excinfo:
            engine._deoptimize(shared, code, DeoptSignal(check_id))
        error = excinfo.value
        assert error.check_id == check_id
        assert error.function == "f"
        assert error.kind == code.deopt_points[check_id].kind.name
        assert "bytecode pc" in str(error)
