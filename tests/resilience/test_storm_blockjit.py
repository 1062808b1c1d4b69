"""Degradation-ladder descent × the block-compiled fast tier.

A descending function must not keep any stale tier artifacts alive:
every ladder rung drops ``code._blocks``, ``code._traces`` AND the
cached ``code._typeflow`` analysis the typed variants compile from, and
a function that bottoms out runs interpreter-only from then on with
identical results to a never-compiled engine.

``continuations=False`` throughout: these tests exercise the classic
bailout ladder, not the deoptless dispatch path
(``tests/resilience/test_continuations.py`` covers that).
"""

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import DEGRADATION, Tier

SOURCE = "function f(x) { return x + 1; }"

#: the final degradation rung, and the number of descents to reach it
INTERP_RUNG = len(DEGRADATION) - 1


def warmed_blockjit(calls=40, **config_kwargs):
    config_kwargs.setdefault("continuations", False)
    engine = Engine(EngineConfig(tier=Tier.TRACE, **config_kwargs))
    engine.load(SOURCE)
    for _ in range(calls):
        engine.call_global("f", 1)
    shared = next(fn for fn in engine.functions if fn.name == "f")
    assert shared.code is not None
    return engine, shared


def trip_once(engine, shared):
    """Re-tier if needed, materialize the fused block table, then force a
    deopt.  Returns the code object the deopt landed on (None once the
    function is permanently disabled)."""
    while shared.code is None:
        if shared.optimization_disabled:
            return None
        engine.call_global("f", 1)
    code = shared.code
    engine.call_global("f", 1)  # clean call: compiles the block table
    if DEGRADATION[shared.tier_rung].tier >= Tier.BLOCK:
        assert code._blocks is not None
    engine.executor.forced_deopt_trips += 1
    assert engine.call_global("f", 1) == 2  # semantics survive the deopt
    return code


def drive_to_disable(engine, shared, bound=100):
    last_code = None
    for _ in range(bound):
        if shared.optimization_disabled:
            return last_code
        code = trip_once(engine, shared)
        if code is not None:
            last_code = code
    raise AssertionError(f"ladder never bottomed out in {bound} trips")


def test_final_descent_invalidates_compiled_blocks():
    engine, shared = warmed_blockjit()
    last_code = drive_to_disable(engine, shared)
    assert shared.optimization_disabled
    assert shared.tier_rung == INTERP_RUNG
    assert last_code is not None
    assert last_code._blocks is None  # stale fused closures are dropped
    assert last_code._typeflow is None  # cached type analysis too
    assert shared.code is None  # never re-tiers


def test_ladder_descent_drops_compiled_traces(monkeypatch):
    """Regression (extended from the PR 5 storm x blockjit test): a rung
    descent must drop ``code._blocks``, the promoted trace table in
    ``code._traces`` (whose chains anchor into the dead block table) AND
    the cached ``code._typeflow`` result — and the no-trace rung must
    never re-form traces on recompiled code."""
    monkeypatch.setenv("REPRO_TRACEJIT_BUDGET", "20")
    monkeypatch.setenv("REPRO_TRACEJIT_HOT", "2")
    monkeypatch.setenv("REPRO_TRACEJIT_ENTRY", "2")
    engine, shared = warmed_blockjit()
    last_code = None
    for _ in range(engine.config.storm_strikes):
        while shared.code is None:
            engine.call_global("f", 1)
        last_code = shared.code
        engine.call_global("f", 1)  # clean call: compiles blocks + traces
        assert last_code._blocks is not None
        assert last_code._traces is not None  # trace tier was really live
        engine.executor.forced_deopt_trips += 1
        assert engine.call_global("f", 1) == 2
    assert shared.tier_rung == 1  # first descent: the no-trace rung
    assert last_code._blocks is None
    assert last_code._traces is None  # stale traces are dropped too
    assert last_code._typeflow is None
    # Recompiles on the no-trace rung run fused blocks but never chain
    # traces over them again.
    while shared.code is None:
        engine.call_global("f", 1)
    for _ in range(5):
        engine.call_global("f", 1)
    assert shared.code._blocks is not None
    assert shared.code._traces is None
    for _ in range(10):
        assert engine.call_global("f", 41) == 42


def test_bottomed_out_function_runs_interpreter_only_and_identically():
    engine, shared = warmed_blockjit()
    drive_to_disable(engine, shared)

    reference = Engine(EngineConfig(tier=Tier.INTERP))
    reference.load(SOURCE)
    for argument in range(-5, 50):
        assert engine.call_global("f", argument) == reference.call_global(
            "f", argument
        )
    assert shared.code is None  # stayed interpreter-only throughout


def test_every_rung_descent_drops_block_versions():
    """Each ladder descent must drop ``code._versions`` alongside
    ``_blocks``/``_traces``/``_typeflow``: version bodies and rechained
    edges jump into driver slots of the dead block table, so a stale
    version table on a recompiled code object would dispatch into
    freed closures."""
    engine, shared = warmed_blockjit()
    descents = 0
    for _ in range(200):
        if shared.optimization_disabled:
            break
        rung = shared.tier_rung
        dropped = None
        while shared.tier_rung == rung and not shared.optimization_disabled:
            code = trip_once(engine, shared)
            if code is not None:
                dropped = code
                if code._blocks is not None:
                    # every fused run of code stamped lbbv or above
                    # attaches a version table; code capped below lbbv
                    # never builds one
                    assert (code._versions is not None) == (
                        code._tier >= Tier.LBBV
                    )
        descents += 1
        assert dropped is not None
        assert dropped._versions is None  # dropped on THIS descent
        assert dropped._blocks is None
        assert dropped._traces is None
        assert dropped._typeflow is None
    assert shared.optimization_disabled
    assert shared.tier_rung == INTERP_RUNG
    assert descents == INTERP_RUNG  # one descent per rung, all checked


def test_storm_disabled_lbbv_function_runs_interpreter_identically():
    """A function that bottoms out with the versioning tier armed runs
    interpreter-only from then on, bit-identical to a never-compiled
    engine (mirrors the PR 5 storm x blockjit guarantee)."""
    engine, shared = warmed_blockjit()
    last_code = drive_to_disable(engine, shared)
    assert shared.optimization_disabled
    assert last_code is not None
    assert last_code._versions is None

    reference = Engine(EngineConfig(tier=Tier.INTERP))
    reference.load(SOURCE)
    for argument in range(-5, 50):
        assert engine.call_global("f", argument) == reference.call_global(
            "f", argument
        )
    assert shared.code is None  # stayed interpreter-only throughout


def test_reopt_budget_exhaustion_descends_with_distinct_counters():
    """Budget exhaustion rides the same ladder as storms but keeps its
    own books: ``budget_exhaustions``/``budget_disabled``, never
    ``storms_detected``/``storm_disabled``."""
    engine, shared = warmed_blockjit(storm_strikes=99, max_reoptimizations=2)
    last_code = drive_to_disable(engine, shared)
    assert shared.optimization_disabled
    assert last_code is not None
    assert last_code._blocks is None
    assert last_code._traces is None
    assert last_code._typeflow is None
    stats = engine.resilience_stats()
    assert stats["budget_exhaustions"] == INTERP_RUNG  # one per rung
    assert [name for name, _ in stats["budget_disabled"]] == ["f"]
    assert stats["storms_detected"] == 0
    assert stats["storm_disabled"] == []
    assert all(cause == "budget" for _, _, cause, _ in stats["ladder_descents"])
    for _ in range(20):
        assert engine.call_global("f", 41) == 42
