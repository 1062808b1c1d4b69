"""Lazy basic block versioning (repro.machine.lbbv): bit-identical
results, net-elision superiority over the static typed tier, guard-free
version chaining, widening termination, mclint's version-entry-guard
invariant, and ladder/sentinel teardown."""

from __future__ import annotations

import pytest

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier
from repro.machine.lbbv import MAX_VERSIONS
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import get_benchmark

SMOKE = ("AES2", "FIB", "JSONLIKE", "SPMV-CSR-INT")
#: benchmarks whose merge-lost edges rechain into version chains
CHAINY = ("SPLAY", "AES2")


def run_fingerprint(name, target, tier, iterations=12):
    spec = get_benchmark(name)
    config = EngineConfig(target=target, tier=tier)
    runner = BenchmarkRunner(spec, config)
    r = runner.run(iterations=iterations)
    fingerprint = {
        "result": r.result,
        "cycles": r.total_cycles,
        "deopts": r.deopts,
        "hw": r.hw_stats,
        "valid": r.valid,
    }
    return fingerprint, runner.last_engine


def net_elisions(engine) -> int:
    """Checks elided minus entry tests paid — the dynamic-vs-static
    scoreboard (dispatcher guard tests land in the same counter the
    static tier's hoisted guards do, so the comparison is honest)."""
    stats = engine.typed_check_stats()
    return (stats["branch_checks_elided"]
            + stats["condition_instrs_elided"]
            + stats["smi_tag_tests_elided"]
            - stats["entry_guards_evaluated"])


def live_table(engine):
    tables = [t for t in engine._version_tables() if t.created]
    assert tables, "no live version table (lbbv inactive?)"
    return max(tables, key=lambda t: t.created)


@pytest.mark.parametrize("target", ("arm64", "x64"))
@pytest.mark.parametrize("name", SMOKE)
def test_version_identity(name, target):
    """Version bodies, dispatchers and rechained edges must be
    observationally invisible: every simulated statistic matches the
    static typed tier; only the Python-level counters move."""
    off, _ = run_fingerprint(name, target, Tier.TYPED)
    on, engine = run_fingerprint(name, target, Tier.LBBV)
    assert on == off
    stats = engine.typed_check_stats()
    assert stats["versions_registered"] > 0
    assert stats["version_executions"] >= stats["version_dispatch_entries"]


def test_version_vs_step_loop_identity():
    step, _ = run_fingerprint("FIB", "arm64", Tier.OPT)
    versioned, _ = run_fingerprint("FIB", "arm64", Tier.LBBV)
    assert versioned == step


@pytest.mark.parametrize("name", CHAINY)
def test_versions_beat_static_tier_net_elision(name):
    """The tentpole's bar: the dynamic tier must elide strictly more
    checks net of its own entry tests than the static typed tier, and
    some of its entries must be guard-free chained transfers."""
    _, static_engine = run_fingerprint(name, "arm64", Tier.TYPED)
    _, version_engine = run_fingerprint(name, "arm64", Tier.LBBV)
    assert net_elisions(version_engine) > net_elisions(static_engine)
    stats = version_engine.typed_check_stats()
    assert stats["version_chained_entries"] > 0


def test_chained_entries_pay_zero_guards():
    """Chained entries are exactly the body executions that bypassed a
    dispatcher — each one entered a specialized body without a single
    entry test."""
    _, engine = run_fingerprint("SPLAY", "arm64", Tier.LBBV)
    stats = engine.typed_check_stats()
    assert stats["version_chained_entries"] == (
        stats["version_executions"] - stats["version_dispatch_entries"]
    )
    assert stats["version_chained_entries"] > 0


def test_version_cap_and_widening_terminate():
    """Synthetic state pressure: registration is capped per block, the
    overflow widens to the best registered subset (or the base block),
    and widening events are counted — specialization terminates."""
    _, engine = run_fingerprint("AES2", "arm64", Tier.LBBV)
    table = live_table(engine)
    bid = next(b for b, entry in sorted(table.ctx.static_entry.items()))
    for n in range(MAX_VERSIONS + 3):
        table.request(bid, frozenset(
            (("par", 40 + n, 0), ("par", 60 + n, 1))
        ))
    assert len(table.versions[bid]) <= MAX_VERSIONS
    assert table.widenings > 0
    assert table.widened.get(bid, 0) > 0
    # A widened request whose state covers a registered key reuses that
    # version instead of falling all the way back to the base block.
    keyed = table.versions[bid][0]
    wide = frozenset(keyed.key) | frozenset((("par", 99, 0),))
    assert table.request(bid, wide) == keyed.index
    for versions in table.versions.values():
        assert len(versions) <= MAX_VERSIONS


def test_mclint_flags_unjustified_chain():
    """Corrupting a chained edge so the target's key facts are no longer
    established by the source state must fail the version-entry-guard
    invariant loudly."""
    from repro.analysis.mclint import (
        assert_version_chains_clean,
        check_version_chains,
    )
    from repro.analysis.verifier import VerificationError

    _, engine = run_fingerprint("SPLAY", "arm64", Tier.LBBV)
    tables = [t for t in engine._version_tables() if t.created]
    assert tables
    for table in tables:  # the real tables must verify clean
        assert check_version_chains(table) == []
    table = live_table(engine)
    victim = next(
        v for vs in table.versions.values() for v in vs
        if v.compiled is not None
    )
    bogus = next(
        v for vs in table.versions.values() for v in vs
        if v.key and not table.ctx.establishes(
            table._entry_state(victim.bid, victim.key), v.key
        )
    )
    victim.chained_out.append((bogus.bid, bogus.index))
    diagnostics = check_version_chains(table)
    assert any(d.invariant == "version-entry-guard" for d in diagnostics)
    with pytest.raises(VerificationError):
        assert_version_chains_clean(table)


def test_ladder_descent_drops_version_table():
    """A rung descent tears the version table down with the block
    table (tests/resilience/test_storm_blockjit.py drives the full
    ladder; this covers the engine hook directly)."""
    engine = Engine(EngineConfig(tier=Tier.LBBV, continuations=False))
    engine.load("function f(x) { return x + 1; }")
    for _ in range(40):
        engine.call_global("f", 1)
    shared = next(fn for fn in engine.functions if fn.name == "f")
    assert shared.code._versions is not None
    last_code = None
    for _ in range(200):
        if shared.tier_rung > 0 or shared.optimization_disabled:
            break
        while shared.code is None:  # re-tier after each discarding deopt
            engine.call_global("f", 1)
        last_code = shared.code
        engine.call_global("f", 1)  # clean call: block table + versions
        engine.executor.forced_deopt_trips += 1
        assert engine.call_global("f", 1) == 2
    assert shared.tier_rung > 0 or shared.optimization_disabled
    assert last_code is not None
    assert last_code._versions is None
    assert last_code._blocks is None


def test_lbbv_config_switch(monkeypatch):
    from repro.machine.lbbv import default_lbbv

    monkeypatch.setenv("REPRO_TIER", "typed")
    assert not default_lbbv()
    assert Engine(EngineConfig()).tier is Tier.TYPED
    monkeypatch.setenv("REPRO_TIER", "lbbv")
    assert default_lbbv()
    assert Engine(EngineConfig()).tier is Tier.LBBV
    # An explicit tier beats the environment, by enum or by name.
    assert Engine(EngineConfig(tier=Tier.TYPED)).tier is Tier.TYPED
    assert Engine(EngineConfig(tier="trace")).tier is Tier.TRACE
    # Versioning rides the typed tier's plans: code stamped below lbbv
    # never builds a version table.
    for tier in (Tier.OPT, Tier.BLOCK, Tier.TYPED):
        _, engine = run_fingerprint("FIB", "arm64", tier)
        assert all(code._versions is None for code in engine._code_objects)
        assert engine.typed_check_stats()["versions_registered"] == 0


def test_version_stats_report():
    _, engine = run_fingerprint("AES2", "arm64", Tier.LBBV)
    stats = engine.version_stats()
    assert stats["versions_registered"] > 0
    assert stats["tables"]
    for table in stats["tables"]:
        assert all(0 < n <= MAX_VERSIONS
                   for n in table["occupancy"].values())
        for row in table["states"]:
            assert set(row) >= {"block", "index", "state", "hits",
                                "compiled", "negated", "chained_out"}


def test_sentinel_version_divergence_demotes_table(monkeypatch):
    """A corrupted version audit must demote the version table along
    with its block table and disable further versioning (the CLI/CI
    driver is `python -m repro.supervise inject AES2 --version`)."""
    monkeypatch.setenv("REPRO_AUDIT", "25")
    monkeypatch.setenv("REPRO_CHAOS_AUDIT", "version")
    monkeypatch.setenv("REPRO_BUNDLE_DIR", "/tmp/lbbv-test-bundles")
    _, engine = run_fingerprint("AES2", "arm64", Tier.LBBV)
    sentinel = engine.executor._audit
    assert sentinel is not None
    assert sentinel.version_audits > 0
    assert sentinel.demotions
    demoted = [
        code for code in engine._code_objects
        if getattr(code, "_supervise_demoted", False)
    ]
    assert demoted
    for code in demoted:
        assert code._versions is None or code._versions.disabled
        assert code._blocks is None or code._blocks.demoted
