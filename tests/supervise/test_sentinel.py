"""Online divergence sentinel: audit schedule, shadow identity, demotion."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier
from repro.supervise.sentinel import (
    DEFAULT_INTERVAL,
    DivergenceSentinel,
    chaos_spec,
    resolve_audit_interval,
)
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import get_benchmark

SMOKE = ("FIB", "SPECTRAL", "JSONLIKE")


class TestChaosSpec:
    @pytest.mark.parametrize("raw,spec", [
        ("block", ("block", 1)),
        ("trace:3", ("trace", 3)),
        ("dispatch:0", ("dispatch", 1)),
        ("version:x", ("version", 1)),
        ("", (None, 0)),
        ("corrupt", (None, 0)),
    ])
    def test_one_variable_names_site_and_count(self, monkeypatch, raw, spec):
        monkeypatch.setenv("REPRO_CHAOS_AUDIT", raw)
        assert chaos_spec() == spec


class TestResolveAuditInterval:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert resolve_audit_interval(None) is None

    @pytest.mark.parametrize("value", ("", "0", "false", "off", "no"))
    def test_env_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_AUDIT", value)
        assert resolve_audit_interval(None) is None

    @pytest.mark.parametrize("value", ("1", "true", "on", "yes"))
    def test_env_on_values_mean_default_interval(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_AUDIT", value)
        assert resolve_audit_interval(None) == DEFAULT_INTERVAL

    def test_env_numeric_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "123")
        assert resolve_audit_interval(None) == 123

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "123")
        assert resolve_audit_interval(False) is None
        assert resolve_audit_interval(7) == 7

    def test_true_means_default(self):
        assert resolve_audit_interval(True) == DEFAULT_INTERVAL

    def test_tiny_and_negative_clamp(self):
        assert resolve_audit_interval(1) == 2
        assert resolve_audit_interval(-5) is None
        assert resolve_audit_interval(0) is None


class TestAuditSchedule:
    def test_intervals_are_deterministic_for_a_seed(self):
        a = DivergenceSentinel(interval=50, seed=1234)
        b = DivergenceSentinel(interval=50, seed=1234)
        assert [a.next_interval() for _ in range(100)] == [
            b.next_interval() for _ in range(100)
        ]

    def test_intervals_cover_the_declared_range(self):
        sentinel = DivergenceSentinel(interval=10, seed=99)
        drawn = {sentinel.next_interval() for _ in range(2000)}
        assert min(drawn) >= 1
        assert max(drawn) <= 19  # 2*interval - 1
        mean = sum(drawn) / len(drawn)
        assert 5 < mean < 15  # centred on the configured interval

    def test_seed_defaults_to_engine_fingerprint(self):
        # Two default-seeded sentinels on the same engine build draw the
        # same schedule: that is what makes replay deterministic.
        assert [DivergenceSentinel(interval=9).next_interval() for _ in range(8)] \
            == [DivergenceSentinel(interval=9).next_interval() for _ in range(8)]


def audited_run(name, interval, iterations=14, chaos=None, monkeypatch=None):
    if chaos is not None:
        monkeypatch.setenv("REPRO_CHAOS_AUDIT", chaos)
    runner = BenchmarkRunner(
        get_benchmark(name), EngineConfig(audit=interval)
    )
    result = runner.run(iterations=iterations)
    engine = runner.last_engine
    return result, engine, engine.executor._audit


class TestCleanAudits:
    @pytest.mark.parametrize("name", SMOKE)
    def test_clean_run_audits_without_divergence(self, name):
        result, _engine, sentinel = audited_run(name, interval=5)
        assert sentinel is not None
        assert sentinel.audits > 0, "audit schedule never fired"
        assert sentinel.divergences == 0
        assert sentinel.demotions == []

    @pytest.mark.parametrize("name", SMOKE)
    def test_audited_run_is_bitwise_identical(self, name):
        plain = BenchmarkRunner(get_benchmark(name), EngineConfig()).run(
            iterations=14
        )
        audited, _engine, _sentinel = audited_run(name, interval=5)
        assert plain.cycles == audited.cycles  # bitwise: floats compare exact
        assert plain.result == audited.result
        assert plain.hw_stats == audited.hw_stats
        assert plain.deopts == audited.deopts

    def test_audit_off_leaves_executor_unarmed(self):
        engine = Engine(EngineConfig())
        assert engine.executor._audit is None

    def test_env_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "31")
        engine = Engine(EngineConfig())
        if engine.tier >= Tier.BLOCK:
            assert engine.executor._audit is not None
            assert engine.executor._audit.interval == 31

    def test_audit_without_blockjit_is_a_noop(self):
        engine = Engine(EngineConfig(audit=5, tier=Tier.OPT))
        assert engine.executor._audit is None


class TestSeededDivergence:
    def test_corruption_demotes_and_keeps_running(self, monkeypatch):
        result, engine, sentinel = audited_run(
            "FIB", interval=7, chaos="block", monkeypatch=monkeypatch
        )
        assert sentinel.divergences == 1
        assert len(sentinel.demotions) == 1
        # The run survived demotion and still computed the right answer.
        plain = BenchmarkRunner(get_benchmark("FIB"), EngineConfig()).run(
            iterations=14
        )
        assert result.result == plain.result

    def test_demotion_is_scoped_to_one_code_object(self, monkeypatch):
        _result, engine, sentinel = audited_run(
            "SPECTRAL", interval=7, chaos="block", monkeypatch=monkeypatch
        )
        assert len(sentinel.demotions) == 1
        demoted = [
            shared.code
            for shared in engine.functions
            if shared.code is not None and shared.code._supervise_demoted
        ]
        healthy = [
            shared.code
            for shared in engine.functions
            if shared.code is not None and not shared.code._supervise_demoted
        ]
        assert len(demoted) == 1
        # Other compiled code objects keep their fast tier.
        for code in healthy:
            assert code._blocks is None or not code._blocks.demoted

    def test_divergence_captures_a_bundle(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path))
        from repro.supervise.bundles import list_bundles, load_bundle

        audited_run("FIB", interval=7, chaos="block", monkeypatch=monkeypatch)
        bundles = [
            p for p in list_bundles(tmp_path) if p.name.startswith("divergence-")
        ]
        assert len(bundles) == 1
        record = load_bundle(bundles[0])
        assert record["kind"] == "divergence"
        assert record["benchmark"] == "FIB"
        assert record["mismatch"]  # names the diverging field(s)
        assert record["audit_interval"] == 7

    def test_chaos_env_without_audit_does_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_AUDIT", "block")
        plain = BenchmarkRunner(get_benchmark("FIB"), EngineConfig()).run(
            iterations=14
        )
        audited, _engine, sentinel = audited_run("FIB", interval=None)
        assert sentinel is None
        assert plain.cycles == audited.cycles


def traced_audited_run(name, interval, monkeypatch, chaos_trace=None,
                       iterations=14):
    """An audited run with the trace tier armed at low thresholds, so
    auditable (call-free) traces form and the sentinel probes them."""
    monkeypatch.setenv("REPRO_TRACEJIT_BUDGET", "400")
    monkeypatch.setenv("REPRO_TRACEJIT_HOT", "8")
    monkeypatch.setenv("REPRO_TRACEJIT_ENTRY", "8")
    if chaos_trace is not None:
        monkeypatch.setenv("REPRO_CHAOS_AUDIT", chaos_trace)
    runner = BenchmarkRunner(
        get_benchmark(name), EngineConfig(audit=interval, tier=Tier.TRACE)
    )
    result = runner.run(iterations=iterations)
    engine = runner.last_engine
    return result, engine, engine.executor._audit


class TestTraceAudits:
    @pytest.mark.parametrize("name", ("MANDEL", "SPECTRAL"))
    def test_clean_run_audits_traces_without_divergence(self, name,
                                                       monkeypatch):
        _result, engine, sentinel = traced_audited_run(
            name, interval=7, monkeypatch=monkeypatch
        )
        assert sentinel is not None
        assert sentinel.trace_audits > 0, (
            "no whole-trace audit ran; either no auditable trace formed "
            "or the trace-anchor audit path is dead"
        )
        assert sentinel.divergences == 0
        assert sentinel.demotions == []

    def test_trace_corruption_demotes_and_keeps_running(self, monkeypatch):
        result, engine, sentinel = traced_audited_run(
            "MANDEL", interval=7, monkeypatch=monkeypatch,
            chaos_trace="trace",
        )
        assert sentinel.divergences == 1
        assert len(sentinel.demotions) == 1
        # Demotion reroutes the whole code object: traces are disabled
        # along with the fused blocks they chain over.
        demoted = [
            shared.code
            for shared in engine.functions
            if shared.code is not None and shared.code._supervise_demoted
        ]
        assert len(demoted) == 1
        tt = demoted[0]._traces
        assert tt is not None and tt.disabled
        assert all(anchor is None for anchor in tt.anchors)
        # The run survived and still computed the right answer.
        plain = BenchmarkRunner(get_benchmark("MANDEL"), EngineConfig()).run(
            iterations=14
        )
        assert result.result == plain.result

    def test_trace_divergence_bundle_records_the_chain(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path))
        from repro.supervise.bundles import list_bundles, load_bundle

        traced_audited_run("MANDEL", interval=7, monkeypatch=monkeypatch,
                           chaos_trace="trace")
        bundles = [
            p for p in list_bundles(tmp_path)
            if p.name.startswith("divergence-")
        ]
        assert len(bundles) == 1
        record = load_bundle(bundles[0])
        assert record["kind"] == "divergence"
        assert record["mismatch"]
        trace = record["trace"]
        assert trace["head"] == record["block"]
        assert trace["head"] in trace["chain"]
        assert isinstance(trace["cyclic"], bool)
        # Replays restore the trace knobs from the recorded env.
        assert record["env"]["REPRO_CHAOS_AUDIT"] == "trace"
        assert record["env"]["REPRO_TRACEJIT_HOT"] == "8"
