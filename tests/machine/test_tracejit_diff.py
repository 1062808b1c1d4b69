"""Differential fuzz: the trace tier vs the block tier vs the step loop.

The trace tier's contract (DESIGN.md "Three-tier executor") is the same
as the block tier's, one level up: heap results, cycle totals, per-pc
sample attributions, deopt records and hardware-counter stats are
*bitwise identical* to the step loop — a trace may side-exit back to the
block table, never diverge.  These tests run real benchmarks at tiers
``opt`` (the step loop), ``lbbv`` (every block tier) and ``trace`` under
low promotion thresholds (so chains actually form within a 12-iteration
test) and compare everything across all three:

* the tier-1 subset covers the smoke suite on both ISAs, including a
  PC-sampled run and a fault-injected run — the fault run exercises the
  post-call resume path, since pending forced trips force every segment
  side-exit;
* ``test_call_spanning_chain_forms`` asserts the tentpole feature is
  actually active: at least one compiled chain crosses a
  ``call_runtime``/``call_shared``/``call_value`` boundary;
* ``test_chain_guard_elision`` unit-tests the chain walk that lets a
  trace skip guards an earlier chained block already established;
* ``test_full_sweep_identity`` (marked slow) widens to every benchmark
  on both ISAs in all three modes — the acceptance sweep, also runnable
  as ``scripts/blockjit_sweep.py``.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.isa.base import MachineInstr, MOp
from repro.machine.ladder import Tier
from repro.machine.tracejit import _chain_guard_sets
from repro.profiling.sampler import attach_sampler
from repro.resilience.faults import FaultInjector, plan_for
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import all_benchmarks, get_benchmark

SMOKE = ("AES2", "FIB", "SPECTRAL", "JSONLIKE", "DP", "SPMV-CSR-INT")
TARGETS = ("arm64", "x64")
SAMPLE_PERIOD = 467.0

#: mode -> executor tier (typed blocks and versions on below traces, so
#: chain stitching runs over guarded typed variants — the hardest
#: identity case)
TIERS = {
    "step": Tier.OPT,
    "block": Tier.LBBV,
    "trace": Tier.TRACE,
}


@pytest.fixture(autouse=True)
def _hot_thresholds(monkeypatch):
    """Low promotion thresholds: traces must form AND run within the
    short test workloads, otherwise the trace rows test nothing."""
    monkeypatch.setenv("REPRO_TRACEJIT_BUDGET", "400")
    monkeypatch.setenv("REPRO_TRACEJIT_HOT", "8")
    monkeypatch.setenv("REPRO_TRACEJIT_ENTRY", "8")


def run_fingerprint(name, target, tier, inject=False, iterations=12):
    spec = get_benchmark(name)
    config = EngineConfig(target=target, tier=TIERS[tier])
    injector = (
        FaultInjector(plan_for(name, seed=7, iterations=iterations))
        if inject
        else None
    )
    runner = BenchmarkRunner(spec, config)
    r = runner.run(iterations=iterations, injector=injector)
    fingerprint = {
        "result": r.result,
        "cycles": r.total_cycles,
        "deopts": r.deopts,
        "hw": r.hw_stats,
    }
    return fingerprint, runner.last_engine


def sampled_fingerprint(name, target, tier, iterations=12):
    spec = get_benchmark(name)
    engine = Engine(EngineConfig(target=target, tier=TIERS[tier]))
    engine.load(spec.source)
    engine.call_global("setup")
    for i in range(6):
        engine.current_iteration = i
        engine.call_global("run")
    sampler = attach_sampler(engine, SAMPLE_PERIOD)
    values = []
    for i in range(iterations):
        engine.current_iteration = 6 + i
        values.append(engine.call_global("run"))
    order = {cid: n for n, cid in enumerate(sampler._code_by_id)}
    samples = sorted(
        ((order[cid], pc), count)
        for (cid, pc), count in sampler.jit_samples.items()
    )
    return {
        "values": values,
        "cycles": engine.executor.cycles,
        "samples": samples,
        "other_samples": sampler.other_samples,
    }


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", SMOKE)
def test_smoke_identity(name, target):
    step, _ = run_fingerprint(name, target, "step")
    block, _ = run_fingerprint(name, target, "block")
    trace, engine = run_fingerprint(name, target, "trace")
    assert step == block
    assert step == trace
    stats = engine.trace_stats()
    assert stats["trace_entries"] > 0, (
        "no trace ever ran; the trace row of this test is vacuous"
    )


@pytest.mark.parametrize("name", ("FIB", "SPECTRAL"))
def test_sampled_identity(name):
    """Per-pc sample counts match exactly: a trace segment whose cycle
    bound may straddle a sample tick side-exits to the block path, which
    in turn defers to the stepped twin, so attribution is defined by the
    step loop in all three tiers."""
    step = sampled_fingerprint(name, "arm64", "step")
    assert step == sampled_fingerprint(name, "arm64", "block")
    assert step == sampled_fingerprint(name, "arm64", "trace")


@pytest.mark.parametrize("name", ("AES2", "JSONLIKE"))
def test_injected_fault_identity(name):
    """Forced deopt trips land on the same branch in all tiers: pending
    trips make every trace segment check fail, so the resumed-after-call
    path and the table round-trip retire identically."""
    step, _ = run_fingerprint(name, "arm64", "step", inject=True)
    block, _ = run_fingerprint(name, "arm64", "block", inject=True)
    trace, _ = run_fingerprint(name, "arm64", "trace", inject=True)
    assert step == block
    assert step == trace
    assert step["deopts"], "fault plan injected no deopts; test is vacuous"


@pytest.mark.parametrize("name", ("FIB", "RICH"))
def test_call_spanning_chain_forms(name):
    """The tentpole feature is active: at least one compiled chain
    crosses a call boundary (the call is a mid-trace superinstruction,
    not a flush back to the dispatch table)."""
    _, engine = run_fingerprint(name, "arm64", "trace")
    stats = engine.trace_stats()
    assert stats["traces"] > 0
    assert stats["call_spanning_traces"] > 0
    assert stats["calls_chained"] > 0


def test_tracejit_config_switch(monkeypatch):
    from repro.machine.tracejit import default_tracejit

    monkeypatch.setenv("REPRO_TIER", "lbbv")
    assert not default_tracejit()
    assert Engine(EngineConfig()).tier is Tier.LBBV
    monkeypatch.delenv("REPRO_TIER")
    assert default_tracejit()  # the default tier is the top one
    assert Engine(EngineConfig()).tier is Tier.TRACE
    assert Engine(EngineConfig(tier=Tier.LBBV)).tier is Tier.LBBV
    # Below the top tier no trace table ever forms: tracing rides on
    # the block table and the versions under it.
    for mode in ("step", "block"):
        _, engine = run_fingerprint("FIB", "arm64", mode)
        assert engine.trace_stats()["trace_entries"] == 0
        assert all(code._traces is None for code in engine._code_objects)


# -- chain guard elision ---------------------------------------------------


class _FakePlan:
    def __init__(self, guards):
        self.guards = tuple(guards)


class _FakeTable:
    def __init__(self, spans, plans):
        self.spans = spans
        self.typed_plans = plans


class _FakeCode:
    def __init__(self, instrs):
        self.instrs = list(instrs)


def _guard_case(body_op, fact):
    """Two single-instruction blocks, both guarding ``fact``; the first
    block's body is ``body_op``.  Returns (eval_guards, elided)."""
    instrs = [body_op, MachineInstr(MOp.MOVI, dst=0, imm=0)]
    table = _FakeTable(
        spans=[(0, 1), (1, 2)],
        plans={0: _FakePlan([fact]), 1: _FakePlan([fact])},
    )
    return _chain_guard_sets(_FakeCode(instrs), table, [0, 1])


def test_chain_guard_elision():
    """A fact established by an earlier chained block and not killed in
    between is not re-evaluated; any redefinition of its registers — or
    a heap clobber, for heap-dependent facts — revives the guard."""
    par = ("par", 5, 0)
    # Neutral body (defines r1, fact lives on r5): second guard elided.
    out, elided = _guard_case(MachineInstr(MOp.MOVI, dst=1, imm=7), par)
    assert out == [(par,), ()]
    assert elided == 1
    # Body redefines r5: the fact dies, the second guard stays.
    out, elided = _guard_case(MachineInstr(MOp.MOVI, dst=5, imm=7), par)
    assert out == [(par,), (par,)]
    assert elided == 0
    # Heap-dependent fact survives register writes but not a store.
    mapfact = ("map", 5, 0, 19)
    out, elided = _guard_case(MachineInstr(MOp.MOVI, dst=1, imm=7), mapfact)
    assert elided == 1
    out, elided = _guard_case(
        MachineInstr(MOp.STR, s1=1, mem=(0, -1, 0, 0)), mapfact
    )
    assert out == [(mapfact,), (mapfact,)]
    assert elided == 0


def test_chain_guard_elision_end_to_end():
    """The compiled looping variant of a trace with an elided guard stays
    bit-identical to the step loop.  Typeflow keeps a guard only where
    some CFG path kills the fact; along a hot chain that avoids the
    killing path the trace drops the re-check, and the sweep-style
    fingerprint proves the elision sound on a real workload."""
    candidates = []
    for name in ("AES2", "SPMV-CSR-INT", "SPECTRAL", "RICH"):
        _, engine = run_fingerprint(name, "arm64", "trace")
        if engine.trace_stats()["chain_guards_elided"]:
            candidates.append(name)
    # Elision is opportunistic: typeflow already removes intra-path
    # redundancy, so it is legitimate for no smoke chain to elide.  The
    # unit test above pins the walk's semantics either way; when a chain
    # does elide, the identity assertions in run_fingerprint's callers
    # (test_smoke_identity) have already covered those benchmarks.
    for name in candidates:
        step, _ = run_fingerprint(name, "arm64", "step")
        trace, _ = run_fingerprint(name, "arm64", "trace")
        assert step == trace


@pytest.mark.slow
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda s: s.name)
def test_full_sweep_identity(spec, target):
    step, _ = run_fingerprint(spec.name, target, "step")
    trace, _ = run_fingerprint(spec.name, target, "trace")
    assert step == trace
    assert sampled_fingerprint(spec.name, target, "step") == sampled_fingerprint(
        spec.name, target, "trace"
    )
    step_i, _ = run_fingerprint(spec.name, target, "step", inject=True)
    trace_i, _ = run_fingerprint(spec.name, target, "trace", inject=True)
    assert step_i == trace_i
