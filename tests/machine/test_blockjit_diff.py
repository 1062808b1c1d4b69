"""Differential fuzz: the block-compiled executor vs the step loop.

The block executor's contract (DESIGN.md "Two-tier executor") is that
heap results, cycle totals, per-pc sample attributions, deopt records and
hardware-counter stats are *bitwise identical* to the step loop — the
fast tier may bail out, never diverge.  These tests run real benchmarks
with the block executors on (``EngineConfig(tier=Tier.TRACE)``) and off
(``Tier.OPT``, the step loop) and compare everything:

* the tier-1 subset covers the smoke suite on both ISAs, including a
  PC-sampled run and a fault-injected run;
* ``test_full_sweep_identity`` (marked slow) widens to every benchmark on
  both ISAs in all three modes — the acceptance sweep, also runnable as
  ``scripts/blockjit_sweep.py``.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier
from repro.profiling.sampler import attach_sampler, window_straddles_tick
from repro.resilience.faults import FaultInjector, plan_for
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import all_benchmarks, get_benchmark

SMOKE = ("AES2", "FIB", "SPECTRAL", "JSONLIKE", "DP", "SPMV-CSR-INT")
TARGETS = ("arm64", "x64")
SAMPLE_PERIOD = 467.0


def tier_for(blockjit):
    """The whole block-executor stack, or the step loop alone."""
    return Tier.TRACE if blockjit else Tier.OPT


def run_fingerprint(name, target, blockjit, inject=False, iterations=12):
    spec = get_benchmark(name)
    config = EngineConfig(target=target, tier=tier_for(blockjit))
    injector = (
        FaultInjector(plan_for(name, seed=7, iterations=iterations))
        if inject
        else None
    )
    r = BenchmarkRunner(spec, config).run(iterations=iterations, injector=injector)
    return {
        "result": r.result,
        "cycles": r.total_cycles,
        "deopts": r.deopts,
        "hw": r.hw_stats,
    }


def sampled_fingerprint(name, target, blockjit, iterations=12):
    spec = get_benchmark(name)
    engine = Engine(EngineConfig(target=target, tier=tier_for(blockjit)))
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
    # id(code) differs between engines, but deterministic execution
    # registers code objects in the same order — normalize on that.
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
    assert run_fingerprint(name, target, False) == run_fingerprint(
        name, target, True
    )


@pytest.mark.parametrize("name", ("FIB", "SPECTRAL"))
def test_sampled_identity(name):
    """Per-pc sample counts match exactly: blocks whose cycle window may
    straddle a sample tick run the stepped tier, so attribution is
    defined by the step loop in both modes."""
    assert sampled_fingerprint(name, "arm64", False) == sampled_fingerprint(
        name, "arm64", True
    )


@pytest.mark.parametrize("name", ("AES2", "JSONLIKE"))
def test_injected_fault_identity(name):
    """Forced deopt trips land on the exact same branch in both tiers
    (pending trips route every block through its stepped twin)."""
    off = run_fingerprint(name, "arm64", False, inject=True)
    on = run_fingerprint(name, "arm64", True, inject=True)
    assert off == on
    assert off["deopts"], "fault plan injected no deopts; test is vacuous"


def test_window_straddle_contract():
    assert window_straddles_tick(100.0, 100.0)
    assert window_straddles_tick(100.0, 100.5)
    assert not window_straddles_tick(100.0, 99.9999)
    assert not window_straddles_tick(float("inf"), 1e300)


def test_blockjit_config_switch(monkeypatch):
    from repro.machine.blockjit import default_blockjit

    monkeypatch.setenv("REPRO_TIER", "opt")
    assert not default_blockjit()
    assert Engine(EngineConfig()).tier is Tier.OPT
    monkeypatch.setenv("REPRO_TIER", "block")
    assert default_blockjit()
    assert Engine(EngineConfig(tier=Tier.OPT)).tier is Tier.OPT
    assert Engine(EngineConfig(tier=Tier.BLOCK)).tier is Tier.BLOCK


def test_tracing_forces_step_loop():
    """The pipeline models' traces are only defined by the step loop: a
    blockjit engine with tracing on still materializes a full per-retire
    trace identical to a step-loop engine's."""
    def traced(blockjit):
        spec = get_benchmark("FIB")
        engine = Engine(EngineConfig(tier=tier_for(blockjit),
                                     collect_trace=True))
        engine.load(spec.source)
        engine.call_global("setup")
        for i in range(12):
            engine.current_iteration = i
            engine.call_global("run")
        return [
            (instr.op, taken, address)
            for instr, taken, address in engine.executor.trace
        ]

    off = traced(False)
    on = traced(True)
    assert on  # tracing produced retires despite the block tiers
    assert off == on


@pytest.mark.slow
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda s: s.name)
def test_full_sweep_identity(spec, target):
    assert run_fingerprint(spec.name, target, False) == run_fingerprint(
        spec.name, target, True
    )
    assert sampled_fingerprint(spec.name, target, False) == sampled_fingerprint(
        spec.name, target, True
    )
    assert run_fingerprint(spec.name, target, False, inject=True) == run_fingerprint(
        spec.name, target, True, inject=True
    )
