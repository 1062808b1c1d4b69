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
  ``scripts/blockjit_sweep.py``;
* code whose deopt branches read flags an earlier block set (a patched
  code generator) must run on the step loop at tier ``trace``, with
  tier ``opt``'s results.

Stepped twins compile on their first call, so the sampled, injected and
sweep tests above also exercise that path; the lazy-twin tests below pin
its bookkeeping.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.isa.base import MOp
from repro.jit.codegen import CodeGenerator
from repro.machine import blockjit, tracejit
from repro.machine.ladder import Tier
from repro.profiling.sampler import attach_sampler, window_straddles_tick
from repro.resilience.faults import FaultInjector, plan_for
from repro.resilience.oracle import deopt_stream
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


# -- lazy stepped twins ----------------------------------------------------


def test_unsampled_run_compiles_no_stepped_twin(monkeypatch):
    """Nothing samples, injects or audits, so no block is ever routed
    through its twin and no twin source reaches ``compile()``."""
    sources = []

    def counting_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    monkeypatch.setattr(blockjit, "_COMPILED_SOURCES", {})
    monkeypatch.setattr(blockjit, "compile", counting_compile, raising=False)
    for target in TARGETS:
        for name in ("AES2", "FIB", "SPECTRAL"):
            run_fingerprint(name, target, True)
    assert any("def _blk_f" in source for source in sources)
    assert sum(source.count("def _blk_s") for source in sources) == 0


def warmed_lbbv_engine():
    """AES2 past tier-up on the lbbv rung, unsampled and unaudited: its
    version slots exist and no twin has been called yet."""
    runner = BenchmarkRunner(
        get_benchmark("AES2"),
        EngineConfig(target="arm64", tier=Tier.LBBV, audit=False),
    )
    runner.run(iterations=12)
    return runner.last_engine


def step_once(engine, code, stepped):
    """Call one stepped entry of an auditable AES2 block on a zeroed
    state: every register, frame slot and heap word 0.  AES2 is integer
    code, so any such block then runs cleanly, leaving the real heap
    alone."""
    stepped(
        [0] * code.target.gpr_count, [0.0] * code.target.fpr_count,
        [0] * max(1, code.stack_slots), [0, 0, 0],
        [0] * len(engine.executor.heap.words), 0.0,
    )


def assert_swapped(table, before, placeholder, twin):
    """Every slot that held ``placeholder`` now holds ``twin`` with its
    own cost and fused entry; every other slot is untouched."""
    held = [i for i, entry in enumerate(before) if entry[2] is placeholder]
    assert held
    for index, (cost, fused, stepped) in enumerate(table.driver):
        old_cost, old_fused, old_stepped = before[index]
        assert cost == old_cost
        assert fused is old_fused
        assert stepped is (twin if index in held else old_stepped)
    return held


def lazy_twin_slots(engine):
    """(code, table, base bid, version driver index) for every version
    slot of an auditable block whose twin is still its placeholder."""
    found = []
    for code in engine._code_objects:
        table, versions = code._blocks, code._versions
        if table is None or versions is None or versions.table is not table:
            continue
        for index, version in sorted(versions.by_index.items()):
            bid = version.bid
            if table.auditable[bid] and \
                    table.driver[index][2] is table.blocks[bid].stepped:
                found.append((code, table, bid, index))
    return found


def test_twin_first_reached_through_a_version_slot():
    engine = warmed_lbbv_engine()
    slots = lazy_twin_slots(engine)
    assert slots, "no version slot of an auditable block"
    code, table, bid, index = slots[0]
    placeholder = table.blocks[bid].stepped
    before = list(table.driver)
    step_once(engine, code, table.driver[index][2])
    twin = table.blocks[bid].stepped
    assert twin is not placeholder
    held = assert_swapped(table, before, placeholder, twin)
    assert bid in held and index in held
    # A call through a stale reference runs the twin, compiling nothing.
    after = list(table.driver)
    step_once(engine, code, placeholder)
    assert table.blocks[bid].stepped is twin
    assert table.driver == after


def test_twin_first_reached_after_demotion():
    engine = warmed_lbbv_engine()
    slots = lazy_twin_slots(engine)
    assert slots, "no version slot of an auditable block"
    code, table, bid, index = slots[-1]
    table.demote()
    placeholder = table.blocks[bid].stepped
    before = list(table.driver)
    step_once(engine, code, table.driver[bid][2])
    twin = table.blocks[bid].stepped
    assert twin is not placeholder
    held = assert_swapped(table, before, placeholder, twin)
    assert bid in held and index in held
    assert all(table.driver[i][0] == float("inf") for i in held)


# -- flags that cross a fused-block boundary ------------------------------


def split_deopt_branches(monkeypatch):
    """Patch the code generator so every deopt branch opens a fused block
    of its own: a ``B`` to the very next pc ends the block that set the
    flags, and the branch reads them across the boundary."""
    emit_deopt_branch = CodeGenerator._emit_deopt_branch

    def split(self, cc, check_id):
        if self.emit_check_branches:
            self.emit(MOp.B, target=len(self.code.instrs) + 1)
        emit_deopt_branch(self, cc, check_id)

    monkeypatch.setattr(CodeGenerator, "_emit_deopt_branch", split)


@pytest.mark.parametrize("target", TARGETS)
def test_flags_crossing_blocks_run_on_the_step_loop(monkeypatch, target):
    split_deopt_branches(monkeypatch)
    looks = []
    compile_blocks = tracejit.compile_blocks

    def spy(code, executor):
        table = compile_blocks(code, executor)
        looks.append((code, table))
        return table

    monkeypatch.setattr(tracejit, "compile_blocks", spy)
    runs = {}
    for tier in (Tier.TRACE, Tier.OPT):
        config = EngineConfig(target=target, tier=tier, verify=False)
        runner = BenchmarkRunner(get_benchmark("FIB"), config)
        injector = FaultInjector(plan_for("FIB", seed=7, iterations=12))
        result = runner.run(iterations=12, injector=injector)
        engine = runner.last_engine
        runs[tier] = (result.result, result.total_cycles,
                      engine.executor.stats.instructions, deopt_stream(engine))
        if tier is Tier.TRACE:
            codes = engine._code_objects
            assert codes and any(
                instr.op == MOp.BCC and instr.is_deopt_branch
                for instr in codes[0].instrs
            )
            # The compiler looked at each code object once, rejected it,
            # and lowered its stamp: every activation ran the step loop.
            assert [code for code, _table in looks] == codes
            assert all(table is None for _code, table in looks)
            for code in codes:
                assert code._tier == Tier.OPT
                assert code._blocks is None and code._traces is None
    assert runs[Tier.TRACE] == runs[Tier.OPT]
    assert runs[Tier.OPT][3], "the injected trips must show in the stream"
