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

Every closure compiles on its first call: fused bodies when a block is
first entered, stepped twins when a block is first routed through its
twin (the sampled, injected and sweep tests above exercise that path),
a typed body's generic fallback when an entry guard first fails.  The
lazy-compile tests below pin the bookkeeping.
"""

import pytest

from repro.engine import Engine, EngineConfig
from repro.isa.base import MOp
from repro.jit.codegen import CodeGenerator
from repro.machine import blockjit, tracejit
from repro.machine.continuations import fact_holds
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


# -- lazy compiles: fused bodies, stepped twins, generic fallbacks ---------


def test_unsampled_run_compiles_only_the_bodies_it_enters(monkeypatch):
    """A fused body compiles on its slot's first call: the run compiles
    fewer bodies than its tables have blocks, and only for blocks whose
    slot was called.  Nothing samples, injects or audits, so no block is
    routed through its twin, and no entry guard fails, so no twin or
    generic fallback source reaches ``compile()``."""
    sources = []

    def counting_compile(source, filename, mode):
        sources.append((filename, source))
        return compile(source, filename, mode)

    tables, entered = [], set()
    compile_blocks = tracejit.compile_blocks

    def witness(table, bid, slot):
        def entered_slot(*args):
            entered.add((id(table), bid))
            return slot(*args)

        return entered_slot

    def spy(code, executor):
        # Each base slot's fused entry is wrapped by a witness of its
        # calls; the witness keeps calling the placeholder, which then
        # calls through to the compiled body.
        table = compile_blocks(code, executor)
        if table is not None:
            tables.append(table)
            table.driver[:] = [
                (cost, witness(table, bid, fused), stepped)
                for bid, (cost, fused, stepped) in enumerate(table.driver)
            ]
        return table

    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    monkeypatch.setattr(blockjit, "_COMPILED_SOURCES", {})
    monkeypatch.setattr(blockjit, "compile", counting_compile, raising=False)
    monkeypatch.setattr(tracejit, "compile_blocks", spy)
    for target in TARGETS:
        for name in ("AES2", "FIB", "SPECTRAL"):
            run_fingerprint(name, target, True)
    compiled = {
        (id(table), bid)
        for table in tables
        for bid, block in enumerate(table.blocks)
        if not isinstance(block.fused, blockjit._Lazy)
    }
    bodies = [
        source for filename, source in sources
        if filename == "<blockjit>" and source.startswith("def _blk_f")
    ]
    assert bodies and len(bodies) <= len(compiled)
    assert compiled <= entered
    assert len(compiled) < sum(len(table.blocks) for table in tables)
    assert not any(
        "def _blk_s" in source or "def _blk_g" in source
        for _filename, source in sources
    )


def warmed_engine(tier=Tier.LBBV):
    """AES2 past tier-up (by default on the lbbv rung, so its version
    slots exist), unsampled and unaudited: no twin has been called yet,
    and no entry guard has failed."""
    runner = BenchmarkRunner(
        get_benchmark("AES2"),
        EngineConfig(target="arm64", tier=tier, audit=False),
    )
    runner.run(iterations=12)
    return runner.last_engine


def zeroed_state(engine, code):
    """Every register, frame slot and heap word 0.  AES2 is integer code,
    so any auditable block runs cleanly on it, leaving the real heap
    alone."""
    return (
        [0] * code.target.gpr_count, [0.0] * code.target.fpr_count,
        [0] * max(1, code.stack_slots), [0, 0, 0],
        [0] * len(engine.executor.heap.words),
    )


def step_once(engine, code, stepped):
    """Call one stepped entry of an auditable AES2 block on a zeroed
    state."""
    stepped(*zeroed_state(engine, code), 0.0)


def run_zeroed(engine, code, fn):
    """``fn``'s ``(next bid, cycles)`` and register files on a zeroed
    state, with the predictor restored afterwards so that every call
    starts from the same predictor state."""
    pred = engine.executor.predictor
    history, counters = pred.history, bytes(pred.table)
    state = zeroed_state(engine, code)
    try:
        result = fn(*state, 0.0)
    finally:
        pred.history = history
        pred.table[:] = counters
    return result, state[:4]


def assert_swapped(table, before, placeholder, body, column=2):
    """Every slot whose ``column`` held ``placeholder`` now holds
    ``body``, keeping its cost and its other closure; every other slot
    is untouched."""
    held = [i for i, entry in enumerate(before) if entry[column] is placeholder]
    assert held
    for index, entry in enumerate(table.driver):
        old = before[index]
        assert entry[0] == old[0]
        for col in (1, 2):
            expected = body if col == column and index in held else old[col]
            assert entry[col] is expected
    return held


def untouched_base_slot(engine):
    """(code, table, bid) of an auditable block without a typed plan
    whose base slot still holds its fused placeholder."""
    for code in engine._code_objects:
        table = code._blocks
        if table is None:
            continue
        for bid, block in enumerate(table.blocks):
            if (table.auditable[bid] and bid not in table.typed_plans
                    and table.driver[bid][1] is block.fused
                    and isinstance(block.fused, blockjit._Lazy)):
                return code, table, bid
    raise AssertionError("no uncompiled base slot of an auditable block")


def dispatch_to_placeholder(engine):
    """(code, table, versions, bid) of an auditable block whose LBBV
    dispatcher captured the fused placeholder and, on a zeroed state,
    matches no version, so it calls that placeholder."""
    for code in engine._code_objects:
        table, versions = code._blocks, code._versions
        if table is None or versions is None or versions.table is not table:
            continue
        regs, _fregs, _frame, _special, heap = zeroed_state(engine, code)
        for bid, fallback in sorted(versions.dispatched.items()):
            if (table.auditable[bid] and fallback is table.blocks[bid].fused
                    and isinstance(fallback, blockjit._Lazy)
                    and all(
                        any(fact_holds(f, regs, heap) is False
                            for f in version.key)
                        for version in versions.versions[bid]
                    )):
                return code, table, versions, bid
    raise AssertionError("no dispatcher falls back to a fused placeholder")


def test_first_call_swaps_the_body_into_the_base_slot(exec_log):
    engine = warmed_engine()
    code, table, bid = untouched_base_slot(engine)
    placeholder = table.blocks[bid].fused
    before = list(table.driver)
    first = run_zeroed(engine, code, table.driver[bid][1])
    body = table.blocks[bid].fused
    assert body.__name__ == f"_blk_f{bid}"
    assert assert_swapped(table, before, placeholder, body, column=1) == [bid]
    # A call through a stale reference runs the body, compiling nothing.
    after = list(table.driver)
    mark = len(exec_log)
    assert run_zeroed(engine, code, placeholder) == first
    assert exec_log[mark:] == []
    assert table.blocks[bid].fused is body
    assert table.driver == after


def test_first_call_swaps_the_body_into_the_dispatch_fallback(exec_log):
    engine = warmed_engine()
    code, table, versions, bid = dispatch_to_placeholder(engine)
    placeholder = table.blocks[bid].fused
    dispatcher = table.driver[bid][1]
    glb = versions._compiler.glb
    before = list(table.driver)
    first = run_zeroed(engine, code, dispatcher)
    body = table.blocks[bid].fused
    assert body.__name__ == f"_blk_f{bid}"
    assert versions.dispatched[bid] is body
    assert glb[f"_vf{bid}"] is body
    assert all(
        entry[0] == old[0] and entry[1] is old[1] and entry[2] is old[2]
        for entry, old in zip(table.driver, before)
    )
    mark = len(exec_log)
    assert run_zeroed(engine, code, placeholder) == first
    assert run_zeroed(engine, code, dispatcher) == first
    assert exec_log[mark:] == []


def eager_typed_body(code, executor, bid):
    """Block ``bid``'s typed body compiled together with its generic
    fallback in one module, as a table built eagerly would hold them."""
    compiler = blockjit._BlockCompiler(code, executor)
    table = compiler.compile()
    start, end = table.spans[bid]
    block = table.blocks[bid]
    compiler._exec(
        compiler._assemble(bid, start, end, block, False,
                           table.typed_plans[bid])
        + "\n"
        + compiler._assemble(bid, start, end, block, False, generic=True)
    )
    return compiler.glb[f"_blk_f{bid}"]


def test_failing_entry_guard_compiles_the_generic_fallback(exec_log):
    engine = warmed_engine(Tier.TYPED)
    found = None
    for code in engine._code_objects:
        table = code._blocks
        if table is None:
            continue
        regs, _fregs, _frame, _special, heap = zeroed_state(engine, code)
        for bid, plan in sorted(table.typed_plans.items()):
            if table.auditable[bid] and any(
                fact_holds(f, regs, heap) is False for f in plan.guards
            ):
                found = code, table, bid
                break
        if found:
            break
    assert found, "no typed block whose entry guard fails on a zeroed state"
    code, table, bid = found
    mark = len(exec_log)
    lazy = run_zeroed(engine, code, table.driver[bid][1])
    assert any(
        source.startswith(f"def _blk_g{bid}(") for source in exec_log[mark:]
    )
    glb = table.blocks[bid].fused.__globals__
    assert glb[f"_blk_g{bid}"].__name__ == f"_blk_g{bid}"
    eager = eager_typed_body(code, engine.executor, bid)
    assert lazy == run_zeroed(engine, code, eager)


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
    engine = warmed_engine()
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
    engine = warmed_engine()
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
