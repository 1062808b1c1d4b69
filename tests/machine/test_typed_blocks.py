"""Typed block variants (repro.analysis.typeflow plans executed by
repro.machine.blockjit): bit-identical results, check-elision counters,
hoisted-guard fallback, and the elements-kind jsldrsmi proof."""

from __future__ import annotations

import pytest

from repro.engine import Engine, EngineConfig
from repro.isa.base import CC, MachineInstr, MOp, resolve_target
from repro.jit.checks import CheckKind
from repro.jit.codegen import CodeObject
from repro.jit.deopt import DeoptPoint, DeoptSignal
from repro.machine.ladder import Tier
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import get_benchmark
from repro.values.maps import ElementsKind
from repro.values.tagged import pointer_tag

SMOKE = ("AES2", "FIB", "JSONLIKE", "SPMV-CSR-INT")


def run_fingerprint(name, target, typed, blockjit=True, iterations=12):
    spec = get_benchmark(name)
    tier = Tier.TYPED if typed else Tier.BLOCK if blockjit else Tier.OPT
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


@pytest.mark.parametrize("target", ("arm64", "x64"))
@pytest.mark.parametrize("name", SMOKE)
def test_typed_identity(name, target):
    """Typed variants must be observationally invisible: every simulated
    statistic matches the untyped block tier; only the Python-level
    elision counters move."""
    off, _ = run_fingerprint(name, target, typed=False)
    on, engine = run_fingerprint(name, target, typed=True)
    assert on == off
    typed = engine.typed_check_stats()
    assert typed["branch_checks_elided"] > 0
    assert typed["guard_failures"] == 0


def test_typed_vs_step_loop_identity():
    step, _ = run_fingerprint("FIB", "arm64", typed=False, blockjit=False)
    typed, _ = run_fingerprint("FIB", "arm64", typed=True)
    assert typed == step


def test_typed_counters_stay_zero_when_disabled():
    _, engine = run_fingerprint("FIB", "arm64", typed=False)
    assert all(v == 0 for v in engine.typed_check_stats().values())


def test_typed_config_switch(monkeypatch):
    from repro.machine.blockjit import default_typed_blocks

    monkeypatch.setenv("REPRO_TIER", "block")
    assert not default_typed_blocks()
    assert Engine(EngineConfig()).tier is Tier.BLOCK
    monkeypatch.setenv("REPRO_TIER", "typed")
    assert default_typed_blocks()
    assert Engine(EngineConfig(tier=Tier.BLOCK)).tier is Tier.BLOCK
    assert Engine(EngineConfig(tier=Tier.TYPED)).tier is Tier.TYPED


# -- hand-built code ------------------------------------------------------


def make_code(instrs, target="arm64", deopt_points=None, smi_load_checks=None):
    class FakeShared:
        class info:  # noqa: N801 - structural stub
            name = "<typed-test>"
            params = []

        name = "<typed-test>"

    code = CodeObject(FakeShared, resolve_target(target))
    code.instrs = list(instrs)
    code.deopt_points = dict(deopt_points or {})
    code.smi_load_checks = dict(smi_load_checks or {})
    code.stack_slots = 2
    return code


def I(op, **kw):  # noqa: E743 - terse instruction builder
    return MachineInstr(op, **kw)


def _engine(typed):
    return Engine(EngineConfig(tier=Tier.TYPED if typed else Tier.BLOCK))


def _run(engine, code, args):
    """Run hand-built code at the engine's tier, stamped the way the
    engine stamps the code it compiles."""
    code._tier = int(engine.tier)
    return engine.executor.run(code, args, 0)


def _smi_arg_code():
    """A hoistable smi check on the first argument register."""
    return make_code(
        [
            I(MOp.TSTI, s1=0, imm=1, check_id=0),
            I(MOp.BCC, cc=CC.NE, target=3, check_id=0, is_deopt_branch=True),
            I(MOp.RET, s1=0),
            I(MOp.DEOPT, imm=0),
        ],
        deopt_points={0: DeoptPoint(0, CheckKind.NOT_A_SMI, 0, ())},
    )


def test_hoisted_guard_elides_check():
    typed_engine = _engine(True)
    plain_engine = _engine(False)
    want = _run(plain_engine, _smi_arg_code(), [4])
    got = _run(typed_engine, _smi_arg_code(), [4])
    assert got == want == 4
    assert typed_engine.executor.cycles == plain_engine.executor.cycles
    elided, conds, smi, guards, failures = typed_engine.executor.typed_counters[:5]
    assert (elided, conds, smi, guards, failures) == (1, 1, 0, 1, 0)
    assert plain_engine.executor.typed_counters == [0, 0, 0, 0, 0, 0, 0]


def test_guard_failure_falls_back_to_generic():
    """An odd (tagged-pointer) argument fails the hoisted parity guard;
    the generic twin must reproduce the exact deopt the step loop takes,
    with identical cycle accounting."""
    typed_engine = _engine(True)
    plain_engine = _engine(False)
    with pytest.raises(DeoptSignal) as plain_signal:
        _run(plain_engine, _smi_arg_code(), [5])
    with pytest.raises(DeoptSignal) as typed_signal:
        _run(typed_engine, _smi_arg_code(), [5])
    assert typed_signal.value.check_id == plain_signal.value.check_id == 0
    assert typed_engine.executor.cycles == plain_engine.executor.cycles
    elided, conds, smi, guards, failures = typed_engine.executor.typed_counters[:5]
    assert failures == 1
    assert elided == 0  # the site ran generically, nothing was elided
    assert smi == 0


def _packed_smi_load_code(map_word):
    """map check -> bounds check -> jsldrsmi: with a PACKED_SMI map
    dependency the element load's tag test is provably redundant."""
    code = make_code(
        [
            # heap[(r0 >> 1) + 0] == map_word, else deopt (map check)
            I(MOp.CMPI_MEM, imm=map_word, mem=(0, -1, 0, 0), check_id=0),
            I(MOp.BCC, cc=CC.NE, target=7, check_id=0, is_deopt_branch=True),
            # r1 u< heap[(r0 >> 1) + 1], else deopt (bounds check)
            I(MOp.CMP_MEM, s1=1, mem=(0, -1, 0, 1), check_id=1),
            I(MOp.BCC, cc=CC.HS, target=8, check_id=1, is_deopt_branch=True),
            # element load with commit-time smi bailout
            I(MOp.JSLDRSMI, dst=2, mem=(0, 1, 0, 2), check_id=2),
            I(MOp.MOVR, dst=0, s1=2),
            I(MOp.RET, s1=0),
            I(MOp.DEOPT, imm=0),
            I(MOp.DEOPT, imm=1),
            I(MOp.DEOPT, imm=2),
        ],
        target="x64",
        deopt_points={
            0: DeoptPoint(0, CheckKind.WRONG_MAP, 0, ()),
            1: DeoptPoint(1, CheckKind.OUT_OF_BOUNDS, 0, ()),
            2: DeoptPoint(2, CheckKind.NOT_A_SMI, 0, ()),
        },
        smi_load_checks={4: 2},
    )
    return code


class _PackedSmiMap:
    def __init__(self, address):
        self.address = address
        self.elements_kind = ElementsKind.PACKED_SMI


def _run_packed_smi(typed):
    engine = _engine(typed)
    heap = engine.heap.words
    map_address = 500
    map_word = pointer_tag(map_address)
    base = len(heap)
    heap.extend([map_word, 2, 14])  # map, tagged length 1, tagged element 7
    code = _packed_smi_load_code(map_word)
    code.map_dependencies = {_PackedSmiMap(map_address)}
    result = _run(engine, code, [pointer_tag(base), 0])
    return result, engine


def test_jsldrsmi_elided_under_packed_smi_proof():
    want, plain_engine = _run_packed_smi(False)
    got, typed_engine = _run_packed_smi(True)
    assert got == want == 7
    assert typed_engine.executor.cycles == plain_engine.executor.cycles
    elided, conds, smi, guards, failures = typed_engine.executor.typed_counters[:5]
    assert smi == 1  # the jsldrsmi tag test was proven away
    assert elided == 2  # both deopt branches
    assert conds == 2  # cmpi_mem + cmp_mem condition instructions
    assert guards == 2  # hoisted map + bounds entry guards
    assert failures == 0


def test_jsldrsmi_needs_guard_without_map_dependency():
    """Same code, but the compiler recorded no map dependency: the map
    word cannot be resolved to PACKED_SMI, so the elements-kind proof
    fails and the tag test is only *hoistable* — elidable, but behind an
    extra entry guard on the element word instead of proof-free."""
    from repro.analysis.typeflow import HOISTABLE, REDUNDANT, analyze_typeflow

    engine = _engine(True)
    heap = engine.heap.words
    map_word = pointer_tag(500)
    base = len(heap)
    heap.extend([map_word, 2, 14])
    code = _packed_smi_load_code(map_word)  # map_dependencies left empty
    assert analyze_typeflow(code).classifications[2].klass == HOISTABLE
    result = _run(engine, code, [pointer_tag(base), 0])
    assert result == 7
    assert engine.executor.typed_counters[3] == 3  # map + bounds + element

    proven = _packed_smi_load_code(map_word)
    proven.map_dependencies = {_PackedSmiMap(500)}
    assert analyze_typeflow(proven).classifications[2].klass == REDUNDANT
