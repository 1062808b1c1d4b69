"""Typeflow analysis: lattice laws, classification over real benchmarks,
dynamic cross-validation, and a seeded-unsoundness mutation test proving
the validator rejects a broken abstract transfer."""

from __future__ import annotations

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.analysis import typeflow
from repro.analysis.diagnostics import Severity
from repro.analysis.typeflow import (
    HOISTABLE,
    MAX_SHAPE_SET,
    REDUNDANT,
    REQUIRED,
    analyze_typeflow,
    cross_validate,
    join_typeval,
    typed_plans,
    version_analysis,
)
from repro.engine import EngineConfig
from repro.isa.base import ARM64, CC, MachineInstr, MOp
from repro.isa.semantics import AbstractTransfer, abstract_transfer_of
from repro.jit.checks import CheckKind
from repro.jit.codegen import CodeObject
from repro.jit.deopt import DeoptPoint
from repro.machine.ladder import Tier
from repro.resilience.faults import FaultInjector, plan_for
from repro.suite import compile_benchmark, get_benchmark
from repro.suite.runner import BenchmarkRunner

SMI = ("smi", None)
DOUBLE = ("double", None)
STRING = ("string", None)
HEAP = ("heap-object", None)


def obj(*shapes):
    return ("object", frozenset(shapes))


# -- lattice laws ---------------------------------------------------------


def test_join_identity_and_unknown():
    assert join_typeval(SMI, SMI) == SMI
    assert join_typeval(SMI, None) is None
    assert join_typeval(None, STRING) is None
    assert join_typeval(None, None) is None


def test_join_object_shape_union():
    assert join_typeval(obj(10), obj(12)) == obj(10, 12)
    assert join_typeval(obj(10, 12), obj(12)) == obj(10, 12)


def test_join_widens_past_shape_cap():
    big = obj(*range(MAX_SHAPE_SET))
    assert join_typeval(big, big) == big  # at the cap, not over it
    assert join_typeval(big, obj(99)) == HEAP


def test_join_mixed_heap_kinds():
    assert join_typeval(STRING, obj(10)) == HEAP
    assert join_typeval(("boxed-number", None), STRING) == HEAP
    assert join_typeval(HEAP, obj(10)) == HEAP
    # A double is an unboxed float, not a heap value: no common bound.
    assert join_typeval(DOUBLE, STRING) is None
    assert join_typeval(SMI, STRING) is None


def test_join_is_commutative_idempotent_and_monotone_terminating():
    samples = [None, SMI, DOUBLE, STRING, ("boxed-number", None), HEAP,
               obj(1), obj(2), obj(1, 2), obj(*range(MAX_SHAPE_SET))]
    for a in samples:
        assert join_typeval(a, a) == a
        for b in samples:
            assert join_typeval(a, b) == join_typeval(b, a)
    # Widening termination: keep joining in fresh singleton shapes — the
    # chain must stabilise (object grows to the cap, then widens to
    # heap-object, which absorbs) instead of ascending forever.
    value = obj(0)
    history = [value]
    for shape in range(1, 50):
        value = join_typeval(value, obj(shape))
        history.append(value)
    assert value == HEAP
    assert join_typeval(value, obj(999)) == HEAP
    # Strictly ascending only until the widening point.
    changes = sum(1 for x, y in zip(history, history[1:]) if x != y)
    assert changes <= MAX_SHAPE_SET + 1


# -- classification over real benchmarks ----------------------------------


@pytest.mark.parametrize("target", ["arm64", "x64"])
@pytest.mark.parametrize("name", ["FIB", "SPMV-CSR-INT"])
def test_classification_is_total_and_consistent(name, target):
    spec = get_benchmark(name)
    engine = compile_benchmark(
        spec, EngineConfig(target=target, verify=True), iterations=12
    )
    analyzed = 0
    for code in engine._code_objects:
        result = analyze_typeflow(code)
        analyzed += 1
        counts = result.counts
        assert counts["checks"] == len(result.classifications)
        assert (counts[REDUNDANT] + counts[HOISTABLE] + counts[REQUIRED]
                == counts["checks"])
        assert result.residual_density() <= (
            100.0 * counts["checks"] / result.body_instructions
            if result.body_instructions else 0.0
        ) + 1e-9
        for verdict in result.classifications.values():
            assert verdict.klass in (REDUNDANT, HOISTABLE, REQUIRED)
            assert verdict.site in ("branch", "jsldrsmi")
            if verdict.klass != REQUIRED:
                assert verdict.fact is not None
        # Plans only for non-required, structurally eligible checks, one
        # per fused block, sited on the block's last instruction.
        for plan in result.plans.values():
            verdict = result.classifications[plan.check_id]
            assert verdict.klass in (REDUNDANT, HOISTABLE)
            assert verdict.eligible
            assert plan.site_pc == plan.end - 1
            assert plan.guards in ((), (plan.fact,))
            assert (plan.guards == ()) == (verdict.klass == REDUNDANT)
    assert analyzed > 0


def test_analysis_result_is_cached_and_serializable():
    spec = get_benchmark("FIB")
    engine = compile_benchmark(
        spec, EngineConfig(target="arm64", verify=True), iterations=12
    )
    code = engine._code_objects[-1]
    result = analyze_typeflow(code)
    assert analyze_typeflow(code) is result
    blob = json.dumps(result.to_json())
    assert spec.name.lower() in blob.lower() or result.function in blob


def test_cross_validation_clean_on_real_run():
    spec = get_benchmark("FIB")
    engine = compile_benchmark(
        spec, EngineConfig(target="arm64", verify=True, tier=Tier.TRACE),
        iterations=12,
    )
    assert sum(engine.check_trips.values()) > 0  # FIB warmup does deopt
    assert cross_validate(engine._code_objects, engine.check_trips) == []


@pytest.mark.parametrize("target", ["arm64", "x64"])
@pytest.mark.parametrize("name", ["AES2", "SPLAY"])
def test_one_must_analysis_feeds_plans_and_versions(name, target, monkeypatch):
    """Typed plans and the LBBV context share one prepared analysis: the
    must-fixpoint runs once per code object, and finishing the static
    result leaves the state the version queries read exactly as an
    independently prepared analysis computes it."""
    engine = compile_benchmark(
        get_benchmark(name),
        EngineConfig(target=target, tier=Tier.OPT, verify=False),
        iterations=12,
    )
    codes = [code for code in engine._code_objects if code.instrs]
    assert codes
    run_must = typeflow._Typeflow._run_must
    runs = []

    def counted(self):
        runs.append(self.code)
        run_must(self)

    monkeypatch.setattr(typeflow._Typeflow, "_run_must", counted)
    for code in codes:
        code._typeflow = code._version_analysis = None
        runs.clear()
        typed_plans(code)
        ctx = version_analysis(code)
        assert runs == [code]

        reference = typeflow._Typeflow(code)
        reference._find_sites()
        run_must(reference)
        assert ctx.static_entry == reference.entry_facts
        assert ctx.sites == reference.sites
        for bid, entry in reference.entry_facts.items():
            assert ctx.out_states(bid, entry) == reference._out_edges(bid, entry)


@pytest.mark.parametrize("name", ["FIB", "AES2"])
def test_engine_never_runs_the_may_analysis(name, monkeypatch):
    """Only the CLI's verbose report reads the block summaries, so the
    engine (typed plans, versions, continuation tokens under a fault
    plan) never runs the may-analysis behind them — and a later report
    still gets every block."""

    def forbidden(self):
        raise AssertionError("the engine ran the may-analysis")

    iterations = 12
    runner = BenchmarkRunner(get_benchmark(name), EngineConfig(target="arm64"))
    with monkeypatch.context() as patch:
        patch.setattr(typeflow._Typeflow, "_run_may", forbidden)
        runner.run(
            iterations=iterations,
            injector=FaultInjector(plan_for(name, 0, iterations)),
        )
    engine = runner.last_engine
    assert engine.resilience_stats()["continuation_dispatches"] > 0
    codes = [code for code in engine._code_objects if code.instrs]
    assert codes
    for code in codes:
        assert analyze_typeflow(code).to_json()["blocks"]


@pytest.mark.parametrize("target", ["arm64", "x64"])
@pytest.mark.parametrize("name", ["AES2", "SPLAY"])
def test_one_transfer_per_pc_per_analysis(name, target, monkeypatch):
    """Each analysis takes every pc's abstract transfer once: the
    must-fixpoint, classification, LBBV seeding and the on-demand
    summaries all read one table instead of rebuilding transfers per
    visit."""
    calls = Counter()

    def counted(instr):
        calls[id(instr)] += 1
        return abstract_transfer_of(instr)

    monkeypatch.setattr(typeflow, "abstract_transfer_of", counted)
    engine = compile_benchmark(
        get_benchmark(name),
        EngineConfig(target=target, tier=Tier.LBBV, verify=False),
        iterations=12,
    )
    assert any(table.created for table in engine._version_tables())
    codes = [code for code in engine._code_objects if code.instrs]
    for code in codes:
        analyze_typeflow(code).to_json()
    assert max(calls.values()) == 1
    assert sum(calls.values()) == sum(len(code.instrs) for code in codes)


# -- seeded unsoundness (mutation test) -----------------------------------


def _smi_check_code():
    """ADD of an even and an odd constant, then a smi (tag-bit) check:
    the result really is tagged, so the check is genuinely load-bearing."""
    shared = SimpleNamespace(info=SimpleNamespace(name="hand"))
    code = CodeObject(shared, ARM64)
    code.instrs = [
        MachineInstr(MOp.MOVI, dst=8, imm=4),
        MachineInstr(MOp.MOVI, dst=9, imm=5),
        MachineInstr(MOp.ADD, dst=10, s1=8, s2=9),
        MachineInstr(MOp.TSTI, s1=10, imm=1, check_id=0),
        MachineInstr(MOp.BCC, target=6, cc=CC.NE, check_id=0,
                     is_deopt_branch=True),
        MachineInstr(MOp.RET, s1=10),
        MachineInstr(MOp.DEOPT, imm=0),
    ]
    code.deopt_points = {0: DeoptPoint(0, CheckKind.NOT_A_SMI, 0, ())}
    code.check_sites = {}
    code.stack_slots = 2
    code.serial = 0
    return code


def test_block_summaries_report_is_pinned():
    """The verbose report's per-block summaries of a hand-built code
    object.  Block 1 is the fall-through of a check that always fires:
    its entry facts hold both parities of r10 (an infeasible path)."""
    check = {
        "check_id": 0, "kind": "NOT_A_SMI", "site": "branch", "pc": 4,
        "block": 0, "class": "required", "fact": "r10 is smi",
        "reason": "operands or heap state change between block entry "
                  "and the check",
        "eligible": False,
    }
    r10_tagged = {"r10": "heap-object", "r8": "smi", "r9": "heap-object"}
    assert analyze_typeflow(_smi_check_code()).to_json()["blocks"] == [
        {
            "block": 0, "span": [0, 5], "entry_types": {},
            "exit_types": r10_tagged, "entry_facts": [], "check": check,
        },
        {
            "block": 1, "span": [5, 6],
            "entry_types": {"r10": "smi", "r8": "smi", "r9": "heap-object"},
            "exit_types": {"r10": "smi", "r8": "smi", "r9": "heap-object"},
            "entry_facts": [
                "r10 is heap-ptr", "r10 is smi", "r8 == 4", "r8 is smi",
                "r9 == 5", "r9 is heap-ptr",
            ],
            "check": None,
        },
        {
            "block": 2, "span": [6, 7], "entry_types": r10_tagged,
            "exit_types": r10_tagged,
            "entry_facts": [
                "r10 is heap-ptr", "r8 == 4", "r8 is smi", "r9 == 5",
                "r9 is heap-ptr",
            ],
            "check": None,
        },
    ]


def test_sound_transfer_keeps_real_check_required():
    code = _smi_check_code()
    verdict = analyze_typeflow(code).classifications[0]
    assert verdict.klass == REQUIRED
    # Trips on a required check are normal operation, not a violation.
    assert cross_validate([code], {(0, 0): 5}) == []


def test_unsound_transfer_is_rejected_by_cross_validation(monkeypatch, tmp_path):
    """Seed the one bug class the validator exists for: an abstract
    transfer claiming ADD always produces an SMI.  The analysis then
    proves the tag check redundant; a single recorded dynamic trip must
    surface as a typeflow-soundness ERROR plus a forensics bundle."""

    def unsound(instr):
        if instr.op == MOp.ADD:
            return AbstractTransfer(("r", instr.dst), ("const", 0))
        return abstract_transfer_of(instr)

    monkeypatch.setattr(typeflow, "abstract_transfer_of", unsound)
    code = _smi_check_code()
    verdict = analyze_typeflow(code).classifications[0]
    assert verdict.klass == REDUNDANT  # the unsound proof went through

    diagnostics = cross_validate([code], {(0, 0): 1}, bundle_root=tmp_path)
    assert [d.invariant for d in diagnostics] == ["typeflow-soundness"]
    assert diagnostics[0].severity == Severity.ERROR
    assert "dynamically deoptimized" in diagnostics[0].message

    bundles = list(tmp_path.glob("typeflow-unsound-*.json"))
    assert len(bundles) == 1
    record = json.loads(bundles[0].read_text())
    assert record["check_id"] == 0
    assert record["dynamic_trips"] == 1
    assert record["kind"] == "typeflow-unsound"


def test_unsound_transfer_never_reaches_typed_plans(monkeypatch):
    """Even before any dynamic evidence, a wrongly-redundant check makes
    an (unguarded) typed plan — this documents why cross-validation and
    the divergence sentinel exist.  The plan must still satisfy the
    structural invariants mclint enforces."""

    def unsound(instr):
        if instr.op == MOp.ADD:
            return AbstractTransfer(("r", instr.dst), ("const", 0))
        return abstract_transfer_of(instr)

    monkeypatch.setattr(typeflow, "abstract_transfer_of", unsound)
    code = _smi_check_code()
    plans = typed_plans(code)
    for plan in plans.values():
        assert plan.site_pc == plan.end - 1
        assert plan.guards in ((), (plan.fact,))
