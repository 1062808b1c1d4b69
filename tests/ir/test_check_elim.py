"""Check-elimination (Fig. 5) and DCE tests."""

from repro.engine import Engine, EngineConfig
from repro.ir.builder import build_graph
from repro.ir.passes.check_elim import eliminate_checks
from repro.ir.passes.dce import elide_truncated_minus_zero_checks, eliminate_dead_code
from repro.jit.checks import CheckKind
from repro.machine.ladder import Tier


def built(source, name, args_sequence, calls=20):
    engine = Engine(EngineConfig(tier=Tier.INTERP))
    engine.load(source)
    for i in range(calls):
        engine.call_global(name, *args_sequence[i % len(args_sequence)])
    shared = next(f for f in engine.functions if f.name == name)
    return build_graph(shared, engine)


ELEMENT_SOURCE = """
var arr = [1, 2, 3, 4];
function f(i) { return arr[i] + 1; }
"""


class TestShortCircuit:
    def test_removing_bounds_kills_check_node(self):
        builder = built(ELEMENT_SOURCE, "f", [(1,)])
        before = builder.graph.count_checks()
        assert before.get(CheckKind.OUT_OF_BOUNDS, 0) == 1
        removed = eliminate_checks(builder.graph, {CheckKind.OUT_OF_BOUNDS})
        assert removed == 1
        after = builder.graph.count_checks()
        assert CheckKind.OUT_OF_BOUNDS not in after

    def test_dce_removes_condition_ancestors(self):
        """The paper's Fig. 5 effect: the tagged-index computation feeding
        only the bounds check dies with it."""
        builder = built(ELEMENT_SOURCE, "f", [(1,)])
        eliminate_checks(builder.graph, {CheckKind.OUT_OF_BOUNDS})
        removed = eliminate_dead_code(builder.graph)
        assert removed >= 1
        ops = [n.op for n in builder.graph.all_nodes()]
        assert "check_bounds" not in ops

    def test_checked_op_becomes_unchecked_twin(self):
        builder = built("function f(a, b) { return a + b; }", "f", [(1, 2)])
        eliminate_checks(builder.graph, {CheckKind.OVERFLOW})
        ops = [n.op for n in builder.graph.all_nodes()]
        assert "checked_int32_add" not in ops
        assert "int32_add" in ops

    def test_untag_survives_check_removal(self):
        """Removing the Not-a-SMI check must keep the untagging shift —
        the value still has to be converted (paper Section V's point)."""
        builder = built("function f(a) { return a + 1; }", "f", [(1,)])
        eliminate_checks(builder.graph, {CheckKind.NOT_A_SMI})
        eliminate_dead_code(builder.graph)
        ops = [n.op for n in builder.graph.all_nodes()]
        assert "checked_untag" not in ops
        assert "untag_signed" in ops

    def test_soft_deopts_never_removed(self):
        source = """
        function f(x) {
          if (x > 0) { return x + 1; }
          return x - 1;
        }
        """
        builder = built(source, "f", [(5,)])
        eliminate_checks(builder.graph, set(CheckKind))
        kinds = [n.check_kind for n in builder.graph.check_nodes()]
        assert CheckKind.INSUFFICIENT_FEEDBACK in kinds

    def test_selective_removal_keeps_other_kinds(self):
        builder = built(ELEMENT_SOURCE, "f", [(1,)])
        eliminate_checks(builder.graph, {CheckKind.OUT_OF_BOUNDS})
        kinds = set(builder.graph.count_checks())
        assert CheckKind.WRONG_MAP in kinds  # map checks untouched


class TestMinusZeroElision:
    def test_truncated_mul_loses_minus_zero_check(self):
        builder = built(
            "function f(a, b) { return (a * b) + 1; }", "f", [(2, 3)]
        )
        elided = elide_truncated_minus_zero_checks(builder.graph)
        assert elided == 1
        muls = [n for n in builder.graph.all_nodes() if n.op == "checked_int32_mul"]
        assert muls and muls[0].param("minus_zero_check") is False

    def test_observed_mul_keeps_minus_zero_check(self):
        # The product is returned (tagged): -0 would be observable.
        builder = built("function f(a, b) { return a * b; }", "f", [(2, 3)])
        elided = elide_truncated_minus_zero_checks(builder.graph)
        assert elided == 0


class TestExecutionAfterRemoval:
    def test_results_unchanged_when_checks_never_fire(self):
        source = """
        var arr = [5, 6, 7, 8];
        function f(i) { return arr[i] * 2; }
        """
        reference = Engine(EngineConfig(tier=Tier.INTERP))
        reference.load(source)
        expected = reference.call_global("f", 2)

        engine = Engine(
            EngineConfig(target="arm64", removed_checks=frozenset(CheckKind))
        )
        engine.load(source)
        for _ in range(40):
            assert engine.call_global("f", 2) == expected
        shared = next(fn for fn in engine.functions if fn.name == "f")
        assert shared.code is not None
        assert not shared.code.deopt_points  # nothing left to deopt on
