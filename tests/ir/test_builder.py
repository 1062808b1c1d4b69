"""Graph-builder tests: speculation, checks, caching, inlining."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.ir.builder import build_graph, callee_is_inlinable
from repro.jit.checks import CheckKind
from repro.machine.ladder import Tier


def graph_for(source, name, calls=20, args_sequence=None, target="arm64"):
    """Warm a function in the interpreter, then build its graph."""
    engine = Engine(EngineConfig(tier=Tier.INTERP, target=target))
    engine.load(source)
    for i in range(calls):
        engine.call_global(name, *(args_sequence[i % len(args_sequence)] if args_sequence else ()))
    shared = next(f for f in engine.functions if f.name == name)
    return build_graph(shared, engine), engine


def check_kinds(builder):
    return [n.check_kind for n in builder.graph.check_nodes()]


class TestSpeculation:
    def test_smi_feedback_builds_checked_int32(self):
        builder, _ = graph_for(
            "function f(a, b) { return a + b; }", "f", args_sequence=[(1, 2)]
        )
        ops = [n.op for n in builder.graph.all_nodes()]
        assert "checked_int32_add" in ops
        assert CheckKind.NOT_A_SMI in check_kinds(builder)

    def test_number_feedback_builds_float_ops(self):
        builder, _ = graph_for(
            "function f(a, b) { return a + b; }", "f", args_sequence=[(1.5, 2.5)]
        )
        ops = [n.op for n in builder.graph.all_nodes()]
        assert "float64_add" in ops
        assert "checked_int32_add" not in ops
        assert CheckKind.NOT_A_NUMBER in check_kinds(builder)

    def test_string_feedback_builds_generic_call(self):
        builder, _ = graph_for(
            "function f(a, b) { return a + b; }", "f", args_sequence=[("x", "y")]
        )
        names = [n.param("name") for n in builder.graph.all_nodes() if n.op == "call_rt"]
        assert "generic_add" in names

    def test_cold_site_emits_soft_deopt(self):
        source = """
        function f(x) {
          if (x > 0) { return x + 1; }
          return x - 1;
        }
        """
        builder, _ = graph_for(source, "f", args_sequence=[(5,)])
        # The x-1 path never ran: its arithmetic site soft-deopts.
        soft = [
            n for n in builder.graph.check_nodes()
            if n.check_kind == CheckKind.INSUFFICIENT_FEEDBACK
        ]
        assert soft

    def test_element_access_emits_map_bounds_checks(self):
        source = """
        var a = [1, 2, 3, 4];
        function f(i) { return a[i]; }
        """
        builder, _ = graph_for(source, "f", args_sequence=[(1,)])
        kinds = check_kinds(builder)
        assert CheckKind.WRONG_MAP in kinds
        assert CheckKind.OUT_OF_BOUNDS in kinds

    def test_monomorphic_call_guards_target(self):
        source = """
        function callee(x) { this_is_effectful(); return x; }
        function this_is_effectful() { g = 1; }
        var g = 0;
        function f() { return callee(1); }
        """
        builder, _ = graph_for(source, "f")
        assert CheckKind.WRONG_CALL_TARGET in check_kinds(builder)


class TestCheckCaching:
    def test_map_check_deduped_in_straight_line(self):
        source = """
        function f(o) { return o.x + o.y; }
        function go() { var o = {x: 1, y: 2}; return f(o); }
        """
        _builder, engine = graph_for(source, "go")
        shared = next(fn for fn in engine.functions if fn.name == "f")
        builder = build_graph(shared, engine)
        map_checks = [
            n for n in builder.graph.check_nodes()
            if n.check_kind == CheckKind.WRONG_MAP
        ]
        assert len(map_checks) == 1  # same receiver: one check covers both loads

    def test_smi_check_deduped_for_same_value(self):
        builder, _ = graph_for(
            "function f(a) { return a + a + a; }", "f", args_sequence=[(2,)]
        )
        smi_checks = [
            n for n in builder.graph.check_nodes()
            if n.check_kind == CheckKind.NOT_A_SMI
        ]
        assert len(smi_checks) == 1


class TestLoops:
    def test_loop_counter_stays_int32(self):
        source = """
        function f(n) {
          var s = 0;
          for (var i = 0; i < n; i++) { s = s + i; }
          return s;
        }
        """
        builder, _ = graph_for(source, "f", args_sequence=[(10,)])
        from repro.ir.nodes import Repr

        loop_phis = [
            n for n in builder.graph.all_nodes()
            if n.op == "phi" and n.param("loop")
        ]
        assert loop_phis
        assert all(p.out_repr == Repr.INT32 for p in loop_phis)

    def test_bounds_check_eliminated_under_length_guard(self):
        source = """
        function f(a) {
          var s = 0;
          for (var i = 0; i < a.length; i++) { s = s + a[i]; }
          return s;
        }
        var arr = [1,2,3,4];
        function go() { return f(arr); }
        """
        _b, engine = graph_for(source, "go")
        shared = next(fn for fn in engine.functions if fn.name == "f")
        builder = build_graph(shared, engine)
        kinds = check_kinds(builder)
        assert CheckKind.OUT_OF_BOUNDS not in kinds

    def test_bounds_check_kept_without_guard(self):
        source = """
        function f(a, n) {
          var s = 0;
          for (var i = 0; i < n; i++) { s = s + a[i]; }
          return s;
        }
        var arr = [1,2,3,4];
        function go() { return f(arr, 4); }
        """
        _b, engine = graph_for(source, "go")
        shared = next(fn for fn in engine.functions if fn.name == "f")
        builder = build_graph(shared, engine)
        assert CheckKind.OUT_OF_BOUNDS in check_kinds(builder)


class TestInlining:
    SOURCE = """
    function square(x) { return x * x; }
    function caller(a) { return square(a) + square(a + 1); }
    function go() { return caller(3); }
    """

    def test_pure_callee_is_inlinable(self):
        _b, engine = graph_for(self.SOURCE, "go")
        shared = next(fn for fn in engine.functions if fn.name == "square")
        assert callee_is_inlinable(shared)

    def test_call_disappears_after_inlining(self):
        _b, engine = graph_for(self.SOURCE, "go")
        shared = next(fn for fn in engine.functions if fn.name == "caller")
        builder = build_graph(shared, engine)
        call_nodes = [n for n in builder.graph.all_nodes() if n.op == "call_js"]
        assert not call_nodes  # both callees inlined

    def test_effectful_callee_not_inlinable(self):
        source = """
        var g = 0;
        function bump(x) { g = g + x; return g; }
        function caller() { return bump(1); }
        """
        _b, engine = graph_for(source, "caller")
        shared = next(fn for fn in engine.functions if fn.name == "bump")
        assert not callee_is_inlinable(shared)

    def test_inlined_result_is_correct_in_jit(self):
        engine = Engine(EngineConfig(target="arm64"))
        engine.load(self.SOURCE)
        values = {engine.call_global("go") for _ in range(40)}
        assert values == {3 * 3 + 4 * 4}
