"""Differential testing: JIT vs interpreter on generated programs.

The interpreter is the semantics reference; optimized code (on every
target, with tiering, deopts and re-opts in play) must agree with it.
Programs are generated from a small expression grammar that stays inside
the supported subset while exercising the speculation lattice (SMI /
double / string operands, comparisons, conditionals, loops, arrays).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier


def results_agree(source, call, args_list, target="arm64"):
    reference = Engine(EngineConfig(tier=Tier.INTERP))
    reference.load(source)
    expected = [reference.call_global(call, *args) for args in args_list]

    engine = Engine(EngineConfig(target=target, tierup_invocations=3))
    engine.load(source)
    for round_number in range(12):
        for args, want in zip(args_list, expected):
            got = engine.call_global(call, *args)
            if isinstance(want, float) and want != want:  # NaN
                assert got != got, (source, args, got, want)
            else:
                assert got == want, (source, args, got, want, round_number)
    return engine


# -- expression generator -----------------------------------------------------

_INT = st.integers(min_value=-100, max_value=100)
_NUM = st.one_of(_INT, st.floats(min_value=-50, max_value=50, allow_nan=False))


def _literal(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


@st.composite
def arith_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return _literal(draw(_NUM))
        if choice == 1:
            return "a"
        return "b"
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", ">>", "<<"]))
    lhs = draw(arith_expr(depth=depth + 1))
    rhs = draw(arith_expr(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


class TestArithmeticDifferential:
    @given(expr=arith_expr(), a=_NUM, b=_NUM)
    @settings(max_examples=25, deadline=None)
    def test_expression_matches_interpreter(self, expr, a, b):
        source = f"function f(a, b) {{ return {expr}; }}"
        results_agree(source, "f", [(a, b)])

    @given(a=_INT, b=_INT)
    @settings(max_examples=15, deadline=None)
    def test_mixed_smi_then_double_arguments(self, a, b):
        # Warm on SMIs, then hit with doubles: exercises deopt + reopt.
        source = "function f(a, b) { return a * b + a - b; }"
        results_agree(source, "f", [(a, b), (a + 0.5, b), (a, b * 1.5)])


class TestControlFlowDifferential:
    @given(
        bound=st.integers(min_value=0, max_value=40),
        step=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_loops(self, bound, step):
        source = f"""
        function f(n) {{
          var s = 0;
          for (var i = 0; i < n; i = i + {step}) {{
            if (i % 2 == 0) {{ s = s + i; }} else {{ s = s - 1; }}
          }}
          return s;
        }}
        """
        results_agree(source, "f", [(bound,)])

    @given(values=st.lists(_INT, min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_array_sum(self, values):
        literal = ", ".join(str(v) for v in values)
        source = f"""
        var data = [{literal}];
        function f() {{
          var s = 0;
          for (var i = 0; i < data.length; i++) {{ s = s + data[i]; }}
          return s;
        }}
        """
        results_agree(source, "f", [()])

    @given(values=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_double_array_product_sum(self, values):
        literal = ", ".join(repr(v) for v in values)
        source = f"""
        var data = [{literal}];
        function f() {{
          var s = 0.0;
          for (var i = 0; i < data.length; i++) {{ s = s + data[i] * 0.5; }}
          return s;
        }}
        """
        results_agree(source, "f", [()])


class TestAllTargetsDifferential:
    SOURCES = [
        ("function f(a, b) { return (a + b) * (a - b); }", [(3, 4), (10, 2)]),
        (
            """
            var a = [2, 4, 6, 8];
            function f(i) { return a[i] + a[3 - i]; }
            """,
            [(0,), (1,), (2,)],
        ),
        (
            """
            function Point(x, y) { this.x = x; this.y = y; }
            function f(x, y) { var p = new Point(x, y); return p.x * 100 + p.y; }
            """,
            [(1, 2), (9, 9)],
        ),
        (
            "function f(s) { return s + '!' + s.length; }",
            [("ab",), ("xyz",)],
        ),
    ]

    @pytest.mark.parametrize("target", ["x64", "arm64", "arm64+smi"])
    @pytest.mark.parametrize("case", range(len(SOURCES)))
    def test_target_agreement(self, target, case):
        source, args_list = self.SOURCES[case]
        results_agree(source, "f", args_list, target=target)


class TestCheckRemovalDifferential:
    def test_removal_preserves_results_on_stable_program(self):
        from repro.jit.checks import CheckKind

        source = """
        var a = [3, 1, 4, 1, 5, 9, 2, 6];
        function f(n) {
          var best = 0;
          for (var i = 0; i < n; i++) {
            if (a[i] > best) { best = a[i]; }
          }
          return best;
        }
        """
        reference = Engine(EngineConfig(tier=Tier.INTERP))
        reference.load(source)
        expected = reference.call_global("f", 8)
        engine = Engine(
            EngineConfig(target="arm64", removed_checks=frozenset(CheckKind))
        )
        engine.load(source)
        for _ in range(40):
            assert engine.call_global("f", 8) == expected

    def test_branch_suppression_preserves_results(self):
        source = "function f(a, b) { return a * b + 7; }"
        reference = Engine(EngineConfig(tier=Tier.INTERP))
        reference.load(source)
        expected = reference.call_global("f", 6, 7)
        engine = Engine(EngineConfig(target="arm64", emit_check_branches=False))
        engine.load(source)
        for _ in range(40):
            assert engine.call_global("f", 6, 7) == expected
