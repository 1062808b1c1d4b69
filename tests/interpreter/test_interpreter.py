"""End-to-end interpreter-tier tests (optimizer disabled)."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.lang.errors import JSTypeError
from repro.machine.ladder import Tier


def run(source, call=None, *args):
    engine = Engine(EngineConfig(tier=Tier.INTERP))
    engine.load(source)
    if call is None:
        return engine
    return engine.call_global(call, *args)


class TestControlFlow:
    def test_if_else(self):
        src = "function f(x) { if (x > 0) { return 1; } else { return -1; } }"
        assert run(src, "f", 5) == 1
        assert run(src, "f", -5) == -1

    def test_while_loop(self):
        src = "function f(n) { var s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"
        assert run(src, "f", 5) == 15

    def test_do_while_runs_once(self):
        src = "function f() { var c = 0; do { c = c + 1; } while (false); return c; }"
        assert run(src, "f") == 1

    def test_for_with_break_continue(self):
        src = """
        function f() {
          var s = 0;
          for (var i = 0; i < 100; i++) {
            if (i % 2 == 0) { continue; }
            if (i > 10) { break; }
            s = s + i;
          }
          return s;
        }
        """
        assert run(src, "f") == 1 + 3 + 5 + 7 + 9

    def test_nested_loops(self):
        src = """
        function f(n) {
          var s = 0;
          for (var i = 0; i < n; i++) {
            for (var j = 0; j <= i; j++) { s = s + 1; }
          }
          return s;
        }
        """
        assert run(src, "f", 4) == 10

    def test_short_circuit_evaluation(self):
        src = """
        var calls = 0;
        function bump() { calls = calls + 1; return true; }
        function f() {
          calls = 0;
          var a = false && bump();
          var b = true || bump();
          return calls;
        }
        """
        assert run(src, "f") == 0

    def test_ternary(self):
        assert run("function f(x) { return x > 2 ? 'big' : 'small'; }", "f", 3) == "big"


class TestFunctions:
    def test_recursion(self):
        assert run("function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }", "fib", 10) == 55

    def test_missing_args_are_undefined(self):
        assert run("function f(a, b) { return typeof b; }", "f", 1) == "undefined"

    def test_function_expression_via_global(self):
        src = "var double = function (x) { return x * 2; }; function f(x) { return double(x); }"
        assert run(src, "f", 21) == 42

    def test_top_level_state_shared(self):
        src = """
        var counter = 0;
        function inc() { counter = counter + 1; }
        function get() { return counter; }
        function f() { inc(); inc(); inc(); return get(); }
        """
        assert run(src, "f") == 3

    def test_closure_over_local_rejected(self):
        from repro.bytecode.compiler import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            run("function outer() { var x = 1; return function () { return x; }; }")


class TestObjectsAndArrays:
    def test_constructor_with_this(self):
        src = """
        function Point(x, y) { this.x = x; this.y = y; }
        function f() { var p = new Point(3, 4); return p.x * 10 + p.y; }
        """
        assert run(src, "f") == 34

    def test_method_call_binds_this(self):
        src = """
        function getX() { return this.x; }
        function f() {
          var obj = { x: 7 };
          obj.get = getX;
          return obj.get();
        }
        """
        assert run(src, "f") == 7

    def test_array_literal_and_index(self):
        assert run("function f() { var a = [10, 20, 30]; return a[1]; }", "f") == 20

    def test_array_length_and_append_idiom(self):
        src = """
        function f() {
          var a = [];
          for (var i = 0; i < 5; i++) { a[a.length] = i * i; }
          return a.length * 1000 + a[4];
        }
        """
        assert run(src, "f") == 5016

    def test_array_push_pop(self):
        src = """
        function f() {
          var a = [1];
          a.push(2); a.push(3);
          var last = a.pop();
          return a.length * 10 + last;
        }
        """
        assert run(src, "f") == 23

    def test_out_of_bounds_read_is_undefined(self):
        assert run("function f() { var a = [1]; return typeof a[5]; }", "f") == "undefined"

    def test_property_on_number_raises(self):
        with pytest.raises(JSTypeError):
            run("function f() { var x = 1; return x.y; }", "f")


class TestStringsAndBuiltins:
    def test_string_methods(self):
        src = """
        function f() {
          var s = "Hello, World";
          return s.length * 1000000 + s.indexOf("World") * 1000 + s.charCodeAt(0);
        }
        """
        assert run(src, "f") == 12 * 1000000 + 7 * 1000 + 72

    def test_split_join(self):
        assert run('function f() { return "a,b,c".split(",").join("-"); }', "f") == "a-b-c"

    def test_math_builtins(self):
        src = "function f() { return Math.floor(3.7) * 100 + Math.max(1, 9) * 10 + Math.abs(-2); }"
        assert run(src, "f") == 392

    def test_math_sqrt(self):
        assert run("function f() { return Math.sqrt(144); }", "f") == 12

    def test_parse_int_float(self):
        assert run("function f() { return parseInt('42abc', 10); }", "f") == 42
        assert run("function f() { return parseFloat('2.5rest'); }", "f") == 2.5

    def test_string_from_char_code(self):
        assert run("function f() { return String.fromCharCode(72, 105); }", "f") == "Hi"

    def test_regexp_test_and_exec(self):
        src = """
        var re = null;
        function f() {
          re = new RegExp("(\\\\d+)-(\\\\d+)");
          var m = re.exec("id 12-34 ok");
          return (re.test("55-6") ? 1 : 0) * 10000 + parseInt(m[1], 10) * 100 + parseInt(m[2], 10);
        }
        """
        assert run(src, "f") == 11234

    def test_print_collects_output(self):
        engine = run("print('a', 1); print([1,2] + '');")
        assert engine.print_output == ["a 1", "1,2"]

    def test_array_sort_and_indexOf(self):
        src = """
        function cmp(a, b) { return a - b; }
        function f() {
          var a = [3, 1, 2];
          a.sort(cmp);
          return a.join("") + "@" + a.indexOf(2);
        }
        """
        assert run(src, "f") == "123@1"


class TestFeedbackCollection:
    def test_binary_feedback_recorded(self):
        from repro.interpreter.feedback import BinaryOpSlot, OperandFeedback

        engine = run("function f(a, b) { return a + b; }")
        engine.call_global("f", 1, 2)
        shared = next(fn for fn in engine.functions if fn.name == "f")
        slots = [s for s in shared.feedback.slots if isinstance(s, BinaryOpSlot)]
        assert slots and slots[0].state == OperandFeedback.SIGNED_SMALL
        engine.call_global("f", 1.5, 2)
        assert slots[0].state == OperandFeedback.NUMBER

    def test_property_feedback_monomorphic_then_polymorphic(self):
        from repro.interpreter.feedback import ICState, PropertySlot

        engine = run(
            """
            function get(o) { return o.x; }
            function mk1() { var o = {x: 1}; return o; }
            function mk2() { var o = {y: 1, x: 2}; return o; }
            function mono() { return get(mk1()); }
            function poly() { return get(mk1()) + get(mk2()); }
            """
        )
        engine.call_global("mono")
        shared = next(fn for fn in engine.functions if fn.name == "get")
        slot = next(s for s in shared.feedback.slots if isinstance(s, PropertySlot))
        assert slot.state == ICState.MONOMORPHIC
        engine.call_global("poly")
        assert slot.state == ICState.POLYMORPHIC
