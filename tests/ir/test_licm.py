"""Loop-invariant check hoisting tests."""

from repro.engine import Engine, EngineConfig
from repro.ir.builder import build_graph
from repro.ir.passes.licm import hoist_invariant_checks
from repro.jit.checks import CheckKind
from repro.machine.ladder import Tier


def builder_for(source, name, calls=25, entry="f"):
    engine = Engine(EngineConfig(tier=Tier.INTERP))
    engine.load(source)
    for _ in range(calls):
        engine.call_global(entry)
    shared = next(f for f in engine.functions if f.name == name)
    return build_graph(shared, engine), engine


CALL_FREE_LOOP = """
var data = [1, 2, 3, 4, 5, 6, 7, 8];
function sum8(a) {
  var s = 0;
  for (var i = 0; i < 8; i++) { s = s + a[i]; }
  return s;
}
function f() { return sum8(data); }
"""

LOOP_WITH_CALL = """
var data = [1, 2, 3, 4, 5, 6, 7, 8];
var g = 0;
function effect() { g = g + 1; return 0; }
function f() {
  var s = 0;
  for (var i = 0; i < 8; i++) { s = s + data[i] + effect(); }
  return s;
}
"""


def map_checks_in_loop(builder):
    header = next(b for b in builder.graph.blocks if b.loop_header)
    loop_start = builder.block_bytecode_pc[header.id]
    loop_end = builder._loop_end[loop_start]
    in_loop = []
    for block in builder.graph.blocks:
        pc = builder.block_bytecode_pc.get(block.id)
        if pc is None or not (loop_start <= pc <= loop_end):
            continue
        in_loop.extend(
            n for n in block.nodes
            if n.check_kind == CheckKind.WRONG_MAP and not n.dead
        )
    return in_loop


class TestHoisting:
    def test_map_check_hoisted_out_of_call_free_loop(self):
        # The receiver must be loop-invariant *by node identity* (a
        # parameter); globals are re-loaded per use and are not hoistable.
        builder, _ = builder_for(CALL_FREE_LOOP, "sum8")
        assert map_checks_in_loop(builder)  # emitted in-loop by the builder
        hoisted = hoist_invariant_checks(builder)
        assert hoisted >= 1
        assert not map_checks_in_loop(builder)

    def test_not_hoisted_when_loop_calls_out(self):
        builder, _ = builder_for(LOOP_WITH_CALL, "f")
        hoist_invariant_checks(builder)
        # The call can transition maps, so the in-loop check must stay.
        assert map_checks_in_loop(builder)

    def test_hoisted_check_uses_loop_entry_frame_state(self):
        builder, _ = builder_for(CALL_FREE_LOOP, "sum8")
        hoist_invariant_checks(builder)
        header_start = min(builder.loop_headers)
        entry = builder.header_entry_checkpoints[header_start]
        hoisted_checks = [
            n for n in builder.graph.all_nodes()
            if n.check_kind == CheckKind.WRONG_MAP and not n.dead
        ]
        assert hoisted_checks
        assert all(n.checkpoint is entry for n in hoisted_checks)

    def test_end_to_end_correct_after_hoisting(self):
        engine = Engine(EngineConfig(target="arm64"))
        engine.load(CALL_FREE_LOOP)
        for _ in range(40):
            assert engine.call_global("f") == 36

    def test_hoisted_check_still_deopts_on_entry_violation(self):
        engine = Engine(EngineConfig(target="arm64"))
        engine.load(CALL_FREE_LOOP)
        for _ in range(40):
            engine.call_global("f")
        engine.load("function poison() { data[2] = 1.5; }")
        engine.call_global("poison")
        assert engine.call_global("f") == 34.5  # 36 - 3 + 1.5
