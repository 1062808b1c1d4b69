"""Register-allocation invariant tests."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.ir.builder import build_graph
from repro.ir.passes.dce import eliminate_dead_code
from repro.ir.passes.schedule import schedule_rpo
from repro.jit.regalloc import allocate
from repro.jit.codegen import CodeGenerator
from repro.isa.base import resolve_target
from repro.machine.ladder import Tier


def allocation_for(source, name, args_sequence, calls=25):
    engine = Engine(EngineConfig(tier=Tier.INTERP))
    engine.load(source)
    for i in range(calls):
        engine.call_global(name, *args_sequence[i % len(args_sequence)])
    shared = next(f for f in engine.functions if f.name == name)
    builder = build_graph(shared, engine)
    eliminate_dead_code(builder.graph)
    schedule_rpo(builder.graph)
    generator = CodeGenerator(builder, resolve_target("arm64"))
    blocks = [b for b in builder.graph.blocks if b.nodes]
    allocation = allocate(blocks, generator.int_pool, generator.float_pool)
    return allocation, builder, generator


LOOP = """
function f(a, b, c, n) {
  var s = 0;
  var t = 1;
  for (var i = 0; i < n; i++) {
    s = s + a * i;
    t = t + b * i + c;
  }
  return s + t;
}
"""


class TestAllocationInvariants:
    def test_every_live_value_has_a_location(self):
        allocation, builder, _gen = allocation_for(LOOP, "f", [(1, 2, 3, 4)])
        from repro.jit.regalloc import REMAT_OPS

        for node in builder.graph.all_nodes():
            if node.dead or not node.produces_value or node.op in REMAT_OPS:
                continue
            assert allocation.location_of(node) is not None, node

    def test_no_location_outside_pools(self):
        allocation, _builder, generator = allocation_for(LOOP, "f", [(1, 2, 3, 4)])
        for assignment in allocation.assignments.values():
            if assignment.kind == "reg":
                assert assignment.index in generator.int_pool
            elif assignment.kind == "freg":
                assert assignment.index in generator.float_pool
            else:
                assert 0 <= assignment.index < max(1, allocation.slot_count)

    def test_spilling_under_pressure(self):
        # Many simultaneously-live values force spills with a 3-register pool.
        allocation, builder, generator = allocation_for(LOOP, "f", [(1, 2, 3, 4)])
        blocks = [b for b in builder.graph.blocks if b.nodes]
        tight = allocate(blocks, generator.int_pool[:3], generator.float_pool)
        assert tight.slot_count > 0

    def test_execution_correct_under_extreme_pressure(self):
        """End-to-end with a tiny register file: spilled code must still
        compute the right answer."""
        from repro.isa.base import TargetISA

        tiny = TargetISA(
            name="arm64", is_cisc=False, has_smi_extension=False, gpr_count=16
        )
        engine = Engine(EngineConfig(target="arm64"))
        engine.target = tiny
        engine.load(LOOP)
        reference = Engine(EngineConfig(tier=Tier.INTERP))
        reference.load(LOOP)
        expected = reference.call_global("f", 2, 3, 4, 10)
        for _ in range(40):
            assert engine.call_global("f", 2, 3, 4, 10) == expected
        shared = next(fn for fn in engine.functions if fn.name == "f")
        assert shared.code is not None
        assert shared.code.stack_slots > 2  # actually spilled


class TestLoopExtension:
    def test_value_defined_before_loop_live_through_it(self):
        source = """
        function f(k, n) {
          var s = 0;
          for (var i = 0; i < n; i++) { s = s + k; }
          return s;
        }
        """
        # If k's interval were not extended across the loop, its register
        # would be reused and iteration 2+ would read garbage.
        engine = Engine(EngineConfig(target="arm64"))
        engine.load(source)
        for _ in range(40):
            assert engine.call_global("f", 7, 10) == 70
