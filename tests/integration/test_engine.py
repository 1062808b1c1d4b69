"""Engine-level integration tests: tiering, accounting, GC under load."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.jit.checks import CheckKind
from repro.machine.ladder import Tier


class TestTiering:
    SOURCE = """
    function hot(n) {
      var s = 0;
      for (var i = 0; i < n; i++) { s = s + i; }
      return s;
    }
    """

    def test_tier_up_after_threshold(self):
        engine = Engine(EngineConfig(tierup_invocations=5))
        engine.load(self.SOURCE)
        shared = next(f for f in engine.functions if f.name == "hot")
        for i in range(4):
            engine.call_global("hot", 10)
            assert shared.code is None
        engine.call_global("hot", 10)
        engine.call_global("hot", 10)
        assert shared.code is not None

    def test_backedge_counter_tiering(self):
        engine = Engine(
            EngineConfig(tierup_invocations=10**9, tierup_backedges=200)
        )
        engine.load(self.SOURCE)
        shared = next(f for f in engine.functions if f.name == "hot")
        engine.call_global("hot", 100000)  # one call, many back edges
        engine.call_global("hot", 10)
        assert shared.code is not None

    def test_optimizer_disabled_stays_interpreted(self):
        engine = Engine(EngineConfig(tier=Tier.INTERP))
        engine.load(self.SOURCE)
        for _ in range(50):
            engine.call_global("hot", 10)
        shared = next(f for f in engine.functions if f.name == "hot")
        assert shared.code is None

    def test_compiled_code_is_faster(self):
        interpreted = Engine(EngineConfig(tier=Tier.INTERP))
        interpreted.load(self.SOURCE)
        optimized = Engine(EngineConfig())
        optimized.load(self.SOURCE)
        for _ in range(30):  # warm
            optimized.call_global("hot", 500)
        start = optimized.total_cycles
        optimized.call_global("hot", 500)
        jit_cost = optimized.total_cycles - start
        start = interpreted.total_cycles
        interpreted.call_global("hot", 500)
        interp_cost = interpreted.total_cycles - start
        assert interp_cost / jit_cost > 2.0  # paper: steady state ~2.5x


class TestAccounting:
    def test_buckets_partition_time(self):
        engine = Engine(EngineConfig())
        engine.load("function f(s) { return s + 'x'; }")
        for _ in range(30):
            engine.call_global("f", "ab")
        total = engine.total_cycles
        assert total > 0
        assert sum(engine.buckets.values()) <= total
        assert engine.buckets["compile"] > 0
        assert engine.buckets["builtin"] > 0
        assert engine.jit_cycles() >= 0

    def test_gc_bucket_charged(self):
        engine = Engine(EngineConfig())
        engine.load("var keep = [1,2,3];")
        engine.run_gc()
        assert engine.buckets["gc"] > 0
        assert engine.heap.gc_stats.collections == 1


class TestGCUnderLoad:
    def test_gc_between_iterations_preserves_state(self):
        source = """
        var table = [0.5, 1.5, 2.5, 3.5];
        var log = "";
        function f(i) {
          log = log + i;
          return table[i % 4] * 2.0;
        }
        """
        engine = Engine(EngineConfig())
        engine.load(source)
        for i in range(60):
            expected = [1.0, 3.0, 5.0, 7.0][i % 4]
            assert engine.call_global("f", i % 4) == expected
            if i % 7 == 0:
                engine.run_gc()
        # Globals incl. the growing string survived every collection.
        assert len(engine.get_global("log")) == 60

    def test_compiled_code_constants_survive_gc(self):
        source = """
        function f() { return "needle"; }
        """
        engine = Engine(EngineConfig())
        engine.load(source)
        for _ in range(20):
            engine.call_global("f")
        shared = next(fn for fn in engine.functions if fn.name == "f")
        assert shared.code is not None
        engine.run_gc()
        assert engine.call_global("f") == "needle"


class TestEngineApi:
    def test_call_global_boxes_arguments(self):
        engine = Engine(EngineConfig())
        engine.load("function f(a, b) { return a[0] + b.k; }")
        assert engine.call_global("f", [10], {"k": 5}) == 15

    def test_get_global(self):
        engine = Engine(EngineConfig())
        engine.load("var answer = 42;")
        assert engine.get_global("answer") == 42
        assert engine.get_global("missing") is None

    def test_unknown_global_call_raises(self):
        from repro.lang.errors import JSTypeError

        engine = Engine(EngineConfig())
        with pytest.raises(JSTypeError):
            engine.call_global("nope")

    def test_multiple_loads_share_globals(self):
        engine = Engine(EngineConfig())
        engine.load("var x = 10;")
        engine.load("function f() { return x * 2; }")
        assert engine.call_global("f") == 20

    def test_32_bit_smi_configuration(self):
        engine = Engine(EngineConfig(smi_bits=32))
        engine.load("function f(x) { return x + 1; }")
        big = 2**30  # overflows 31-bit SMIs, fits 32-bit ones
        for _ in range(30):
            assert engine.call_global("f", big) == big + 1
