"""PC-sampling and attribution tests."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.jit.checks import CheckGroup, CheckKind
from repro.machine.ladder import Tier
from repro.profiling.annotate import annotated_listing
from repro.profiling.attribution import (
    attribute_samples,
    static_check_density,
    truth_check_pcs,
    window_check_pcs,
)
from repro.profiling.sampler import attach_sampler

LOOP_SOURCE = """
var data = [1,2,3,4,5,6,7,8];
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + data[i & 7]; }
  return s;
}
"""


def profiled_engine(target="arm64", iterations=60):
    engine = Engine(EngineConfig(target=target))
    engine.load(LOOP_SOURCE)
    for _ in range(10):
        engine.call_global("f", 64)
    sampler = attach_sampler(engine, period=97.0)
    for _ in range(iterations):
        engine.call_global("f", 64)
    shared = next(fn for fn in engine.functions if fn.name == "f")
    assert shared.code is not None
    return engine, sampler, shared.code


class TestWindowHeuristic:
    def test_deopt_branches_identified_by_target(self):
        _engine, _sampler, code = profiled_engine()
        assignment = window_check_pcs(code, window=2)
        branch_pcs = [
            pc for pc, i in enumerate(code.instrs)
            if i.is_deopt_branch
        ]
        for pc in branch_pcs:
            assert pc in assignment

    def test_window_includes_preceding_instructions(self):
        _engine, _sampler, code = profiled_engine()
        zero = window_check_pcs(code, window=0)
        two = window_check_pcs(code, window=2)
        assert len(two) > len(zero)

    def test_window_does_not_cross_control_flow(self):
        _engine, _sampler, code = profiled_engine()
        from repro.isa.base import MOp

        assignment = window_check_pcs(code, window=3)
        for pc in assignment:
            instr = code.instrs[pc]
            # a plain (non-deopt) branch can never be attributed as check work
            if instr.op in (MOp.B, MOp.RET):
                pytest.fail(f"control-flow instr at {pc} attributed to a check")


class TestGroundTruth:
    def test_truth_excludes_shared_by_default(self):
        _engine, _sampler, code = profiled_engine()
        without = truth_check_pcs(code, count_shared=False)
        with_shared = truth_check_pcs(code, count_shared=True)
        assert set(without) <= set(with_shared)

    def test_heuristic_and_truth_overlap(self):
        _engine, _sampler, code = profiled_engine()
        heuristic = set(window_check_pcs(code, code.target.check_window))
        truth = set(truth_check_pcs(code, count_shared=True))
        overlap = len(heuristic & truth) / max(1, len(truth))
        assert overlap > 0.5  # same phenomenon, imperfect estimator


class TestSampling:
    def test_samples_collected_and_attributed(self):
        _engine, sampler, _code = profiled_engine()
        assert sampler.total_samples > 50
        result = attribute_samples(sampler, "window")
        assert 0.0 < result.overhead < 1.0
        assert result.jit_share > 0.2

    def test_overhead_by_group_sums_to_total(self):
        _engine, sampler, _code = profiled_engine()
        result = attribute_samples(sampler, "window")
        assert sum(result.by_group().values()) == pytest.approx(result.overhead)

    def test_estimated_speedup_formula(self):
        _engine, sampler, _code = profiled_engine()
        result = attribute_samples(sampler, "window")
        assert result.estimated_speedup == pytest.approx(
            1.0 / (1.0 - result.overhead)
        )

    def test_other_samples_counted(self):
        engine = Engine(EngineConfig(tier=Tier.INTERP))
        engine.load(LOOP_SOURCE)
        sampler = attach_sampler(engine, period=50.0)
        engine.call_global("f", 64)
        # No JIT code at all: every sample is "other".
        assert sampler.total_samples > 0
        assert sampler.other_samples == sampler.total_samples


class TestStaticDensity:
    def test_density_positive_and_bounded(self):
        _engine, _sampler, code = profiled_engine()
        density = static_check_density(code)
        assert 0 < density < 50

    def test_x64_denser_than_arm64(self):
        """Same checks over fewer CISC instructions (paper Fig. 1)."""
        _e1, _s1, x64_code = profiled_engine(target="x64")
        _e2, _s2, arm_code = profiled_engine(target="arm64")
        assert static_check_density(x64_code) >= static_check_density(arm_code)


class TestAnnotatedListing:
    def test_listing_renders_with_markers(self):
        _engine, sampler, code = profiled_engine()
        listing = annotated_listing(code, sampler)
        assert "<- check" in listing
        assert "deopt branch" in listing
        assert "samples" in listing.splitlines()[1]
