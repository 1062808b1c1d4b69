"""Fault plans and injector: determinism, spurious deopts, value preservation."""

from repro.engine import EngineConfig
from repro.machine.ladder import Tier
from repro.resilience import Fault, FaultInjector, FaultKind, FaultPlan, plan_for
from repro.suite.runner import BenchmarkRunner, NoiseModel
from repro.suite.spec import get_benchmark


def quiet_runner(name, **config_kwargs):
    spec = get_benchmark(name)
    return BenchmarkRunner(spec, EngineConfig(**config_kwargs), NoiseModel(enabled=False))


class TestPlans:
    def test_same_arguments_same_plan(self):
        assert plan_for("FIB", 5, 30) == plan_for("FIB", 5, 30)

    def test_seed_changes_plan(self):
        assert plan_for("FIB", 0, 30) != plan_for("FIB", 1, 30)

    def test_benchmark_changes_plan(self):
        a = plan_for("FIB", 0, 30)
        b = plan_for("NBODY", 0, 30)
        assert (a.faults != b.faults) or (a.benchmark != b.benchmark)

    def test_two_anchored_trips(self):
        plan = plan_for("FIB", 0, 30)
        trips = [f for f in plan.faults if f.kind is FaultKind.TRIP_CHECK]
        assert [f.iteration for f in trips] == [10, 20]

    def test_describe_names_every_fault(self):
        plan = plan_for("FIB", 0, 30)
        text = plan.describe()
        for fault in plan.faults:
            assert f"{fault.kind.value}@{fault.iteration}" in text


class TestTripCheck:
    def test_forced_trip_is_a_real_eager_deopt(self):
        plan = FaultPlan("FIB", 0, (Fault(8, FaultKind.TRIP_CHECK),))
        runner = quiet_runner("FIB")
        faulted = runner.run(
            iterations=16, injector=FaultInjector(plan), collect_values=True
        )
        clean = quiet_runner("FIB").run(iterations=16, collect_values=True)
        eager = [d for d in faulted.deopts if d[0] >= 8]
        assert eager, "forced trip produced no eager deopt"
        # The spurious deopt transfers valid state: results are unchanged.
        assert faulted.values == clean.values
        assert faulted.valid

    def test_trip_is_noop_in_interpreter(self):
        plan = FaultPlan("FIB", 0, (Fault(3, FaultKind.TRIP_CHECK),))
        runner = quiet_runner("FIB", tier=Tier.INTERP)
        result = runner.run(iterations=8, injector=FaultInjector(plan), collect_values=True)
        assert result.deopts == []
        assert result.valid


class TestStateFaults:
    def test_every_fault_kind_reports_application(self):
        # NBODY has object and function globals; BITS has SMI globals.
        faults = tuple(
            Fault(4, kind, salt=i) for i, kind in enumerate(FaultKind)
        )
        plan = FaultPlan("NBODY", 0, faults)
        runner = quiet_runner("NBODY")
        injector = FaultInjector(plan)
        result = runner.run(iterations=10, injector=injector, collect_values=True)
        assert len(injector.applied) == len(faults)
        assert result.valid

    def test_faults_preserve_values(self):
        for name in ("NBODY", "BITS", "SPLAY"):
            plan = plan_for(name, 2, 14)
            faulted = quiet_runner(name).run(
                iterations=14, injector=FaultInjector(plan), collect_values=True
            )
            clean = quiet_runner(name).run(iterations=14, collect_values=True)
            assert faulted.values == clean.values, name
            assert faulted.valid, name

    def test_resilience_counters_in_run_result(self):
        plan = plan_for("FIB", 0, 14)
        result = quiet_runner("FIB").run(iterations=14, injector=FaultInjector(plan))
        stats = result.resilience
        assert stats is not None
        eager_total = sum(stats["eager_deopts_by_kind"].values())
        assert eager_total >= 1
        # Forced trips are absorbed by continuation dispatch now — they
        # no longer burn the re-optimization budget.
        assert stats["continuation_dispatches"] >= 1
