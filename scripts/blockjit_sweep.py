"""Full differential sweep: all three executor tiers must be byte-identical.

Runs every benchmark on both ISAs in three modes (plain, PC-sampled,
fault-injected) and asserts bitwise-identical results, cycle totals,
per-pc sample counts and deopt records between the step loop (tier
``opt``), the block-compiled executor (tier ``lbbv``) and the trace tier
(``trace``).  Every tier is pinned in code, so the block side always
runs typed block variants (repro.analysis.typeflow plans) and lazy
block versions (repro.machine.lbbv), and the sweep is also the
acceptance oracle for check elision — including the trace tier's
*chain* guard elision and lbbv's guard-free version chaining: a typed
variant, a stitched chain, a specialized version body or a rechained
edge that drops a check it should not drop diverges here.  The trace
tier runs with low promotion thresholds (REPRO_TRACEJIT_* set below) so
chains actually form and execute within the 20-iteration cells.  CI
runs the same oracle on the smoke subset via
tests/machine/test_tracejit_diff.py; this script is the exhaustive
acceptance sweep (about 15 minutes of CPU).

Usage: PYTHONPATH=src python scripts/blockjit_sweep.py
"""

import os
import sys

# Must be set before any engine is built: low thresholds so the trace
# tier promotes within short sweep cells instead of idling in counting.
os.environ.setdefault("REPRO_TRACEJIT_BUDGET", "400")
os.environ.setdefault("REPRO_TRACEJIT_HOT", "8")
os.environ.setdefault("REPRO_TRACEJIT_ENTRY", "8")

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier
from repro.profiling.sampler import attach_sampler
from repro.resilience.faults import FaultInjector, plan_for
from repro.suite.runner import BenchmarkRunner
from repro.suite.spec import all_benchmarks

ITERATIONS = 20
SAMPLE_PERIOD = 467.0

#: sweep mode -> executor tier
TIERS = {
    "step": Tier.OPT,
    "block": Tier.LBBV,
    "trace": Tier.TRACE,
}


def plain_or_injected(spec, target, tier, inject):
    config = EngineConfig(target=target, tier=TIERS[tier])
    runner = BenchmarkRunner(spec, config)
    injector = (
        FaultInjector(plan_for(spec.name, seed=7, iterations=ITERATIONS))
        if inject
        else None
    )
    r = runner.run(iterations=ITERATIONS, injector=injector)
    return {
        "result": r.result,
        "cycles": r.total_cycles,
        "deopts": r.deopts,
        "hw": r.hw_stats,
    }


def sampled(spec, target, tier):
    engine = Engine(EngineConfig(target=target, tier=TIERS[tier]))
    engine.load(spec.source)
    engine.call_global("setup")
    for i in range(8):
        engine.current_iteration = i
        engine.call_global("run")
    sampler = attach_sampler(engine, SAMPLE_PERIOD)
    values = []
    for i in range(ITERATIONS):
        engine.current_iteration = 8 + i
        values.append(engine.call_global("run"))
    # Normalize sample keys: id(code) differs across engines, but both
    # runs register code objects in the same deterministic order.
    order = {cid: n for n, cid in enumerate(sampler._code_by_id)}
    samples = sorted(
        ((order[cid], pc), count)
        for (cid, pc), count in sampler.jit_samples.items()
    )
    return {
        "values": values,
        "cycles": engine.executor.cycles,
        "samples": samples,
        "other": sampler.other_samples,
    }


def main():
    failures = []
    for spec in all_benchmarks():
        for target in ("arm64", "x64"):
            for mode in ("plain", "sample", "inject"):
                if mode == "sample":
                    runs = {tier: sampled(spec, target, tier)
                            for tier in TIERS}
                else:
                    runs = {
                        tier: plain_or_injected(
                            spec, target, tier, mode == "inject")
                        for tier in TIERS
                    }
                tag = f"{spec.name}/{target}/{mode}"
                step = runs["step"]
                bad = [t for t in ("block", "trace") if runs[t] != step]
                if not bad:
                    print(f"ok   {tag}", flush=True)
                else:
                    failures.append(tag)
                    print(f"FAIL {tag} ({', '.join(bad)})", flush=True)
                    for tier in bad:
                        for key in step:
                            if step[key] != runs[tier][key]:
                                print(f"     {key}: step={step[key]!r}",
                                      flush=True)
                                print(f"     {key}: {tier}="
                                      f"{runs[tier][key]!r}", flush=True)
    print(f"\n{len(failures)} divergent configurations", flush=True)
    if failures:
        for tag in failures:
            print("  ", tag)
        sys.exit(1)


if __name__ == "__main__":
    main()
