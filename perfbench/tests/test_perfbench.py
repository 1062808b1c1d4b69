"""Tests of the benchmark itself: metric names, self-time arithmetic and
seed determinism.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import spans  # noqa: E402
from perfbench.spans import SpanRecorder, self_times, wrap  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_counts(spec):
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert 2 <= len(spec["workloads"]) <= 8
    names = [m["name"] for m in end_to_end + per_layer] + [
        w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(m["name"] for m in end_to_end + per_layer)) == len(end_to_end + per_layer)
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_emitted_metrics_match_declaration(spec):
    from perfbench import run
    from perfbench.workloads import Outcome

    outcome = Outcome(setup_reps=[1.0], rounds=[2.0], iter_s=[0.001, 0.002])
    assert set(run.end_to_end(outcome, 0.5)) == {m["name"] for m in spec["end_to_end"]}
    layers = run.per_layer(SpanRecorder(), outcome, 0.0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}


def test_self_time_of_a_recursive_nest():
    # A[0,100] > B[10,60] > A[20,50] > B[30,40];  A[0,100] > B[70,90]
    parent = [-1, 0, 1, 2, 0]
    start = [0, 10, 20, 30, 70]
    end = [100, 60, 50, 40, 90]
    assert self_times(parent, start, end).tolist() == [30, 20, 20, 10, 20]
    # Self times tile the root interval exactly once.
    assert sum(self_times(parent, start, end)) == 100


def test_overlapping_children_are_covered_once():
    parent = [-1, 0, 0, 0]
    start = [0, 10, 40, 45]
    end = [100, 50, 80, 60]
    # union of [10,50], [40,80], [45,60] is [10,80]: 70 covered
    assert self_times(parent, start, end).tolist()[0] == 30


def test_recorder_on_mutual_recursion(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(ticks))
    recorder = SpanRecorder()

    def ping(n):
        return pong(n - 1) if n else 0

    def pong(n):
        return ping(n - 1) if n else 0

    ping = wrap(recorder, "ping", ping)
    pong = wrap(recorder, "pong", pong)
    ping(4)
    # Five nested spans open at ticks 0..40 and close at 50..90: each
    # owns the 10 ns before its child opens and after it closes, the
    # innermost its whole 10 ns.
    totals = recorder.totals()
    assert totals["ping"][0] == pytest.approx(50e-9)
    assert totals["ping"][1] == 3
    assert totals["pong"][0] == pytest.approx(40e-9)
    assert totals["pong"][1] == 2
    assert sum(own for own, _calls in totals.values()) == pytest.approx(90e-9)


HELPER = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import refs, workloads
from repro.engine import Engine, EngineConfig
from repro.resilience.faults import plan_for
from repro.suite.spec import get_benchmark

plans = [(name, plan.describe()) for name, plan in workloads.storm_ops()]
plan = plan_for("FIB", workloads.STORM_PLAN_SEEDS[-1], workloads.STORM_ITERATIONS)
_result, engine = workloads._storm_run(get_benchmark("FIB"), EngineConfig(), plan)
engine2 = workloads._warm_engine(get_benchmark("STR-BUILD"), EngineConfig(target="x64"),
                                 workloads.COLDSTART_ITERATIONS)
print(json.dumps({{"plans": plans, "order": workloads.steady_order(7),
                  "storm": refs.sim_digest(engine),
                  "plan_seed": plan.seed, "coldstart": refs.sim_digest(engine2)}}))
"""


def test_same_seed_same_plans_and_digests_across_hash_seeds():
    code = HELPER.format(src=str(ROOT / "src"), root=str(ROOT))
    outputs = []
    for hash_seed in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = hash_seed
        env["REPRO_BUNDLES"] = "0"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=env, cwd=str(ROOT))
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    from perfbench import refs

    stored = refs.load("storm")[f"FIB/{outputs[0]['plan_seed']}"]
    assert outputs[0]["storm"] == stored["sim"]
    assert outputs[0]["coldstart"] == refs.load("coldstart")["digests"]["STR-BUILD/x64"]
