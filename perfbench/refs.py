"""Reference outputs the benchmark checks every operation against.

An operation fails if it raises, if a result differs from its reference
value, or if its digest of simulated cycles, retired instructions and
deopt stream differs from the recorded one.  Reference values come from
the spec's ``expected`` value where one is set, and otherwise from the
``interp`` rung of the executor ladder, which shares no code with the
tiers under test.  ``python3 perfbench/run.py --record`` regenerates the
files under ``perfbench/refs/``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

REFS_DIR = Path(__file__).resolve().parent / "refs"


def digest(*parts: object) -> str:
    text = json.dumps(parts, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def sim_digest(engine, cycles0: float = 0.0, instructions0: int = 0,
               deopts0: int = 0) -> str:
    """Digest of the simulated work an engine did since the given marks."""
    events = [
        (e.iteration, e.function_name, e.kind.name, e.bytecode_pc, e.check_id, e.cycle)
        for e in engine.deopt_events[deopts0:]
    ]
    return digest(
        float(engine.total_cycles - cycles0).hex(),
        engine.executor.stats.instructions - instructions0,
        events,
    )


def load(workload: str) -> Dict[str, object]:
    return json.loads((REFS_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def save(workload: str, data: Dict[str, object]) -> None:
    REFS_DIR.mkdir(parents=True, exist_ok=True)
    path = REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


class Checker:
    """Counts operations and the ones that failed their checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def error(self, label: str, failure: BaseException) -> None:
        self.op(label, [f"raised {type(failure).__name__}: {failure}"])
