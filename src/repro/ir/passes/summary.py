"""Per-pass check-count provenance for the optimization pipeline.

The typeflow CLI (`python -m repro.analysis typeflow`) reports how many
machine-level checks the static analysis can prove away *after* the IR
pipeline already did its own check hoisting/elimination.  To make that
comparison honest, the pipeline records how many live check nodes each
pass left behind; :mod:`repro.jit.codegen` attaches the finished record
to ``CodeObject.ir_check_summary`` so the machine-level number has its
IR-level provenance next to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class CheckSummary:
    """Live check-node counts after each pipeline pass, in order."""

    #: (pass name, live check-node count, counts per CheckKind name)
    stages: List[Tuple[str, int, Dict[str, int]]] = field(default_factory=list)

    def record(self, phase: str, graph) -> None:
        by_kind: Dict[str, int] = {}
        total = 0
        for block in graph.blocks:
            for node in block.nodes:
                if getattr(node, "dead", False) or node.check_kind is None:
                    continue
                total += 1
                name = node.check_kind.name
                by_kind[name] = by_kind.get(name, 0) + 1
        self.stages.append((phase, total, by_kind))

    @property
    def initial_checks(self) -> int:
        return self.stages[0][1] if self.stages else 0

    @property
    def final_checks(self) -> int:
        return self.stages[-1][1] if self.stages else 0

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"pass": phase, "checks": total, "by_kind": dict(sorted(by_kind.items()))}
            for phase, total, by_kind in self.stages
        ]


__all__ = ["CheckSummary"]
