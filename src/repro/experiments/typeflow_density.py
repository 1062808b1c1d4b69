"""Typeflow extension — static vs residual check density, with dynamic
cross-validation.

Not a figure from the paper: this driver quantifies how much of the
paper's Fig. 1 check density is *provably redundant or hoistable* under
the flow-sensitive type-state analysis of
:mod:`repro.analysis.typeflow`, per benchmark and per ISA.  Three
numbers per row:

* ``static`` — all machine-level checks per 100 body instructions (the
  Fig. 1 metric),
* ``residual`` — only the checks the analysis classifies *required*,
* ``dyn elided %`` — the share of dynamic check executions the typed
  block variants and versions actually dropped behind hoisted entry
  guards, measured by running the benchmark pinned to the top tier.

Every row is cross-validated: a check statically classified redundant
that dynamically deoptimized would be a soundness violation and raises.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from ..analysis.typeflow import analyze_typeflow, cross_validate
from ..engine import EngineConfig
from ..machine.ladder import Tier
from ..suite import compile_benchmark
from .common import ExperimentResult, resolve_scale, suite_for_scale


def run(scale="default", targets: Sequence[str] = ("arm64", "x64")) -> ExperimentResult:
    scale = resolve_scale(scale)
    columns = ["benchmark", "category"]
    for target in targets:
        columns += [f"{target} static", f"{target} residual", f"{target} dyn elided %"]
    result = ExperimentResult(
        experiment="typeflow",
        description="static vs residual check density (typeflow analysis)",
        columns=columns,
    )
    reductions = {t: [] for t in targets}
    for spec in suite_for_scale(scale):
        row = {"benchmark": spec.name, "category": spec.category}
        for target in targets:
            config = EngineConfig(target=target, tier=Tier.TRACE)
            engine = compile_benchmark(spec, config, iterations=scale.iterations)
            codes = list(engine._code_objects)
            violations = cross_validate(codes, engine.check_trips)
            if violations:
                raise AssertionError(
                    f"{spec.name} [{target}]: typeflow soundness violation(s): "
                    + "; ".join(d.message for d in violations)
                )
            checks = body = required = 0
            for code in codes:
                analysis = analyze_typeflow(code)
                checks += analysis.counts["checks"]
                required += analysis.counts["required"]
                body += analysis.body_instructions
            typed = engine.typed_check_stats()
            executed = engine.executor.stats.deopt_branch_instrs
            elided = typed["branch_checks_elided"] + typed["smi_tag_tests_elided"]
            reduction = 100.0 * elided / executed if executed else 0.0
            row[f"{target} static"] = 100.0 * checks / body if body else 0.0
            row[f"{target} residual"] = 100.0 * required / body if body else 0.0
            row[f"{target} dyn elided %"] = reduction
            reductions[target].append(reduction)
        result.rows.append(row)
    for target in targets:
        values = reductions[target]
        if values:
            result.notes.append(
                f"{target}: mean {statistics.mean(values):.1f}% of dynamic "
                f"check executions elided by the typed tier "
                f"(range {min(values):.1f}-{max(values):.1f}%)"
            )
    return result
