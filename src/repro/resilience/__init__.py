"""Speculation fault injection and crash-tolerant measurement.

The paper's cost model (Sections III–IV) assumes that deoptimization is a
*correct* graceful-degradation path: a failed check reconstructs the
interpreter frame and execution continues with identical semantics.
Flückiger et al. show this transfer of state is exactly where speculative
JITs go wrong, and *Deoptless* motivates handling repeated deopts
gracefully instead of thrashing.  This package tests both properties on
the live engine:

* :mod:`~repro.resilience.faults` — deterministic, seedable
  :class:`FaultPlan`\\ s that perturb live benchmark state between
  iterations (SMI→double boxing, hidden-class transitions, elements-kind
  generalization, call-target rebinding, assumption invalidation, and
  forced spurious deopts);
* :mod:`~repro.resilience.oracle` — a differential oracle asserting the
  post-deopt results and heap of every executor-ladder rung are
  bitwise-identical to a pure-interpreter run under the same fault plan;
* ``python -m repro.resilience`` — the chaos CLI sweeping the injector
  across the whole suite on both ISAs.

Grid-level resilience (per-cell timeouts, crashed-worker retry,
quarantine, ``--keep-going``) lives in :mod:`repro.exec`.
"""

from .faults import Fault, FaultInjector, FaultKind, FaultPlan, plan_for
from .oracle import ChaosOutcome, canonical_value, matrix_run, snapshot_globals

__all__ = [
    "ChaosOutcome",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "canonical_value",
    "matrix_run",
    "plan_for",
    "snapshot_globals",
]
