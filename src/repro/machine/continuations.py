"""Deoptless re-dispatch: specialized continuations instead of bailout.

Following "Deoptless: Speculation with Dispatched On-Stack Replacement
and Specialized Continuations" (arXiv 2203.02340): when a typed guard or
deopt check fails, the engine does not have to abandon optimized
execution — it can *dispatch* into a continuation specialized for the
type-state it just observed (the failing guard's fact, negated) and
resume mid-loop with the machine state carried over.  The LBBV line
(arXiv 1411.0352) supplies the versioning vocabulary: continuations are
keyed by the same facts :mod:`repro.analysis.typeflow` proves for the
typed block variants, so its ``TypedBlockPlan`` lattice pre-seeds the
variant table with every guard state the static analysis already named.

This module owns the *policy* state of that mechanism: the
:class:`ContinuationTable` — per-``(function, dispatch pc, type-state
token)`` variant registry with lazy first-miss compilation, seeded
entries from the typeflow lattice, eviction scoped to the storming
token (a storm on one type-state must not evict variants that never
tripped), and a cycle-budget re-dispatch breaker proving
livelock-freedom.  Which degradation-ladder rungs may still dispatch is
a column of the table in :mod:`repro.machine.ladder`.

The *mechanism* — deciding dispatch vs. classic bailout, charging
cycles, transferring register/spill state — lives in
:meth:`repro.engine.Engine._deoptimize`, which is reached with
bit-identical state from every executor tier, so continuation
behavior is deterministic and tier-invariant by construction (the
186-config cross-tier sweep stays bit-identical).

At this simulator's abstraction level a dispatched continuation's body
is realized as the generic completion of the activation from the deopt
program point (the same state transfer the interpreter tail performs),
charged at re-entry cost instead of the 250-cycle stack-frame
conversion; see DESIGN.md §13 for the fidelity argument.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "DISPATCH_CYCLES",
    "CONTINUATION_COMPILE_CYCLES",
    "ContinuationTable",
    "continuation_token",
    "default_continuations",
    "fact_holds",
    "resolve_redispatch_budget",
]

#: simulated cycles charged per dispatched re-entry (vs. the 250-cycle
#: interpreter stack-frame conversion a classic bailout pays): the
#: continuation re-enters machine-level execution with registers in
#: place, paying only the variant lookup + indirect jump.
DISPATCH_CYCLES = 40

#: extra simulated cycles charged once per lazily compiled continuation
#: (first miss of a (pc, token) key): specializing an existing block
#: body for one flipped fact, far cheaper than a full re-optimization.
CONTINUATION_COMPILE_CYCLES = 120


def default_continuations() -> bool:
    """Process-wide default for continuation dispatch (REPRO_CONTINUATIONS,
    on unless explicitly disabled)."""
    return os.environ.get("REPRO_CONTINUATIONS", "1").lower() not in (
        "0", "false", "off", "no",
    )


def resolve_redispatch_budget() -> float:
    """Cycle budget of the re-dispatch breaker (REPRO_CONT_BUDGET).

    A consecutive-dispatch streak (no intervening clean machine exit)
    that accumulates more simulated cycles than this is refused further
    dispatch and falls back to the classic bailout path — the ladder's
    strike counters then see the deopt.  This is the livelock proof: a
    fault plan flipping the same guard on every dispatch terminates
    because each dispatch charges at least :data:`DISPATCH_CYCLES`, so
    the streak reaches the budget in at most ``budget / DISPATCH_CYCLES``
    re-entries.
    """
    raw = os.environ.get("REPRO_CONT_BUDGET", "")
    try:
        value = float(raw) if raw else 2000.0
    except ValueError:
        value = 2000.0
    return max(value, float(DISPATCH_CYCLES))


# ---------------------------------------------------------------------------
# Fact evaluation (mirror of blockjit._guard_test, pass-polarity)
# ---------------------------------------------------------------------------

_UINT32 = 0xFFFFFFFF


def fact_holds(fact, regs: List[int], heap_words) -> Optional[bool]:
    """Evaluate a typeflow fact against observed machine state.

    Pass-polarity mirror of the generated guard tests in
    :meth:`repro.machine.blockjit._Codegen._guard_test` — True when the
    fact holds on ``(regs, heap)``, False when it fails, None when the
    fact is outside the language or the state cannot be read (the
    caller then skips the audit rather than guessing).
    """
    try:
        tag = fact[0]
        if tag == "par":
            return (regs[fact[1]] & 1) == fact[2]
        if tag == "regeq":
            return regs[fact[1]] == fact[2]
        if tag == "map":
            word = heap_words[(regs[fact[1]] >> 1) + fact[2]]
            return word == fact[3]
        if tag == "ub":
            idx, base, disp = fact[1], fact[2], fact[3]
            length = heap_words[(regs[base] >> 1) + disp]
            return isinstance(length, int) and (
                (regs[idx] & _UINT32) < (length & _UINT32)
            )
        if tag == "memsmi":
            base, idx, scale, disp = fact[1], fact[2], fact[3], fact[4]
            addr = (regs[base] >> 1) + disp
            if idx >= 0:
                addr += regs[idx] << scale
            word = heap_words[addr]
            return isinstance(word, int) and not (word & 1)
    except (IndexError, TypeError):
        return None
    return None


def continuation_token(code, check_id: int) -> str:
    """Type-state token of the continuation a failing check dispatches to.

    The token names the *negated* guard fact — the type-state the engine
    just observed — rendered through the same vocabulary typeflow's
    classifications speak, so seeded lattice entries and dynamically
    discovered states share one namespace.  Checks whose condition has
    no fact in the analysis language fall back to the check kind: one
    generic continuation per kind.
    """
    from ..analysis.typeflow import analyze_typeflow, render_fact

    verdict = analyze_typeflow(code).classifications.get(check_id)
    if verdict is not None and verdict.fact is not None:
        return "!" + render_fact(verdict.fact)
    point = code.deopt_points.get(check_id)
    return "!" + (point.kind.name if point is not None else f"check{check_id}")


def dispatch_fact(code, check_id: int):
    """The failing guard's fact (or None) for sentinel re-evaluation."""
    from ..analysis.typeflow import analyze_typeflow

    verdict = analyze_typeflow(code).classifications.get(check_id)
    return verdict.fact if verdict is not None else None


# ---------------------------------------------------------------------------
# Variant table
# ---------------------------------------------------------------------------


class ContinuationTable:
    """Registry of specialized continuations plus the breaker state.

    Keys are ``(shared.index, bytecode_pc, token)`` — deliberately
    independent of ``code.serial``, so variants survive the recompiles
    the classic path still performs and a re-tiered function re-enters
    its warm variant set instead of rediscovering it one miss at a time.
    """

    def __init__(self, budget: float) -> None:
        self.budget = float(budget)
        #: (shared_index, bytecode_pc, token) -> dispatch count
        self.variants: Dict[Tuple[int, int, str], int] = {}
        #: keys pre-registered from the typeflow TypedBlockPlan lattice
        self.seeded: Set[Tuple[int, int, str]] = set()
        #: code serials whose lattice has been harvested already
        self._seeded_serials: Set[int] = set()
        #: shared_index -> [consecutive dispatches, streak cycles];
        #: cleared by a clean machine exit (Engine.call_shared)
        self.streaks: Dict[int, List[float]] = {}
        #: functions whose continuations the sentinel poisoned — a
        #: spurious dispatch (guard fact still held) demotes the whole
        #: function back to classic bailouts; the classic path is always
        #: safe, so this fails closed.
        self.demoted: Set[int] = set()
        #: pending forced lookup misses (POISON_VARIANT fault): the next
        #: N lookups evict their key and take the lazy-recompile path
        self.poison_misses = 0
        #: pending re-arms of the forced-trip flag (REDISPATCH_LOOP
        #: fault): each dispatch re-arms one trip until exhausted — the
        #: breaker must terminate the loop, not the fault running dry
        self.loop_armed = 0
        # -- counters surfaced via Engine.resilience_stats() -----------
        self.dispatches = 0
        self.lazy_compiles = 0
        self.seeded_hits = 0
        self.breaker_trips = 0
        self.evictions = 0
        self.poisoned_lookups = 0
        self.spurious_dispatches = 0

    # -- seeding -------------------------------------------------------

    def seed(self, shared_index: int, code) -> None:
        """Harvest the typeflow lattice of ``code`` once: every fact a
        ``TypedBlockPlan`` guards on names a type-state whose *negation*
        is a continuation the dispatcher may need — register those keys
        up front so the first real dispatch into one is a seeded hit,
        not a lazy compile."""
        serial = getattr(code, "serial", -1)
        if serial in self._seeded_serials:
            return
        self._seeded_serials.add(serial)
        from ..analysis.typeflow import analyze_typeflow, render_fact

        result = analyze_typeflow(code)
        points = getattr(code, "deopt_points", {}) or {}
        for plan in result.plans.values():
            point = points.get(plan.check_id)
            if point is None:
                continue
            for fact in (plan.fact,) + tuple(plan.guards):
                key = (shared_index, point.bytecode_pc, "!" + render_fact(fact))
                if key not in self.variants:
                    self.variants[key] = 0
                    self.seeded.add(key)

    # -- dispatch ------------------------------------------------------

    def allow(self, shared_index: int) -> bool:
        """Breaker check: may this function dispatch again right now?"""
        streak = self.streaks.get(shared_index)
        return streak is None or streak[1] < self.budget

    def dispatch_cost(self, shared_index: int, bytecode_pc: int,
                      token: str) -> float:
        """Resolve (or lazily compile) the variant for one dispatch and
        return the simulated cycles the dispatch costs.  Updates the
        variant registry and its counters."""
        key = (shared_index, bytecode_pc, token)
        cost = float(DISPATCH_CYCLES)
        if self.poison_misses > 0 and key in self.variants:
            # Poisoned lookup: the cached variant is treated as lost and
            # recompiled on the spot — the dispatch still succeeds.
            self.poison_misses -= 1
            self.poisoned_lookups += 1
            self.seeded.discard(key)
            del self.variants[key]
            self.evictions += 1
        if key not in self.variants:
            self.variants[key] = 0
            self.lazy_compiles += 1
            cost += float(CONTINUATION_COMPILE_CYCLES)
        elif key in self.seeded and self.variants[key] == 0:
            self.seeded_hits += 1
        self.variants[key] += 1
        return cost

    def note_dispatch(self, shared_index: int, cycles: float) -> None:
        """Account one completed dispatch against the function's streak."""
        self.dispatches += 1
        streak = self.streaks.get(shared_index)
        if streak is None:
            self.streaks[shared_index] = [1, float(cycles)]
        else:
            streak[0] += 1
            streak[1] += float(cycles)

    def reset_streak(self, shared_index: int) -> None:
        self.streaks.pop(shared_index, None)

    # -- eviction ------------------------------------------------------

    def evict_token(self, shared_index: int, token: str) -> int:
        """Drop every variant of one storming type-state, leaving the
        function's other continuations untouched (the ladder contract:
        a storm on one type-state must not evict variants that never
        tripped)."""
        doomed = [
            key for key in self.variants
            if key[0] == shared_index and key[2] == token
        ]
        for key in doomed:
            del self.variants[key]
            self.seeded.discard(key)
        self.evictions += len(doomed)
        return len(doomed)

    def evict_function(self, shared_index: int) -> int:
        """Drop every variant of a function (terminal ladder rung)."""
        doomed = [key for key in self.variants if key[0] == shared_index]
        for key in doomed:
            del self.variants[key]
            self.seeded.discard(key)
        self.evictions += len(doomed)
        return len(doomed)

    def poison(self, shared_index: int) -> None:
        """Sentinel demotion: stop dispatching for this function."""
        self.demoted.add(shared_index)

    # -- observability -------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "dispatches": self.dispatches,
            "lazy_compiles": self.lazy_compiles,
            "seeded_hits": self.seeded_hits,
            "seeded_variants": len(self.seeded),
            "variants": len(self.variants),
            "breaker_trips": self.breaker_trips,
            "evictions": self.evictions,
            "poisoned_lookups": self.poisoned_lookups,
            "spurious_dispatches": self.spurious_dispatches,
            "demoted_functions": len(self.demoted),
        }
