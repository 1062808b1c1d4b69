"""The executor ladder: one ordered :class:`Tier` and the storm
degradation table over it.

Which executor runs a function is a single number.  Each tier adds one
speculation feature to the tier below it, and a deopt storm sheds them
in the reverse order:

* ``interp`` — the bytecode interpreter only (no optimizing compiles);
* ``opt`` — optimized machine code on the per-instruction step loop;
* ``block`` — fused basic blocks (:mod:`repro.machine.blockjit`);
* ``typed`` — typed block variants behind hoisted entry guards
  (:mod:`repro.analysis.typeflow`), the static baseline LBBV extends;
* ``lbbv`` — lazy basic block versioning (:mod:`repro.machine.lbbv`);
* ``trace`` — hot block chains across back-edges and calls
  (:mod:`repro.machine.tracejit`).

``EngineConfig.tier`` / ``REPRO_TIER`` caps the ladder for a whole
engine (default ``trace``).  Continuation dispatch
(:mod:`repro.machine.continuations`) is not a tier: Deoptless replaces
the bailout rather than adding an executor, so it stays its own switch,
``EngineConfig.continuations``, orthogonal to the ladder.

:data:`DEGRADATION` is the per-function ladder a deopt storm walks.
Each storm or re-optimization budget exhaustion steps one row down; a
row caps the tier and says whether continuations may still dispatch.
The engine stamps ``min(engine tier, row tier)`` on every code object it
compiles, as the plain int ``CodeObject._tier`` that every executor
gate reads.
"""

from __future__ import annotations

import os
from enum import IntEnum
from typing import NamedTuple, Tuple

__all__ = ["DEGRADATION", "Rung", "Tier", "default_tier"]


class Tier(IntEnum):
    """Executor tiers, weakest to strongest speculation."""

    INTERP = 0
    OPT = 1
    BLOCK = 2
    TYPED = 3
    LBBV = 4
    TRACE = 5

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, value: object) -> "Tier":
        """A tier given as a :class:`Tier` or by name (case-insensitive)."""
        if isinstance(value, cls):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            names = ", ".join(tier.label for tier in cls)
            raise ValueError(
                f"unknown tier {value!r}; valid tiers: {names}"
            ) from None


def default_tier() -> Tier:
    """Process-wide tier cap (REPRO_TIER, default ``trace``).

    An unknown name raises :class:`ValueError` listing the valid ones.
    """
    return Tier.parse(os.environ.get("REPRO_TIER") or "trace")


class Rung(NamedTuple):
    """One row of the degradation ladder."""

    name: str
    #: highest tier a function on this rung compiles for
    tier: Tier
    #: may a tripped guard dispatch a continuation instead of bailing out?
    continuations: bool


#: The degradation ladder, top row first.  Only the final row, the
#: permanent interpreter, sets ``optimization_disabled``.
DEGRADATION: Tuple[Rung, ...] = (
    Rung("full", Tier.TRACE, True),
    Rung("no-trace", Tier.LBBV, True),
    Rung("generic-blocks", Tier.BLOCK, True),
    Rung("classic-deopt", Tier.BLOCK, False),
    Rung("stepped", Tier.OPT, False),
    Rung("interpreter", Tier.INTERP, False),
)
