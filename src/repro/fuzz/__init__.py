"""Generative speculation fuzzing: a differential correctness fleet.

The suite's 31 frozen programs exercise the speculative executor ladder
(blocks → typed blocks → lbbv versions → traces, plus deoptless
continuations) along a fixed set of paths.  This package turns the
differential-oracle + crash-bundle machinery into a *continuous*
correctness fleet:

* :mod:`repro.fuzz.generator` — a seeded, fully deterministic random
  program generator for the ``repro.lang`` JS subset, biased toward
  speculation-relevant idioms (polymorphic call sites, shape mutation
  on live objects, SMI/double boundary arithmetic, packed/holey
  elements transitions, hot loops with type-unstable phis);
* :mod:`repro.fuzz.oracle` — runs every generated program through the
  full executor ladder (:data:`repro.resilience.oracle.EXECUTOR_LADDER`)
  on both ISAs and demands bitwise-identical results, globals snapshots
  and deopt-event streams; divergences become replayable
  ``fuzz-divergence`` crash bundles;
* :mod:`repro.fuzz.minimize` — an AST-level shrinker over
  :func:`repro.lang.unparse.unparse` that reduces a divergent program
  while the divergence still reproduces;
* :mod:`repro.fuzz.corpus` — survivors with interesting static/dynamic
  profiles graduate into ``results/corpus/``, which the chaos CLI
  replays as an extended suite (``python -m repro.resilience --corpus``).

Driven by ``python -m repro.resilience fuzz --seed/--count/--budget/--jobs``.
"""

from .generator import FuzzConfig, FuzzProgram, fuzz_case_seed, generate_program
from .oracle import FuzzVerdict, run_fuzz_program

__all__ = [
    "FuzzConfig",
    "FuzzProgram",
    "FuzzVerdict",
    "fuzz_case_seed",
    "generate_program",
    "run_fuzz_program",
]
