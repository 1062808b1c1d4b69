"""perf-style PC sampling over simulated execution.

The paper's first overhead-estimation method (Section III-A) samples the
program counter and counts the samples that land on instructions belonging
to deoptimization checks.  Our sampler is driven by the simulated cycle
clock: every ``period`` cycles it records where execution currently is —
inside a JIT code object (at which pc), or elsewhere (interpreter,
builtins, GC), mirroring perf's whole-process sampling.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Tuple

from ..jit.codegen import CodeObject


def window_straddles_tick(next_due: float, window_end: float) -> bool:
    """Does a sample tick land inside a cycle window ending at
    ``window_end``?

    This is the contract between the sampler and the block-compiled
    executor (:mod:`repro.machine.blockjit`): a fused block whose exit
    cycle count stays strictly below the next sample due point
    (:meth:`repro.machine.executor.Executor.next_sample_due`) cannot
    contain a tick — per-instruction cycle counts within a block are
    non-negative partial sums of the block total, and float addition of
    non-negative terms is weakly monotonic, so no interior instruction
    can reach the due point if the block's last one does not.  Blocks
    that may straddle a tick must run the per-instruction stepped tier so
    the sample is attributed to the exact pc the step loop would charge.
    """
    return window_end >= next_due


class PCSampler:
    """Accumulates PC samples, keyed by (code object, pc)."""

    def __init__(self) -> None:
        #: samples per (id(code), pc); keeps the code object alive
        self.jit_samples: DefaultDict[Tuple[int, int], int] = defaultdict(int)
        self._code_by_id: Dict[int, CodeObject] = {}
        self.other_samples = 0
        self.total_samples = 0

    # Executor-facing API -------------------------------------------------

    def record_jit(self, code: CodeObject, pc: int) -> None:
        self.jit_samples[(id(code), pc)] += 1
        self._code_by_id[id(code)] = code
        self.total_samples += 1

    def record_other(self) -> None:
        self.other_samples += 1
        self.total_samples += 1

    # Queries --------------------------------------------------------------

    def samples_by_code(self) -> Dict[CodeObject, Dict[int, int]]:
        per_code: Dict[CodeObject, Dict[int, int]] = {}
        for (code_id, pc), count in self.jit_samples.items():
            code = self._code_by_id[code_id]
            per_code.setdefault(code, {})[pc] = count
        return per_code


def attach_sampler(engine, period: float = 467.0) -> PCSampler:
    """Install a sampler on an engine; returns it.

    The default period is an odd number of cycles so samples do not phase-
    lock with loop bodies (the same reason perf uses non-round frequencies).
    """
    sampler = PCSampler()
    engine.executor.set_sampling(sampler, period)
    return sampler
