"""Functional simulator for the modelled ISAs.

Executes :class:`~repro.jit.codegen.CodeObject` instructions against the
simulated heap, with:

* ARM-style flags (N/Z/C/V); flag-setting arithmetic reports *SMI-range*
  overflow, mirroring V8's tagged-arithmetic overflow behaviour (a 32-bit
  ``adds`` on tagged words overflows exactly when the 31-bit payload does);
* a pluggable fast timing model (per-class costs + branch predictor), the
  "runs on real silicon" proxy for Sections III-IV;
* optional instruction tracing for the detailed pipeline models (the gem5
  proxy for Section V);
* cycle-driven PC sampling for the perf-style profiler;
* deoptimization: taken deopt branches raise :class:`DeoptSignal`; the
  SMI-extension's ``jsldrsmi`` instead sets REG_RE/REG_PC and triggers the
  bailout at commit time, as in the paper's Fig. 12 datapath.

Each activation gets a fresh register file (register-window style), which
lets the simulator avoid modelling callee-save traffic; call costs are
charged as a lump sum instead.

Execution has two drivers (see DESIGN.md "Two-tier executor"):

* the **step loop** (:meth:`Executor._run_steps`) retires one decoded
  instruction per iteration and *defines* the timing/sampling semantics;
* the **block driver** (:func:`repro.machine.tracejit.run_blocks`, over
  closures built by :mod:`repro.machine.blockjit`) runs every tier from
  ``block`` up.  It retires whole basic blocks through fused closures
  (or hot chains of them through traces, at ``trace``), charging each
  block's precomputed cycle total in one add, and bails to a per-block
  stepped variant whenever per-instruction fidelity is required (a PC
  sample due inside the block, or a pending injected deopt trip).
  Tracing for the pipeline models disables block mode entirely, and
  code whose condition flags cross a block boundary runs on the step
  loop at every tier.  Both drivers share the block-relative cycle
  prefixes computed by :func:`repro.machine.dispatch.decode`, so
  results, cycle totals, sample attributions and deopt pcs are
  bit-identical between them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..isa.base import MOp, REG_PC, REG_RE  # noqa: F401  (REG_RE: public re-export)
from ..jit.codegen import THIS_REG, CodeObject
from ..jit.deopt import DeoptSignal
from ..values.heap import Heap
from .dispatch import (
    K_ADDS,
    K_ADDSI,
    K_ALU_RI,
    K_ALU_RR,
    K_ASRI,
    K_B,
    K_BCC,
    K_CALL_DYN,
    K_CALL_JS,
    K_CALL_RT,
    K_CMP,
    K_CMP_MEM,
    K_CMPI,
    K_CMPI_MEM,
    K_CSET,
    K_DEOPT,
    K_FALU_R,
    K_FALU_RR,
    K_FCMP,
    K_FCVTZS,
    K_FDIV,
    K_FMOVI,
    K_FMOVR,
    K_JSLDRSMI,
    K_LDR,
    K_LDR_FRAME,
    K_LDR_IDX,
    K_LDRF,
    K_LDRF_FRAME,
    K_LSLI,
    K_MOVI,
    K_MOVR,
    K_MSR,
    K_MULS,
    K_MZCMP,
    K_NEGS,
    K_RET,
    K_SCVTF,
    K_STR,
    K_STR_FRAME,
    K_STRF,
    K_STRF_FRAME,
    K_SUBS,
    K_SUBSI,
    K_TST,
    K_TSTI,
    K_TSTI_MEM,
    decode,
)
from .ladder import Tier

_UINT32 = 0xFFFFFFFF

#: the ladder gate as a plain int, the type of ``CodeObject._tier``
_BLOCK = int(Tier.BLOCK)


def _block_driver(executor, code, args, this_word):
    """Stand-in for :func:`repro.machine.tracejit.run_blocks` until the
    first block-tier activation, which imports the driver, puts it in
    this name's place and calls it.  Importing tracejit with this module
    would load it and blockjit into every engine import."""
    global _block_driver
    from .tracejit import run_blocks

    _block_driver = run_blocks
    return run_blocks(executor, code, args, this_word)


class CostModel:
    """Per-instruction-class cycle costs for the fast timing model.

    Calibrated to an out-of-order server core: *amortized* costs, i.e. the
    marginal cycles an extra instruction of that class adds to a wide O3
    pipeline.  Independent single-cycle ALU work (the bulk of check
    conditions) is largely absorbed by spare issue slots, so its amortized
    cost is well below one cycle; loads, stores, FP and division carry the
    real latencies; mispredicted branches pay a full redirect.  This is the
    property the paper's Section IV-B leans on: rarely-taken, correctly
    predicted deopt branches are nearly free, while condition computations
    still occupy real resources.
    """

    __slots__ = (
        "alu",
        "mov",
        "load",
        "store",
        "float_alu",
        "float_div",
        "int_div",
        "branch",
        "taken_extra",
        "mispredict_penalty",
        "call_overhead",
        "cset",
    )

    def __init__(
        self,
        alu: float = 0.18,
        mov: float = 0.10,
        load: float = 0.55,
        store: float = 0.60,
        float_alu: float = 1.0,
        float_div: float = 8.0,
        int_div: float = 6.0,
        branch: float = 0.12,
        taken_extra: float = 0.30,
        mispredict_penalty: float = 14.0,
        call_overhead: float = 20.0,
        cset: float = 0.18,
    ) -> None:
        self.alu = alu
        self.mov = mov
        self.load = load
        self.store = store
        self.float_alu = float_alu
        self.float_div = float_div
        self.int_div = int_div
        self.branch = branch
        self.taken_extra = taken_extra
        self.mispredict_penalty = mispredict_penalty
        self.call_overhead = call_overhead
        self.cset = cset

    def op_costs(self) -> dict:
        """MOp -> base cost table."""
        costs = {}
        for op in MOp:
            costs[op] = self.alu
        for op in (MOp.MOVR, MOp.MOVI, MOp.FMOVR, MOp.FMOVI):
            costs[op] = self.mov
        for op in (MOp.LDR, MOp.LDRF, MOp.JSLDRSMI):
            costs[op] = self.load
        for op in (MOp.STR, MOp.STRF):
            costs[op] = self.store
        for op in (MOp.FADD, MOp.FSUB, MOp.FMUL, MOp.FNEG, MOp.FABS, MOp.FCMP,
                   MOp.SCVTF, MOp.FCVTZS):
            costs[op] = self.float_alu
        costs[MOp.FDIV] = self.float_div
        costs[MOp.SDIV] = self.int_div
        for op in (MOp.B, MOp.BCC):
            costs[op] = self.branch
        costs[MOp.CSET] = self.cset
        for op in (MOp.CALL_JS, MOp.CALL_DYN, MOp.CALL_RT):
            costs[op] = self.call_overhead
        # Memory-operand compares pay ALU + load.
        for op in (MOp.CMP_MEM, MOp.CMPI_MEM, MOp.TSTI_MEM):
            costs[op] = self.alu + self.load
        costs[MOp.RET] = self.branch
        costs[MOp.DEOPT] = 0.0
        costs[MOp.MSR] = self.mov
        return costs


class BranchPredictor:
    """Gshare-flavoured predictor: 2-bit counters indexed by pc ^ history."""

    __slots__ = ("table", "history", "mask", "predictions", "mispredictions")

    def __init__(self, bits: int = 12) -> None:
        self.table = bytearray([1]) * (1 << bits)  # weakly not-taken
        self.history = 0
        self.mask = (1 << bits) - 1
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Returns True when the branch was mispredicted."""
        index = (pc ^ self.history) & self.mask
        counter = self.table[index]
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        self.predictions += 1
        if mispredicted:
            self.mispredictions += 1
        if taken and counter < 3:
            self.table[index] = counter + 1
        elif not taken and counter > 0:
            self.table[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.mask
        return mispredicted


class ExecStats:
    """Hardware-counter style statistics (Fig. 10's metrics)."""

    __slots__ = (
        "instructions",
        "branches",
        "taken_branches",
        "mispredictions",
        "loads",
        "stores",
        "deopt_branch_instrs",
    )

    def __init__(self) -> None:
        self.instructions = 0
        self.branches = 0
        self.taken_branches = 0
        self.mispredictions = 0
        self.loads = 0
        self.stores = 0
        self.deopt_branch_instrs = 0

    def snapshot(self) -> dict:
        return {
            "instructions": self.instructions,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "mispredictions": self.mispredictions,
            "loads": self.loads,
            "stores": self.stores,
            "deopt_branches": self.deopt_branch_instrs,
        }


class MachineError(Exception):
    """Simulator-level fault (corrupt code or unchecked speculation)."""


class Executor:
    """Executes compiled code; one instance per engine."""

    def __init__(self, engine, cost_model: Optional[CostModel] = None) -> None:
        self.engine = engine
        self.heap: Heap = engine.heap
        self.cost_model = cost_model or CostModel()
        self.op_cost = self.cost_model.op_costs()
        self.predictor = BranchPredictor()
        self.stats = ExecStats()
        self.cycles = 0.0
        #: optional list; when set, every retired instruction appends
        #: (instr, taken, mem_word_addr) for the pipeline models.
        self.trace: Optional[list] = None
        #: PC sampler callback: fn(code, pc) — called on sample ticks.
        self.sampler = None
        self.sample_period = 0.0
        self._next_sample = math.inf
        #: machine state captured when a DeoptSignal is raised, for the
        #: deoptimizer's frame materialization.
        self.deopt_state = None
        #: fault-injection budget: when positive, the next executed deopt
        #: branch whose condition did NOT fire is taken anyway (a spurious
        #: deopt).  The state transfer must still be correct — the
        #: differential oracle in repro.resilience asserts exactly that.
        #: While trips are pending, the block executor routes every block
        #: through its stepped tier so the trip lands on the exact branch.
        self.forced_deopt_trips = 0
        #: python-level typed-tier counters (never part of ExecStats or
        #: the simulated cycle model): [branch checks elided, condition
        #: instructions elided or folded, jsldrsmi tag tests elided,
        #: entry guards evaluated, guard failures, version entries via
        #: dispatcher, version body executions] — chained (guard-free)
        #: version entries are executions minus dispatcher entries.
        self.typed_counters = [0, 0, 0, 0, 0, 0, 0]
        #: result word stashed by a fused RET block for the block driver.
        self.ret_value = 0
        #: optional repro.supervise.sentinel.DivergenceSentinel; wired by
        #: the engine from EngineConfig.audit / REPRO_AUDIT.  When set,
        #: block execution runs through the audit-aware driver loop.
        self._audit = None

    def set_sampling(self, sampler, period: float) -> None:
        self.sampler = sampler
        self.sample_period = period
        self._next_sample = self.cycles + period if sampler else math.inf

    def next_sample_due(self) -> float:
        """Simulated cycle at which the next PC sample fires (inf when
        sampling is off).  The block executor's fused tier runs a block
        only when the block's exit cycle count stays below this due point
        (see :func:`repro.profiling.sampler.window_straddles_tick`)."""
        return self._next_sample

    # ------------------------------------------------------------------

    def run(self, code: CodeObject, args: Sequence[int], this_word: int) -> int:
        """Execute ``code`` to completion; returns the tagged result word.

        Raises :class:`DeoptSignal` when a deoptimization check fires.

        The executor is chosen by the tier the engine stamped on the
        code object (:mod:`repro.machine.ladder`): the block driver
        (:func:`repro.machine.tracejit.run_blocks`) from ``block`` up,
        the step loop below.  The per-instruction step loop remains the
        semantic reference and the only tier that supports tracing for
        the pipeline models.  A code object demoted by the divergence
        sentinel (:mod:`repro.supervise.sentinel`) stays on the step
        tier for the rest of the process.
        """
        if (code._tier >= _BLOCK and self.trace is None
                and not code._supervise_demoted):
            return _block_driver(self, code, args, this_word)
        return self._run_steps(code, args, this_word)

    def _run_steps(
        self, code: CodeObject, args: Sequence[int], this_word: int
    ) -> int:
        """The per-instruction step loop (the timing/sampling reference).

        The loop dispatches over :mod:`repro.machine.dispatch` decoded
        entries (cached on the code object at first execution) instead of
        raw :class:`MachineInstr` objects; the chain below is ordered by
        measured dynamic frequency over the suite.
        """
        heap_words = self.heap.words
        config = self.heap.config
        smi_min, smi_max = config.smi_min, config.smi_max
        decoded = code._decoded
        if decoded is None:
            decoded = code._decoded = decode(code, self.op_cost)
        regs: List[int] = [0] * code.target.gpr_count
        fregs: List[float] = [0.0] * code.target.fpr_count
        frame: List[object] = [0] * max(1, code.stack_slots)
        special = [0, 0, 0]
        for index, arg in enumerate(args):
            regs[index] = arg
        regs[THIS_REG] = this_word
        n = z = False
        c = v = False
        pc = 0
        stats = self.stats
        predictor = self.predictor
        predict_and_update = predictor.predict_and_update
        local_cycles = self.cycles
        tracing = self.trace is not None
        trace = self.trace
        engine = self.engine
        next_sample = self._next_sample
        taken_extra = self.cost_model.taken_extra
        mispredict_penalty = self.cost_model.mispredict_penalty

        entry_cycles = local_cycles
        while True:
            kind, cost, dst, s1, s2, imm, aux, instr, prefix, leader = decoded[pc]
            stats.instructions += 1
            # Block-relative accounting: ``entry + prefix`` at a block's
            # last instruction is the very float the block executor's
            # single ``entry + total`` add produces, keeping the two
            # tiers' cycle totals bit-identical.
            if leader:
                entry_cycles = local_cycles
            local_cycles = entry_cycles + prefix
            if local_cycles >= next_sample:
                self._sample(code, pc, local_cycles)
                next_sample = self._next_sample
            if tracing:
                trace.append((instr, False, -1))  # placeholder; patched below

            if kind == K_BCC:
                taken = aux(n, z, c, v)
                stats.branches += 1
                if s1:
                    stats.deopt_branch_instrs += 1
                    if not taken and self.forced_deopt_trips > 0:
                        # Injected speculation fault: take the deopt branch
                        # even though the guarded condition holds.
                        self.forced_deopt_trips -= 1
                        taken = True
                if predict_and_update(pc, taken):
                    stats.mispredictions += 1
                    local_cycles += mispredict_penalty
                if tracing:
                    trace[-1] = (instr, taken, -1)
                if taken:
                    stats.taken_branches += 1
                    local_cycles += taken_extra
                    pc = s2
                else:
                    pc += 1
            elif kind == K_LDR:
                stats.loads += 1
                address = (regs[s1] >> 1) + imm
                value = heap_words[address]
                if not isinstance(value, int):
                    raise MachineError(
                        f"LDR of non-int slot {address} -> {value!r}"
                    )
                regs[dst] = value
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_LDR_IDX:
                stats.loads += 1
                address = (regs[s1] >> 1) + (regs[s2] << aux) + imm
                value = heap_words[address]
                if not isinstance(value, int):
                    raise MachineError(
                        f"LDR of non-int slot {address} -> {value!r}"
                    )
                regs[dst] = value
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_MOVI:
                regs[dst] = imm
                pc += 1
            elif kind == K_MOVR:
                regs[dst] = regs[s1]
                pc += 1
            elif kind == K_CMPI:
                a = regs[s1]
                diff = a - imm
                z = diff == 0
                n = diff < 0
                c = (a & _UINT32) >= s2
                v = not (-2147483648 <= diff <= 2147483647)
                pc += 1
            elif kind == K_TSTI:
                masked = regs[s1] & imm
                z = masked == 0
                n = masked < 0
                c = v = False
                pc += 1
            elif kind == K_CMP:
                a, b = regs[s1], regs[s2]
                diff = a - b
                z = diff == 0
                n = diff < 0
                c = (a & _UINT32) >= (b & _UINT32)
                v = not (-2147483648 <= diff <= 2147483647)
                pc += 1
            elif kind == K_ASRI:
                regs[dst] = regs[s1] >> imm
                pc += 1
            elif kind == K_B:
                stats.branches += 1
                stats.taken_branches += 1
                local_cycles += taken_extra
                if tracing:
                    trace[-1] = (instr, True, -1)
                pc = s2
            elif kind == K_ADDS:
                result = regs[s1] + regs[s2]
                regs[dst] = result
                z = result == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_ADDSI:
                result = regs[s1] + imm
                regs[dst] = result
                z = result == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_LSLI:
                regs[dst] = regs[s1] << imm
                pc += 1
            elif kind == K_CALL_RT:
                self.cycles = local_cycles
                name, extra, call_regs, returns_float = aux
                result = engine.call_runtime(
                    name, extra, [regs[r] for r in call_regs], fregs
                )
                local_cycles = self.cycles
                next_sample = self._next_sample
                if returns_float:
                    fregs[0] = result  # type: ignore[assignment]
                else:
                    regs[0] = result  # type: ignore[assignment]
                pc += 1
            elif kind == K_CSET:
                regs[dst] = 1 if aux(n, z, c, v) else 0
                pc += 1
            elif kind == K_CMPI_MEM:
                base, index_reg, scale, disp = aux
                address = (regs[base] >> 1) + disp
                if index_reg >= 0:
                    address += regs[index_reg] << scale
                stats.loads += 1
                a = heap_words[address]
                if not isinstance(a, int):
                    raise MachineError("cmp with non-int memory operand")
                diff = a - imm
                z = diff == 0
                n = diff < 0
                c = (a & _UINT32) >= s2
                v = not (-2147483648 <= diff <= 2147483647)
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_CMP_MEM:
                base, index_reg, scale, disp = aux
                address = (regs[base] >> 1) + disp
                if index_reg >= 0:
                    address += regs[index_reg] << scale
                stats.loads += 1
                b = heap_words[address]
                if not isinstance(b, int):
                    raise MachineError("cmp with non-int memory operand")
                a = regs[s1]
                diff = a - b
                z = diff == 0
                n = diff < 0
                c = (a & _UINT32) >= (b & _UINT32)
                v = not (-2147483648 <= diff <= 2147483647)
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_STR:
                stats.stores += 1
                address = (regs[s2] >> 1) + imm
                if aux is not None:
                    address += regs[aux[0]] << aux[1]
                heap_words[address] = regs[s1]
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_STR_FRAME:
                stats.stores += 1
                frame[imm] = regs[s1]
                pc += 1
            elif kind == K_LDR_FRAME:
                stats.loads += 1
                regs[dst] = frame[imm]  # type: ignore[assignment]
                pc += 1
            elif kind == K_SCVTF:
                fregs[dst] = float(regs[s1])
                pc += 1
            elif kind == K_ALU_RR:
                regs[dst] = aux(regs[s1], regs[s2])
                pc += 1
            elif kind == K_ALU_RI:
                regs[dst] = aux(regs[s1], imm)
                pc += 1
            elif kind == K_SUBS:
                result = regs[s1] - regs[s2]
                regs[dst] = result
                z = result == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_SUBSI:
                result = regs[s1] - imm
                regs[dst] = result
                z = result == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_MULS:
                result = regs[s1] * regs[s2]
                regs[dst] = result
                z = result == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_NEGS:
                source = regs[s1]
                result = -source
                regs[dst] = result
                z = source == 0
                n = result < 0
                v = not (smi_min <= result <= smi_max)
                c = False
                pc += 1
            elif kind == K_TST:
                masked = regs[s1] & regs[s2]
                z = masked == 0
                n = masked < 0
                c = v = False
                pc += 1
            elif kind == K_MZCMP:
                z = regs[s1] == 0 and regs[s2] < 0
                n = False
                c = v = False
                pc += 1
            elif kind == K_FALU_RR:
                fregs[dst] = aux(fregs[s1], fregs[s2])
                pc += 1
            elif kind == K_FALU_R:
                fregs[dst] = aux(fregs[s1])
                pc += 1
            elif kind == K_FDIV:
                denominator = fregs[s2]
                numerator = fregs[s1]
                if denominator == 0.0:
                    if numerator == 0.0 or math.isnan(numerator):
                        fregs[dst] = float("nan")
                    else:
                        sign = math.copysign(1.0, numerator) * math.copysign(
                            1.0, denominator
                        )
                        fregs[dst] = math.inf * sign
                else:
                    fregs[dst] = numerator / denominator
                pc += 1
            elif kind == K_FMOVR:
                fregs[dst] = fregs[s1]
                pc += 1
            elif kind == K_FMOVI:
                fregs[dst] = imm
                pc += 1
            elif kind == K_FCMP:
                a, b = fregs[s1], fregs[s2]
                if math.isnan(a) or math.isnan(b):
                    n, z, c, v = False, False, True, True
                else:
                    n = a < b
                    z = a == b
                    c = a >= b
                    v = False
                pc += 1
            elif kind == K_FCVTZS:
                # JS ToInt32 truncation semantics (wrap modulo 2^32): this is
                # what the compiler's float64->int32 lowering implements.
                value = fregs[s1]
                if math.isnan(value) or math.isinf(value):
                    regs[dst] = 0
                else:
                    wrapped = int(value) % 4294967296
                    regs[dst] = (
                        wrapped - 4294967296 if wrapped >= 2147483648 else wrapped
                    )
                pc += 1
            elif kind == K_LDRF:
                stats.loads += 1
                address = (regs[s1] >> 1) + imm
                if s2 >= 0:
                    address += regs[s2] << aux
                value = heap_words[address]
                fregs[dst] = float(value)  # type: ignore[arg-type]
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_LDRF_FRAME:
                stats.loads += 1
                fregs[dst] = frame[imm]  # type: ignore[assignment]
                pc += 1
            elif kind == K_STRF:
                stats.stores += 1
                address = (regs[s2] >> 1) + imm
                if aux is not None:
                    address += regs[aux[0]] << aux[1]
                heap_words[address] = fregs[s1]
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_STRF_FRAME:
                stats.stores += 1
                frame[imm] = fregs[s1]
                pc += 1
            elif kind == K_TSTI_MEM:
                base, index_reg, scale, disp = aux
                address = (regs[base] >> 1) + disp
                if index_reg >= 0:
                    address += regs[index_reg] << scale
                stats.loads += 1
                a = heap_words[address]
                masked = a & imm  # type: ignore[operator]
                z = masked == 0
                n = masked < 0  # type: ignore[operator]
                c = v = False
                if tracing:
                    trace[-1] = (instr, False, address)
                pc += 1
            elif kind == K_JSLDRSMI:
                stats.loads += 1
                address = (regs[s1] >> 1) + imm
                if s2 >= 0:
                    address += regs[s2] << aux[0]
                value = heap_words[address]
                if tracing:
                    trace[-1] = (instr, False, address)
                if not isinstance(value, int):
                    raise MachineError(f"jsldrsmi of non-int slot {address}")
                if value & 1:
                    # Commit-time bailout (Fig. 12): update the special
                    # registers and raise through the bailout handler.
                    check_id = aux[1]
                    special[REG_PC] = pc
                    special[REG_RE] = aux[2] if check_id >= 0 else 1
                    if check_id < 0:
                        raise MachineError("jsldrsmi bailout without deopt point")
                    self.cycles = local_cycles
                    self.deopt_state = (regs, fregs, frame)
                    raise DeoptSignal(check_id)
                regs[dst] = value >> 1
                pc += 1
            elif kind == K_CALL_JS:
                self.cycles = local_cycles
                call_args = [regs[r] for r in aux]
                regs[0] = engine.call_shared(imm, regs[THIS_REG], call_args)
                local_cycles = self.cycles
                next_sample = self._next_sample
                pc += 1
            elif kind == K_CALL_DYN:
                self.cycles = local_cycles
                call_args = [regs[r] for r in aux]
                regs[0] = engine.call_value(
                    regs[s1], self.heap.undefined, call_args, None
                )
                local_cycles = self.cycles
                next_sample = self._next_sample
                pc += 1
            elif kind == K_RET:
                self.cycles = local_cycles
                return regs[s1]
            elif kind == K_DEOPT:
                self.cycles = local_cycles
                self.deopt_state = (regs, fregs, frame)
                raise DeoptSignal(imm)
            elif kind == K_MSR:
                special[imm] = regs[s1]
                pc += 1
            else:  # pragma: no cover - decode() covers every MOp
                raise MachineError(f"unimplemented dispatch kind {kind}")

    def _sample(self, code: CodeObject, pc: int, cycles: float) -> None:
        if self.sampler is not None:
            self.sampler.record_jit(code, pc)
            self._next_sample = cycles + self.sample_period
        else:
            self._next_sample = math.inf

    def charge_external(self, cycles: float, in_jit: bool = False) -> None:
        """Advance time for non-JIT work (interpreter, builtins, GC)."""
        self.cycles += cycles
        while self.cycles >= self._next_sample:
            if self.sampler is None:
                self._next_sample = math.inf
                return
            self.sampler.record_other()
            self._next_sample += self.sample_period
