"""Decoded-operand dispatch table for the fast executor.

The original interpreter loop re-read :class:`MachineInstr` attribute
slots and re-branched over the :class:`MOp` enum for every retired
instruction; profiling showed that dominating the harness (~83 % of the
wall clock of a figure run).  :func:`decode` runs once per code object and
flattens each instruction into a plain tuple

    (kind, cost, dst, s1, s2, imm, aux, instr, prefix, leader)

where ``kind`` is a synthetic small int chosen *after* looking at the
operands — e.g. ``LDR`` decodes to a frame-slot, no-index, or indexed
variant — so the hot loop compares plain ints, never touches enum objects,
and skips operand checks that can be settled statically:

* per-instruction base cost is pre-resolved (no dict lookup per retire);
* immediates are pre-cast (``int(imm)`` / ``float(imm)``) where the
  semantics require it, and kept raw where they do not;
* condition codes become evaluator functions over the (n, z, c, v) flags;
* rare reg-reg / reg-imm ALU ops collapse to a function slot in ``aux``
  (the functions below replicate the masking/wrapping semantics exactly);
* ``JSLDRSMI`` pre-resolves its check id and bailout reason code;
* ``CALL_RT`` pre-unpacks ``(name, extra, args, returns_float)``.

The last two slots carry the block-relative timing view shared with the
block-compiled executor (:mod:`repro.machine.blockjit`): ``prefix`` is the
cumulative base cycle cost from the instruction's fused-block leader
through the instruction itself (partial sums folded left, so the step
loop's ``entry + prefix`` reproduces the exact float the block path's
single ``entry + total`` add produces at block exit), and ``leader`` is 1
when the pc starts a fused block (where the step loop re-latches its
block-entry cycle count).

The decoded form is cached on ``CodeObject._decoded`` at first execution.
Code objects are immutable after generation (deopt/reoptimization builds a
new object), so the cache never needs invalidation.  Slot meanings per
kind are documented next to each constant; the ``instr`` slot keeps the
original :class:`MachineInstr` alive for tracing and the pipeline models.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, List, Tuple

from ..isa.base import CC, FRAME_BASE, MOp
from ..isa.semantics import fused_block_leaders
from ..jit.checks import REASON_CODES

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject

_UINT32 = 0xFFFFFFFF

# Synthetic kind codes, roughly in dynamic-frequency order (the executor's
# dispatch chain tests them in this order).
K_BCC = 0            # s1=is_deopt, s2=target, aux=cc evaluator
K_LDR = 1            # dst <- heap[(regs[s1]>>1) + imm]
K_LDR_IDX = 2        # dst <- heap[(regs[s1]>>1) + (regs[s2]<<aux) + imm]
K_LDR_FRAME = 3      # dst <- frame[imm]
K_MOVI = 4           # dst <- imm
K_MOVR = 5           # dst <- regs[s1]
K_CMPI = 6           # flags from regs[s1] vs imm; s2 = int(imm) & UINT32
K_TSTI = 7           # flags from regs[s1] & imm (imm pre-cast int)
K_CMP = 8            # flags from regs[s1] vs regs[s2]
K_ASRI = 9           # dst <- regs[s1] >> imm
K_B = 10             # unconditional branch to s2
K_ADDS = 11          # dst <- regs[s1] + regs[s2], SMI-overflow flags
K_ADDSI = 12         # dst <- regs[s1] + imm (pre-cast), SMI-overflow flags
K_LSLI = 13          # dst <- regs[s1] << imm
K_CALL_RT = 14       # aux = (name, extra, args, returns_float)
K_CSET = 15          # dst <- 1 if cc else 0; aux=cc evaluator
K_CMPI_MEM = 16      # flags from heap[mem] vs imm; s2 = int(imm) & UINT32; aux=mem
K_CMP_MEM = 17       # flags from regs[s1] vs heap[mem]; aux=mem
K_STR = 18           # heap[mem] <- regs[s1]; s2=base, imm=disp, aux=None|(index, scale)
K_STR_FRAME = 19     # frame[imm] <- regs[s1]
K_SCVTF = 20         # fregs[dst] <- float(regs[s1])
K_ALU_RR = 21        # dst <- aux(regs[s1], regs[s2])
K_ALU_RI = 22        # dst <- aux(regs[s1], imm)
K_SUBS = 23          # like K_ADDS
K_SUBSI = 24         # like K_ADDSI
K_MULS = 25          # flag-setting multiply
K_NEGS = 26          # dst <- -regs[s1]; Z from the *source* (minus-zero quirk)
K_TST = 27           # flags from regs[s1] & regs[s2]
K_MZCMP = 28         # Z <- regs[s1] == 0 and regs[s2] < 0
K_FALU_RR = 29       # fregs[dst] <- aux(fregs[s1], fregs[s2])
K_FALU_R = 30        # fregs[dst] <- aux(fregs[s1])
K_FDIV = 31          # IEEE division with JS zero/NaN rules
K_FMOVR = 32         # fregs[dst] <- fregs[s1]
K_FMOVI = 33         # fregs[dst] <- imm (pre-cast float)
K_FCMP = 34          # unordered-aware float compare
K_FCVTZS = 35        # dst <- ToInt32(fregs[s1])
K_LDRF = 36          # fregs[dst] <- float(heap[mem]); s1=base, s2=index, imm=disp, aux=scale
K_LDRF_FRAME = 37    # fregs[dst] <- frame[imm]
K_STRF = 38          # heap[mem] <- fregs[s1]; s2=base, imm=disp, aux=None|(index, scale)
K_STRF_FRAME = 39    # frame[imm] <- fregs[s1]
K_TSTI_MEM = 40      # flags from heap[mem] & imm; aux=mem
K_JSLDRSMI = 41      # s1=base, s2=index, imm=disp, aux=(scale, check_id, reason)
K_CALL_JS = 42       # imm = shared index, aux = args tuple
K_CALL_DYN = 43      # callee word in regs[s1], aux = args tuple
K_RET = 44           # return regs[s1]
K_DEOPT = 45         # raise DeoptSignal(imm)
K_MSR = 46           # special[imm] <- regs[s1]


def _lsl(a: int, b: int) -> int:
    result = (a << (b & 31)) & _UINT32
    return result - 0x100000000 if result >= 0x80000000 else result


def _asr(a: int, b: int) -> int:
    return a >> (b & 31)


def _lsr(a: int, b: int) -> int:
    return (a & _UINT32) >> (b & 31)


def _lsri(a: int, b: int) -> int:
    return (a & _UINT32) >> b


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0  # ARM semantics: division by zero -> 0
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


#: reg-reg ALU ops -> function slot (semantics identical to the old loop)
_ALU_RR_FN = {
    MOp.ADD: operator.add,
    MOp.SUB: operator.sub,
    MOp.MUL: operator.mul,
    MOp.AND: operator.and_,
    MOp.ORR: operator.or_,
    MOp.EOR: operator.xor,
    MOp.LSL: _lsl,
    MOp.ASR: _asr,
    MOp.LSR: _lsr,
    MOp.SDIV: _sdiv,
}

#: reg-imm ALU ops -> (function, pre-cast imm?); ADDI/SUBI historically used
#: the raw immediate, the bitwise/shift forms cast to int.
_ALU_RI_FN = {
    MOp.ADDI: (operator.add, False),
    MOp.SUBI: (operator.sub, False),
    MOp.ANDI: (operator.and_, True),
    MOp.ORRI: (operator.or_, True),
    MOp.EORI: (operator.xor, True),
    MOp.LSRI: (_lsri, True),
}

_FALU_RR_FN = {
    MOp.FADD: operator.add,
    MOp.FSUB: operator.sub,
    MOp.FMUL: operator.mul,
}

_FALU_R_FN = {
    MOp.FNEG: operator.neg,
    MOp.FABS: abs,
}

#: condition-code evaluators over (n, z, c, v)
CC_EVAL = {
    int(CC.EQ): lambda n, z, c, v: z,
    int(CC.NE): lambda n, z, c, v: not z,
    int(CC.LT): lambda n, z, c, v: n != v,
    int(CC.GE): lambda n, z, c, v: n == v,
    int(CC.GT): lambda n, z, c, v: (not z) and (n == v),
    int(CC.LE): lambda n, z, c, v: z or (n != v),
    int(CC.HS): lambda n, z, c, v: c,
    int(CC.LO): lambda n, z, c, v: not c,
    int(CC.HI): lambda n, z, c, v: c and not z,
    int(CC.LS): lambda n, z, c, v: (not c) or z,
    int(CC.VS): lambda n, z, c, v: v,
    int(CC.VC): lambda n, z, c, v: not v,
    int(CC.MI): lambda n, z, c, v: n,
    int(CC.PL): lambda n, z, c, v: not n,
}

DecodedInstr = Tuple[
    int, float, int, int, int, object, object, object, float, int
]


def decode(code: "CodeObject", op_cost: dict) -> List[DecodedInstr]:
    """Flatten a code object's instructions for the fast dispatch loop."""
    entries: List[DecodedInstr] = []
    leaders = fused_block_leaders(tuple(code.instrs))
    running = 0.0
    for pc, instr in enumerate(code.instrs):
        op = instr.op
        cost = op_cost[op]
        dst, s1, s2, imm = instr.dst, instr.s1, instr.s2, instr.imm
        aux: object = None

        if op == MOp.BCC:
            kind = K_BCC
            s1 = 1 if instr.is_deopt_branch else 0
            s2 = instr.target
            aux = CC_EVAL[int(instr.cc)]
        elif op == MOp.B:
            kind = K_B
            s2 = instr.target
        elif op == MOp.LDR:
            base, index_reg, scale, disp = instr.mem
            if base == FRAME_BASE:
                kind, imm = K_LDR_FRAME, disp
            elif index_reg < 0:
                kind, s1, imm = K_LDR, base, disp
            else:
                kind, s1, s2, imm, aux = K_LDR_IDX, base, index_reg, disp, scale
        elif op == MOp.STR:
            base, index_reg, scale, disp = instr.mem
            if base == FRAME_BASE:
                kind, imm = K_STR_FRAME, disp
            else:
                kind, s2, imm = K_STR, base, disp
                aux = (index_reg, scale) if index_reg >= 0 else None
        elif op == MOp.MOVI:
            kind = K_MOVI
        elif op == MOp.MOVR:
            kind = K_MOVR
        elif op == MOp.CMPI:
            kind = K_CMPI
            s2 = int(imm) & _UINT32
        elif op == MOp.TSTI:
            kind, imm = K_TSTI, int(imm)
        elif op == MOp.CMP:
            kind = K_CMP
        elif op == MOp.TST:
            kind = K_TST
        elif op == MOp.ASRI:
            kind = K_ASRI
        elif op == MOp.LSLI:
            kind = K_LSLI
        elif op == MOp.ADDS:
            kind = K_ADDS
        elif op == MOp.ADDSI:
            kind, imm = K_ADDSI, int(imm)
        elif op == MOp.SUBS:
            kind = K_SUBS
        elif op == MOp.SUBSI:
            kind, imm = K_SUBSI, int(imm)
        elif op == MOp.MULS:
            kind = K_MULS
        elif op == MOp.NEGS:
            kind = K_NEGS
        elif op == MOp.MZCMP:
            kind = K_MZCMP
        elif op == MOp.CSET:
            kind = K_CSET
            aux = CC_EVAL[int(instr.cc)]
        elif op in _ALU_RR_FN:
            kind = K_ALU_RR
            aux = _ALU_RR_FN[op]
        elif op in _ALU_RI_FN:
            kind = K_ALU_RI
            aux, cast = _ALU_RI_FN[op]
            if cast:
                imm = int(imm)
        elif op in _FALU_RR_FN:
            kind = K_FALU_RR
            aux = _FALU_RR_FN[op]
        elif op in _FALU_R_FN:
            kind = K_FALU_R
            aux = _FALU_R_FN[op]
        elif op == MOp.FDIV:
            kind = K_FDIV
        elif op == MOp.FMOVR:
            kind = K_FMOVR
        elif op == MOp.FMOVI:
            kind, imm = K_FMOVI, float(imm)
        elif op == MOp.FCMP:
            kind = K_FCMP
        elif op == MOp.SCVTF:
            kind = K_SCVTF
        elif op == MOp.FCVTZS:
            kind = K_FCVTZS
        elif op == MOp.LDRF:
            base, index_reg, scale, disp = instr.mem
            if base == FRAME_BASE:
                kind, imm = K_LDRF_FRAME, disp
            else:
                kind, s1, s2, imm, aux = K_LDRF, base, index_reg, disp, scale
        elif op == MOp.STRF:
            base, index_reg, scale, disp = instr.mem
            if base == FRAME_BASE:
                kind, imm = K_STRF_FRAME, disp
            else:
                kind, s2, imm = K_STRF, base, disp
                aux = (index_reg, scale) if index_reg >= 0 else None
        elif op == MOp.CMP_MEM:
            kind = K_CMP_MEM
            aux = instr.mem
        elif op == MOp.CMPI_MEM:
            imm = int(imm)
            kind, s2 = K_CMPI_MEM, imm & _UINT32
            aux = instr.mem
        elif op == MOp.TSTI_MEM:
            kind, imm = K_TSTI_MEM, int(imm)
            aux = instr.mem
        elif op == MOp.JSLDRSMI:
            kind = K_JSLDRSMI
            base, index_reg, scale, disp = instr.mem
            s1, s2, imm = base, index_reg, disp
            check_id = code.smi_load_checks.get(pc, -1)
            point = code.deopt_points.get(check_id) if check_id >= 0 else None
            reason = REASON_CODES.get(point.kind, 1) if point is not None else 1
            aux = (scale, check_id, reason)
        elif op == MOp.CALL_RT:
            kind = K_CALL_RT
            name, extra = instr.aux  # type: ignore[misc]
            aux = (name, extra, tuple(instr.args), instr.returns_float)
        elif op == MOp.CALL_JS:
            kind, imm = K_CALL_JS, int(imm)
            aux = tuple(instr.args)
        elif op == MOp.CALL_DYN:
            kind = K_CALL_DYN
            aux = tuple(instr.args)
        elif op == MOp.RET:
            kind = K_RET
        elif op == MOp.DEOPT:
            kind, imm = K_DEOPT, int(imm)
        elif op == MOp.MSR:
            kind, imm = K_MSR, int(imm)
        else:  # pragma: no cover - every MOp is handled above
            raise ValueError(f"unimplemented machine op {op.name}")

        is_leader = 1 if pc in leaders else 0
        if is_leader:
            running = 0.0
        # Left-fold of the block's costs: ``prefix`` at the block's last
        # instruction is exactly the float the block executor adds in one
        # go, so step-mode and block-mode cycle totals are bit-identical.
        running = running + cost
        entries.append(
            (kind, cost, dst, s1, s2, imm, aux, instr, running, is_leader)
        )
    return entries
