"""Shared machinery for the trace-driven pipeline models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...isa.base import FRAME_BASE, MachineInstr, MOp

#: virtual register-id spaces for dependence tracking
FLAGS_REG = 200
FLOAT_BASE = 64
FRAME_BASE_REG = 201  # frame slots modelled as one dependence cell per slot
FRAME_SLOT_BASE = 210

_FLOAT_WRITERS = {
    MOp.LDRF, MOp.FMOVR, MOp.FMOVI, MOp.FADD, MOp.FSUB, MOp.FMUL, MOp.FDIV,
    MOp.FNEG, MOp.FABS, MOp.SCVTF,
}
_FLAG_SETTERS = {
    MOp.ADDS, MOp.SUBS, MOp.ADDSI, MOp.SUBSI, MOp.MULS, MOp.NEGS, MOp.CMP,
    MOp.CMPI, MOp.TST, MOp.TSTI, MOp.CMP_MEM, MOp.CMPI_MEM, MOp.TSTI_MEM,
    MOp.FCMP, MOp.MZCMP,
}
_FLAG_READERS = {MOp.BCC, MOp.CSET}
_FLOAT_SRC1 = {MOp.STRF, MOp.FCMP, MOp.FCVTZS, MOp.FMOVR, MOp.FNEG, MOp.FABS,
               MOp.FADD, MOp.FSUB, MOp.FMUL, MOp.FDIV}
_FLOAT_SRC2 = {MOp.FCMP, MOp.FADD, MOp.FSUB, MOp.FMUL, MOp.FDIV}


@dataclass
class DecodedInstr:
    reads: Tuple[int, ...]
    writes: Tuple[int, ...]
    klass: str  # alu/mov/mul/div/load/store/fp/fpdiv/branch/call
    is_branch: bool
    is_load: bool
    is_store: bool


_CLASS_OF = {
    MOp.MOVR: "mov", MOp.MOVI: "mov", MOp.FMOVR: "mov", MOp.FMOVI: "mov",
    MOp.MUL: "mul", MOp.MULS: "mul", MOp.SDIV: "div",
    MOp.LDR: "load", MOp.LDRF: "load", MOp.JSLDRSMI: "load",
    MOp.STR: "store", MOp.STRF: "store",
    MOp.CMP_MEM: "load", MOp.CMPI_MEM: "load", MOp.TSTI_MEM: "load",
    MOp.FADD: "fp", MOp.FSUB: "fp", MOp.FMUL: "fp", MOp.FNEG: "fp",
    MOp.FABS: "fp", MOp.FCMP: "fp", MOp.SCVTF: "fp", MOp.FCVTZS: "fp",
    MOp.FDIV: "fpdiv",
    MOp.B: "branch", MOp.BCC: "branch", MOp.RET: "branch",
    MOp.CALL_JS: "call", MOp.CALL_DYN: "call", MOp.CALL_RT: "call",
    MOp.DEOPT: "alu", MOp.MSR: "mov",
}


def decode(instr: MachineInstr) -> DecodedInstr:
    """Dependence and class information for one machine instruction."""
    op = instr.op
    reads: List[int] = []
    writes: List[int] = []
    klass = _CLASS_OF.get(op, "alu")

    # source registers
    if op in _FLOAT_SRC1:
        if instr.s1 >= 0:
            reads.append(FLOAT_BASE + instr.s1)
    elif instr.s1 >= 0:
        reads.append(instr.s1)
    if op in _FLOAT_SRC2:
        if instr.s2 >= 0:
            reads.append(FLOAT_BASE + instr.s2)
    elif instr.s2 >= 0:
        reads.append(instr.s2)
    if instr.mem is not None:
        base, index, _scale, disp = instr.mem
        if base == FRAME_BASE:
            cell = FRAME_SLOT_BASE + (disp % 32)
            if op in (MOp.STR, MOp.STRF):
                writes.append(cell)
            else:
                reads.append(cell)
        else:
            reads.append(base)
            if index >= 0:
                reads.append(index)
    if op in _FLAG_SETTERS:
        writes.append(FLAGS_REG)
    if op in _FLAG_READERS:
        reads.append(FLAGS_REG)
    if op in (MOp.CALL_JS, MOp.CALL_DYN, MOp.CALL_RT):
        reads.extend(instr.args)
        writes.append(FLOAT_BASE if instr.returns_float else 0)
    elif instr.dst >= 0:
        if op in _FLOAT_WRITERS:
            writes.append(FLOAT_BASE + instr.dst)
        else:
            writes.append(instr.dst)
    return DecodedInstr(
        tuple(reads),
        tuple(writes),
        klass,
        is_branch=op in (MOp.B, MOp.BCC, MOp.RET),
        is_load=klass == "load",
        is_store=op in (MOp.STR, MOp.STRF),
    )


@dataclass
class PipelineStats:
    """Counters reported by the pipeline models (Fig. 10 / 13 metrics)."""

    cycles: float = 0.0
    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0
    frontend_stall_cycles: float = 0.0
    backend_stall_cycles: float = 0.0
    cache: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> Dict[str, float]:
        data = {
            "cycles": self.cycles,
            "instructions": float(self.instructions),
            "branches": float(self.branches),
            "taken_branches": float(self.taken_branches),
            "mispredictions": float(self.mispredictions),
            "loads": float(self.loads),
            "stores": float(self.stores),
            "frontend_stall_cycles": self.frontend_stall_cycles,
            "backend_stall_cycles": self.backend_stall_cycles,
            "ipc": self.ipc,
        }
        data.update({k: float(v) for k, v in self.cache.items()})
        return data
