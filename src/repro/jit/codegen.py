"""Target code generation: IR -> machine instructions.

Lowers the speculative IR to one of the modelled ISAs.  This is where the
paper's instruction-shape differences materialize:

* on **x64**, map checks and bounds checks use memory-operand compares
  (``cmp [obj], #map`` / ``cmp idx, [arr+len]``) — one instruction before
  the deopt branch;
* on **arm64**, the same checks need explicit loads and constant
  materialization — two or three instructions before the branch;
* on **arm64+smi**, SMI loads that feed an untag are fused into
  ``jsldrsmi``/``jsldursmi`` and the deopt branch disappears entirely
  (commit-time bailout via REG_RE), per the paper's Section V.

Every instruction belonging to a check carries the check's ``check_id`` as
provenance — that is the *ground truth* the profiler's window heuristic is
later compared against.

The ``emit_check_branches=False`` mode reproduces the paper's Section IV-B
experiment: conditions are still computed, but the conditional deopt
branches are not emitted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.builder import BailoutCompilation, GraphBuilder
from ..ir.nodes import Block, Checkpoint, Node, Repr
from ..isa.base import (
    ARG_REGS,
    CC,
    FRAME_BASE,
    MachineInstr,
    Mem,
    MOp,
    REG_BA,
    TargetISA,
)
from ..values.heap import (
    MAP_OFFSET,
    NUMBER_VALUE_OFFSET,
)
from ..values.tagged import pointer_tag
from .checks import CheckKind
from .deopt import CheckSite, DeoptPoint, DeoptValue, Location
from .regalloc import Allocation, Assignment, allocate

THIS_REG = 7
JS_ARG_REGS = ARG_REGS[:7]

_INT_CC = {"lt": CC.LT, "le": CC.LE, "gt": CC.GT, "ge": CC.GE, "eq": CC.EQ, "ne": CC.NE}
_FLOAT_CC = {"lt": CC.MI, "le": CC.LS, "gt": CC.GT, "ge": CC.GE, "eq": CC.EQ, "ne": CC.NE}
_NEGATE_CC = {
    CC.EQ: CC.NE, CC.NE: CC.EQ, CC.LT: CC.GE, CC.GE: CC.LT, CC.GT: CC.LE,
    CC.LE: CC.GT, CC.HS: CC.LO, CC.LO: CC.HS, CC.HI: CC.LS, CC.LS: CC.HI,
    CC.VS: CC.VC, CC.VC: CC.VS, CC.MI: CC.PL, CC.PL: CC.MI,
}
#: negating a float condition must send NaN to the *branch-not-taken* side
#: correctly; for our generated diamonds we only negate int conditions.

_BITWISE_MOPS = {
    "or": MOp.ORR,
    "and": MOp.AND,
    "xor": MOp.EOR,
    "shl": MOp.LSL,
    "sar": MOp.ASR,
    "shr": MOp.LSR,
}


class CodeObject:
    """Compiled machine code for one function, plus its deopt metadata."""

    def __init__(self, shared, target: TargetISA) -> None:
        self.shared = shared
        self.target = target
        self.instrs: List[MachineInstr] = []
        self.deopt_points: Dict[int, DeoptPoint] = {}
        self.check_sites: Dict[int, CheckSite] = {}
        self.stack_slots = 0
        self.embedded_words: Set[int] = set()
        self.map_dependencies: Set[object] = set()
        self.invalidated = False
        self.smi_load_checks: Dict[int, int] = {}  # pc -> check_id
        self.compile_cycles = 0
        #: position in the engine's compiled-code history (-1 until the
        #: engine registers the object); with a check id this keys the
        #: dynamic check-trip profile the typeflow validator joins on.
        self.serial = -1
        #: cached repro.analysis.typeflow result (immutable, like _decoded).
        self._typeflow: Optional[object] = None
        #: cached repro.analysis.typeflow.VersionAnalysis context (the
        #: prepared must-analysis the LBBV tier queries per version key);
        #: immutable and never invalidated, like _typeflow.
        self._version_analysis: Optional[object] = None
        #: per-check summary exported by the IR pipeline (pass-level check
        #: counts before/after elimination), attached by generate_code for
        #: the typeflow CLI's static-density provenance.
        self.ir_check_summary: Optional[object] = None
        #: decoded dispatch entries, filled lazily by the executor at first
        #: execution (see repro.machine.dispatch); never invalidated because
        #: code objects are immutable once generation finishes.
        self._decoded: Optional[list] = None
        #: fused-block table (repro.machine.blockjit.BlockTable), compiled
        #: lazily next to ``_decoded`` on first block-mode execution; also
        #: never invalidated, but rebuilt if a different executor runs the
        #: code (the closures bind executor state).
        self._blocks: Optional[object] = None
        #: trace table (repro.machine.tracejit.TraceTable): hot-chain
        #: edge counters and compiled trace closures, attached lazily by
        #: the trace-aware driver next to ``_blocks``.  Dropped (set back
        #: to None) together with ``_blocks`` on a deopt storm, since its
        #: traces are built over those very blocks.
        self._traces: Optional[object] = None
        #: version table (repro.machine.lbbv.VersionTable): runtime
        #: type-state-specialized block versions keyed by incoming fact
        #: state, compiled lazily on first execution of each state and
        #: chained guard-free.  Dropped with ``_blocks``/``_traces`` on
        #: every degradation-ladder descent.
        self._versions: Optional[object] = None
        #: set by the divergence sentinel (repro.supervise.sentinel) when
        #: a fused block disagreed with its stepped twin: the executor
        #: then routes this code object through the step tier for the
        #: rest of the process instead of crashing the run.
        self._supervise_demoted = False
        #: executor tier (repro.machine.ladder.Tier, as a plain int) the
        #: engine stamped at compile time: its own tier cap lowered by
        #: the degradation rung the function sat on.  Every executor
        #: gate reads it; hand-built code runs at the top tier
        #: (``Tier.TRACE``, spelled as an int: the machine package
        #: imports this module).
        self._tier = 5
        #: Allocator pool metadata recorded for the static linter: a deopt
        #: location naming a register outside these ranges points at a
        #: scratch register, which check-condition emission may clobber.
        self.allocatable_int_regs: Tuple[int, int] = (8, target.gpr_count - 4)
        self.allocatable_float_regs: Tuple[int, int] = (2, target.fpr_count - 2)
        #: Frame slots available to the allocator (excludes the fp/lr pair).
        self.allocatable_slots = 0

    @property
    def instruction_count(self) -> int:
        return len(self.instrs)

    def body_instruction_count(self) -> int:
        """Instructions excluding deopt stubs (what 'checks per 100
        instructions' is computed over)."""
        return sum(1 for i in self.instrs if i.op != MOp.DEOPT)

    def check_instruction_stats(self) -> Dict[str, int]:
        body = 0
        check_instrs = 0
        branches = 0
        for instr in self.instrs:
            if instr.op == MOp.DEOPT:
                continue
            body += 1
            if instr.check_id >= 0 and not instr.shared_with_main:
                check_instrs += 1
            if instr.is_deopt_branch:
                branches += 1
        return {
            "body_instructions": body,
            "check_instructions": check_instrs,
            "deopt_branches": branches,
        }

    def annotated_asm(self) -> str:
        from ..isa.asmprint import format_code

        return format_code(self.instrs, title=f"{self.shared.info.name} [{self.target.name}]")


class CodeGenerator:
    def __init__(
        self,
        builder: GraphBuilder,
        target: TargetISA,
        emit_check_branches: bool = True,
    ) -> None:
        self.builder = builder
        self.graph = builder.graph
        self.target = target
        self.emit_check_branches = emit_check_branches
        gpr = target.gpr_count
        self.int_pool = list(range(8, gpr - 4))
        self.scratch = [gpr - 4, gpr - 3, gpr - 2, gpr - 1]
        self.float_pool = list(range(2, target.fpr_count - 2))
        self.float_scratch = [target.fpr_count - 2, target.fpr_count - 1]
        self.code = CodeObject(builder.shared, target)
        self.allocation: Optional[Allocation] = None
        self._scratch_index = 0
        self._fscratch_index = 0
        self._block_pc: Dict[int, int] = {}
        self._branch_patches: List[Tuple[int, int]] = []  # (instr idx, block id)
        self._deopt_patches: List[Tuple[int, int]] = []  # (instr idx, check id)
        self._next_check_id = 0
        self._fused_loads: Dict[int, Node] = {}  # untag node id -> load node
        self._skip: Set[int] = set()  # node ids with no direct emission
        self._uses: Dict[int, int] = {}
        self._emitted_blocks: List[Block] = []
        #: out-of-line runtime-call stubs: (branch_idx, continuation_pc, name)
        self._ool_stubs: List[Tuple[int, int, str]] = []
        cell_fn = getattr(builder.context, "interrupt_cell_word", None)
        self._interrupt_cell = cell_fn() if cell_fn is not None else None
        nursery_fn = getattr(builder.context, "nursery_cell_word", None)
        self._nursery_cell = nursery_fn() if nursery_fn is not None else None
        number_map = getattr(builder.heap, "number_map", None)
        self._number_map_word = (
            pointer_tag(builder.heap.ensure_map_registered(number_map).address)
            if number_map is not None
            else None
        )
        #: stubs that need a result move: (branch_idx, cont_pc, name, dst_reg)
        self._alloc_stubs: List[Tuple[int, int, int]] = []
        self._fp_lr_slots = 0

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def generate(self) -> CodeObject:
        blocks = [b for b in self.graph.blocks if b.nodes]
        self._uses = self.graph.compute_uses()
        if self.target.has_smi_extension:
            self._find_smi_fusions(blocks)
        self._find_branch_fusions(blocks)
        self.allocation = allocate(
            [self._strip_fused(b) for b in blocks], self.int_pool, self.float_pool
        )
        # Two extra slots model the fp/lr save area of a real frame.
        self._fp_lr_slots = self.allocation.slot_count
        self.code.stack_slots = self.allocation.slot_count + 2
        self.code.allocatable_slots = self.allocation.slot_count
        self.code.allocatable_int_regs = (self.int_pool[0], self.int_pool[-1] + 1)
        self.code.allocatable_float_regs = (self.float_pool[0], self.float_pool[-1] + 1)
        self.code.embedded_words = set(self.builder.embedded_words)
        self.code.map_dependencies = set(self.builder.map_dependencies)
        # IR-level check provenance (repro.ir.passes.summary), recorded by
        # the pipeline; absent when a caller built the graph by hand.
        self.code.ir_check_summary = getattr(self.builder, "check_summary", None)

        self._emit_prologue()
        self._emitted_blocks = blocks
        for index, block in enumerate(blocks):
            self._block_pc[block.id] = len(self.code.instrs)
            if block.loop_header:
                self._emit_interrupt_check("loop interrupt check")
            next_block = blocks[index + 1] if index + 1 < len(blocks) else None
            self._emit_block(block, next_block)
        self._emit_ool_stubs()
        self._emit_deopt_stubs()
        self._patch_branches()
        self.code.compile_cycles = 60 * len(self.code.instrs) + 150
        return self.code

    def _strip_fused(self, block: Block) -> Block:
        # For allocation purposes, fused loads produce no value that needs a
        # location; we keep them in the schedule (position holders) but they
        # are never referenced once checkpoints were redirected.
        return block

    # ------------------------------------------------------------------
    # Pre-passes
    # ------------------------------------------------------------------

    def _uses_excluding_checkpoints(self) -> Dict[int, int]:
        return self._uses

    def _find_smi_fusions(self, blocks: List[Block]) -> None:
        """Find load -> untag pairs to fuse into jsldrsmi (Section V)."""
        fusable_loads = {"load_field", "load_element", "load_element_signed"}
        checkpoints: List[Checkpoint] = []
        for block in blocks:
            for node in block.nodes:
                if node.checkpoint is not None:
                    checkpoints.append(node.checkpoint)
        for block in blocks:
            previous_value: Optional[Node] = None
            for node in block.nodes:
                if node.op in ("untag_signed", "checked_untag"):
                    load = node.inputs[0]
                    if (
                        load.op in fusable_loads
                        and load.block is block
                        and previous_value is load
                        and self._uses.get(load.id, 0) == 1
                        and not load.param("global", False)
                    ):
                        self._fused_loads[node.id] = load
                        self._skip.add(load.id)
                if node.produces_value:
                    previous_value = node
                elif node.op in (
                    "store_field",
                    "store_element",
                    "store_element_float",
                    "call_rt",
                    "call_js",
                    "call_dyn",
                ):
                    previous_value = None  # memory may have changed
        if not self._fused_loads:
            return
        fused_ids = {load.id for load in self._fused_loads.values()}
        replacements = {
            load.id: untag_id for untag_id, load in
            ((uid, ld) for uid, ld in self._fused_loads.items())
        }
        by_id: Dict[int, Node] = {}
        for block in blocks:
            for node in block.nodes:
                by_id[node.id] = node
        for checkpoint in checkpoints:
            new_values = []
            for reg, value in checkpoint.values:
                if value.id in fused_ids:
                    value = by_id[replacements[value.id]]
                new_values.append((reg, value))
            checkpoint.values = new_values

    def _find_branch_fusions(self, blocks: List[Block]) -> None:
        """cmp nodes used only by a branch in the same block emit nothing at
        their own position; the branch emits cmp+bcc."""
        no_code_ops = {"const_int32", "const_float", "const_tagged", "parameter", "this", "phi"}
        for block in blocks:
            terminator = block.terminator
            if terminator is None or terminator.op != "branch":
                continue
            condition = terminator.inputs[0]
            if (
                condition.op not in ("int32_cmp", "float64_cmp")
                or condition.block is not block
                or self._uses.get(condition.id, 0) != 1
            ):
                continue
            # Fusing delays the cmp to the branch position, so nothing that
            # emits code (and could clobber the cmp's operand registers) may
            # sit between them — edge conversions inserted before the
            # terminator are the typical offender.
            try:
                cmp_index = block.nodes.index(condition)
            except ValueError:
                continue
            between = block.nodes[cmp_index + 1 : len(block.nodes) - 1]
            if any(not n.dead and n.op not in no_code_ops for n in between):
                continue
            self._skip.add(condition.id)
            terminator.params["fused_cmp"] = condition

    # ------------------------------------------------------------------
    # Operand plumbing
    # ------------------------------------------------------------------

    def _reset_scratch(self) -> None:
        self._scratch_index = 0
        self._fscratch_index = 0

    def _take_scratch(self) -> int:
        if self._scratch_index >= len(self.scratch):
            raise BailoutCompilation("out of scratch registers")
        register = self.scratch[self._scratch_index]
        self._scratch_index += 1
        return register

    def _take_fscratch(self) -> int:
        if self._fscratch_index >= len(self.float_scratch):
            raise BailoutCompilation("out of float scratch registers")
        register = self.float_scratch[self._fscratch_index]
        self._fscratch_index += 1
        return register

    def emit(self, op: MOp, **kwargs) -> MachineInstr:
        instr = MachineInstr(op, **kwargs)
        self.code.instrs.append(instr)
        return instr

    def _loc(self, node: Node) -> Optional[Assignment]:
        assert self.allocation is not None
        return self.allocation.location_of(node)

    def use_int(self, node: Node, check_id: int = -1) -> int:
        """Register holding the (int-file) value of ``node``."""
        if node.op == "const_int32":
            scratch = self._take_scratch()
            self.emit(MOp.MOVI, dst=scratch, imm=int(node.param("imm", 0)), check_id=check_id)
            return scratch
        if node.op == "const_tagged":
            scratch = self._take_scratch()
            self.emit(MOp.MOVI, dst=scratch, imm=int(node.param("imm", 0)), check_id=check_id)
            return scratch
        assignment = self._loc(node)
        if assignment is None:
            raise BailoutCompilation(f"value n{node.id}:{node.op} has no location")
        if assignment.kind == "reg":
            return assignment.index
        if assignment.kind == "slot":
            scratch = self._take_scratch()
            self.emit(
                MOp.LDR, dst=scratch, mem=(FRAME_BASE, -1, 0, assignment.index),
                check_id=check_id,
            )
            return scratch
        raise BailoutCompilation(f"int use of float value n{node.id}")

    def use_float(self, node: Node, check_id: int = -1) -> int:
        if node.op == "const_float":
            scratch = self._take_fscratch()
            self.emit(MOp.FMOVI, dst=scratch, imm=float(node.param("imm", 0.0)), check_id=check_id)
            return scratch
        assignment = self._loc(node)
        if assignment is None:
            raise BailoutCompilation(f"value n{node.id}:{node.op} has no location")
        if assignment.kind == "freg":
            return assignment.index
        if assignment.kind == "slot":
            scratch = self._take_fscratch()
            self.emit(MOp.LDRF, dst=scratch, mem=(FRAME_BASE, -1, 0, assignment.index))
            return scratch
        raise BailoutCompilation(f"float use of int value n{node.id}")

    def def_reg(self, node: Node) -> Tuple[int, Optional[int]]:
        """(register to compute into, spill slot or None)."""
        assignment = self._loc(node)
        if assignment is None:
            # Value is dead (kept only for effects); compute into scratch.
            return self._take_scratch(), None
        if assignment.kind == "reg":
            return assignment.index, None
        return self._take_scratch(), assignment.index

    def def_freg(self, node: Node) -> Tuple[int, Optional[int]]:
        assignment = self._loc(node)
        if assignment is None:
            return self._take_fscratch(), None
        if assignment.kind == "freg":
            return assignment.index, None
        return self._take_fscratch(), assignment.index

    def finish_def(self, node: Node, register: int, slot: Optional[int]) -> None:
        if slot is None:
            return
        if node.out_repr == Repr.FLOAT64:
            self.emit(MOp.STRF, s1=register, mem=(FRAME_BASE, -1, 0, slot))
        else:
            self.emit(MOp.STR, s1=register, mem=(FRAME_BASE, -1, 0, slot))

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _new_check(self, node: Node, kind: Optional[CheckKind] = None) -> int:
        check_kind = kind if kind is not None else node.check_kind
        assert check_kind is not None
        check_id = self._next_check_id
        self._next_check_id += 1
        checkpoint = node.checkpoint
        values: List[DeoptValue] = []
        this_location = None
        if checkpoint is not None:
            for reg, value in checkpoint.values:
                values.append(
                    DeoptValue(reg, self._deopt_location(value), value.out_repr.value)
                )
            if checkpoint.this_node is not None:
                this = checkpoint.this_node
                this_location = (self._deopt_location(this), this.out_repr.value)
            bytecode_pc = checkpoint.bytecode_pc
        else:
            bytecode_pc = 0
        self.code.deopt_points[check_id] = DeoptPoint(
            check_id, check_kind, bytecode_pc, tuple(values), this_location
        )
        self.code.check_sites[check_id] = CheckSite(check_id, check_kind, bytecode_pc)
        return check_id

    def _deopt_location(self, node: Node) -> Location:
        if node.op == "const_int32":
            return Location("const_int", int(node.param("imm", 0)))
        if node.op == "const_float":
            return Location("const_float", float(node.param("imm", 0.0)))
        if node.op == "const_tagged":
            return Location("const_tagged", int(node.param("imm", 0)))
        assignment = self._loc(node)
        if assignment is None:
            # The value was never allocated (e.g. it only feeds checkpoints
            # of checks that got eliminated) — treat as undefined.
            return Location("const_tagged", self.builder.heap.undefined)
        return Location(assignment.kind, assignment.index)

    def _emit_deopt_branch(self, cc: CC, check_id: int) -> None:
        if not self.emit_check_branches:
            return
        instr = self.emit(
            MOp.BCC, cc=cc, check_id=check_id, is_deopt_branch=True,
            comment=self.code.check_sites[check_id].kind.name,
        )
        self.code.check_sites[check_id].branch_pc = len(self.code.instrs) - 1
        self._deopt_patches.append((len(self.code.instrs) - 1, check_id))

    def _emit_deopt_stubs(self) -> None:
        for check_id, site in self.code.check_sites.items():
            site.stub_pc = len(self.code.instrs)
            self.emit(MOp.DEOPT, imm=check_id, check_id=check_id)
        for instr_index, check_id in self._deopt_patches:
            self.code.instrs[instr_index].target = self.code.check_sites[check_id].stub_pc

    def _patch_branches(self) -> None:
        for instr_index, block_id in self._branch_patches:
            self.code.instrs[instr_index].target = self._block_pc[block_id]

    def _emit_interrupt_check(self, comment: str) -> None:
        """V8-style stack/interrupt budget check: a load of the interrupt
        cell, a compare, and a never-taken branch to an out-of-line runtime
        call.  These are *main-line* instructions (not checks) and exist in
        every V8 function prologue and at every loop back edge."""
        if self._interrupt_cell is None:
            return
        self._reset_scratch()
        scratch = self._take_scratch()
        from ..values.heap import FIXED_ARRAY_ELEMENTS_OFFSET as _FA

        base = self._take_scratch()
        self.emit(MOp.MOVI, dst=base, imm=self._interrupt_cell, comment=comment)
        self.emit(MOp.LDR, dst=scratch, mem=(base, -1, 0, _FA))
        self.emit(MOp.CMPI, s1=scratch, imm=0)
        branch_index = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.NE)
        self._ool_stubs.append((branch_index, len(self.code.instrs), "interrupt"))

    def _emit_write_barrier(self, base_reg: int, value_node: Node) -> None:
        """Generational write barrier for tagged stores (V8 emits one for
        every store of a possibly-pointer value into the heap): smi values
        skip it; the page-flag test is never-taken to the out-of-line call.
        Statically-SMI values elide the barrier entirely."""
        if value_node.out_repr != Repr.TAGGED:
            return
        value = self.use_int(value_node)
        self.emit(MOp.TSTI, s1=value, imm=1, comment="barrier: smi skip")
        skip_index = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.EQ)  # smi -> no barrier (local forward)
        scratch = self._take_scratch()
        self.emit(MOp.ANDI, dst=scratch, s1=base_reg, imm=-4096, comment="page")
        self.emit(MOp.CMPI, s1=scratch, imm=1, comment="page flags")
        branch_index = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.EQ)  # never taken
        self._ool_stubs.append((branch_index, len(self.code.instrs), "write_barrier"))
        self.code.instrs[skip_index].target = len(self.code.instrs)

    def _emit_ool_stubs(self) -> None:
        for branch_index, continuation, name in self._ool_stubs:
            stub_pc = len(self.code.instrs)
            self.code.instrs[branch_index].target = stub_pc
            self.emit(MOp.CALL_RT, aux=(name, None), args=(), comment=f"ool {name}")
            self.emit(MOp.B, target=continuation)
        for branch_index, continuation, result_reg in self._alloc_stubs:
            stub_pc = len(self.code.instrs)
            self.code.instrs[branch_index].target = stub_pc
            self.emit(
                MOp.CALL_RT, aux=("alloc_number_slow", None), args=(),
                comment="ool alloc slow path",
            )
            if result_reg != 0:
                self.emit(MOp.MOVR, dst=result_reg, s1=0)
            self.emit(MOp.B, target=continuation)

    # ------------------------------------------------------------------
    # Prologue / epilogue
    # ------------------------------------------------------------------

    def _emit_prologue(self) -> None:
        # Frame build: stp fp, lr / mov fp, sp (modelled as two frame stores).
        self.emit(MOp.STR, s1=0, mem=(FRAME_BASE, -1, 0, self._fp_lr_slots),
                  comment="push fp")
        self.emit(MOp.STR, s1=0, mem=(FRAME_BASE, -1, 0, self._fp_lr_slots + 1),
                  comment="push lr")
        self._emit_interrupt_check("stack check")
        if self.target.has_smi_extension and self._fused_loads:
            scratch = self.scratch[0]
            # adrp/add/msr sequence installing the bailout handler (Fig. 11).
            self.emit(MOp.MOVI, dst=scratch, imm=0, comment="adrp bailout_handler")
            self.emit(MOp.ADDI, dst=scratch, s1=scratch, imm=0, comment=":lo12:bailout_handler")
            self.emit(MOp.MSR, s1=scratch, imm=REG_BA, comment="install REG_BA")
        for block in self.graph.blocks:
            for node in block.nodes:
                if node.op == "parameter":
                    assignment = self._loc(node)
                    if assignment is None:
                        continue
                    index = int(node.param("index", 0))
                    source = JS_ARG_REGS[index]
                    if assignment.kind == "reg":
                        if assignment.index != source:
                            self.emit(MOp.MOVR, dst=assignment.index, s1=source)
                    else:
                        self.emit(MOp.STR, s1=source, mem=(FRAME_BASE, -1, 0, assignment.index))
                elif node.op == "this":
                    assignment = self._loc(node)
                    if assignment is None:
                        continue
                    if assignment.kind == "reg":
                        self.emit(MOp.MOVR, dst=assignment.index, s1=THIS_REG)
                    else:
                        self.emit(MOp.STR, s1=THIS_REG, mem=(FRAME_BASE, -1, 0, assignment.index))

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------

    def _emit_block(self, block: Block, next_block: Optional[Block]) -> None:
        for node in block.nodes:
            if node.dead or node.id in self._skip:
                continue
            self._reset_scratch()
            self._emit_node(node, block, next_block)

    # -- phi moves ---------------------------------------------------------

    def _phi_moves(self, pred: Block, succ: Block) -> List[Tuple[Assignment, Node]]:
        moves: List[Tuple[Assignment, Node]] = []
        try:
            pred_index = succ.predecessors.index(pred)
        except ValueError:
            return moves
        for node in succ.nodes:
            if node.op != "phi" or node.dead:
                continue
            if pred_index >= len(node.inputs):
                continue
            destination = self._loc(node)
            if destination is None:
                continue
            source = node.inputs[pred_index]
            moves.append((destination, source))
        return moves

    def _emit_parallel_moves(self, moves: List[Tuple[Assignment, Node]]) -> None:
        pending: List[Tuple[Assignment, Optional[Node], Optional[Assignment]]] = []
        for destination, source in moves:
            source_assignment = (
                self._loc(source)
                if source.op not in ("const_int32", "const_float", "const_tagged")
                else None
            )
            if source_assignment is not None and (
                source_assignment.kind == destination.kind
                and source_assignment.index == destination.index
            ):
                continue
            pending.append((destination, source, source_assignment))

        spilled: Dict[Tuple[str, int], Tuple[str, int]] = {}

        def src_key(assignment: Optional[Assignment]):
            if assignment is None:
                return None
            return (assignment.kind, assignment.index)

        while pending:
            emitted_one = False
            for index, (destination, source, source_assignment) in enumerate(pending):
                destination_key = (destination.kind, destination.index)
                conflict = any(
                    src_key(other_src) == destination_key
                    for other_index, (_d, _s, other_src) in enumerate(pending)
                    if other_index != index
                )
                if not conflict:
                    self._reset_scratch()
                    self._emit_single_move(destination, source, source_assignment, spilled)
                    pending.pop(index)
                    emitted_one = True
                    break
            if not emitted_one:
                # Cycle: park the first source in a scratch register.
                destination, source, source_assignment = pending[0]
                assert source_assignment is not None
                self._reset_scratch()
                park = (
                    self.float_scratch[-1]
                    if source_assignment.kind == "freg"
                    else self.scratch[-1]
                )
                self._load_assignment(park, source_assignment)
                spilled[(source_assignment.kind, source_assignment.index)] = (
                    "freg" if source_assignment.kind == "freg" else "reg",
                    park,
                )
                new_kind = "freg" if source_assignment.kind == "freg" else "reg"
                pending[0] = (destination, source, Assignment(new_kind, park))
                # Update other moves reading the parked location.
                for j in range(1, len(pending)):
                    d_j, s_j, a_j = pending[j]
                    if src_key(a_j) == (source_assignment.kind, source_assignment.index):
                        pending[j] = (d_j, s_j, Assignment(new_kind, park))

    def _load_assignment(self, register: int, assignment: Assignment) -> None:
        if assignment.kind == "reg":
            self.emit(MOp.MOVR, dst=register, s1=assignment.index)
        elif assignment.kind == "freg":
            self.emit(MOp.FMOVR, dst=register, s1=assignment.index)
        else:
            self.emit(MOp.LDR, dst=register, mem=(FRAME_BASE, -1, 0, assignment.index))

    def _emit_single_move(
        self,
        destination: Assignment,
        source: Node,
        source_assignment: Optional[Assignment],
        spilled: Dict,
    ) -> None:
        if source_assignment is None:
            # Constant rematerialization straight into the destination.
            if source.op == "const_float":
                if destination.kind == "freg":
                    self.emit(MOp.FMOVI, dst=destination.index, imm=float(source.param("imm", 0.0)))
                else:
                    scratch = self._take_fscratch()
                    self.emit(MOp.FMOVI, dst=scratch, imm=float(source.param("imm", 0.0)))
                    self.emit(MOp.STRF, s1=scratch, mem=(FRAME_BASE, -1, 0, destination.index))
            else:
                imm = int(source.param("imm", 0))
                if destination.kind == "reg":
                    self.emit(MOp.MOVI, dst=destination.index, imm=imm)
                else:
                    scratch = self._take_scratch()
                    self.emit(MOp.MOVI, dst=scratch, imm=imm)
                    self.emit(MOp.STR, s1=scratch, mem=(FRAME_BASE, -1, 0, destination.index))
            return
        actual = spilled.get((source_assignment.kind, source_assignment.index))
        if actual is not None:
            source_assignment = Assignment(actual[0], actual[1])
        kind = source_assignment.kind
        if destination.kind == "reg":
            self._load_assignment(destination.index, source_assignment)
        elif destination.kind == "freg":
            if kind == "freg":
                self.emit(MOp.FMOVR, dst=destination.index, s1=source_assignment.index)
            else:
                self.emit(MOp.LDRF, dst=destination.index, mem=(FRAME_BASE, -1, 0, source_assignment.index))
        else:  # slot destination
            if kind == "reg":
                self.emit(MOp.STR, s1=source_assignment.index, mem=(FRAME_BASE, -1, 0, destination.index))
            elif kind == "freg":
                self.emit(MOp.STRF, s1=source_assignment.index, mem=(FRAME_BASE, -1, 0, destination.index))
            else:
                scratch = self._take_scratch()
                self.emit(MOp.LDR, dst=scratch, mem=(FRAME_BASE, -1, 0, source_assignment.index))
                self.emit(MOp.STR, s1=scratch, mem=(FRAME_BASE, -1, 0, destination.index))

    def _emit_edge(self, pred: Block, succ_block: Block, next_block: Optional[Block]) -> None:
        """Phi moves + jump for an unconditional edge."""
        moves = self._phi_moves(pred, succ_block)
        self._emit_parallel_moves(moves)
        if next_block is not succ_block:
            instr = self.emit(MOp.B)
            self._branch_patches.append((len(self.code.instrs) - 1, succ_block.id))

    # ------------------------------------------------------------------
    # Node emission
    # ------------------------------------------------------------------

    def _emit_node(self, node: Node, block: Block, next_block: Optional[Block]) -> None:
        op = node.op
        handler = getattr(self, f"_emit_{op}", None)
        if handler is not None:
            handler(node, block, next_block)
            return
        raise BailoutCompilation(f"no emitter for IR op {op!r}")

    # constants / parameters produce no code at their position
    def _emit_const_int32(self, node, block, next_block):  # noqa: D401
        pass

    _emit_const_float = _emit_const_int32
    _emit_const_tagged = _emit_const_int32
    _emit_parameter = _emit_const_int32
    _emit_this = _emit_const_int32
    _emit_phi = _emit_const_int32

    # -- moves / tagging ---------------------------------------------------

    def _emit_tag_int32(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(MOp.LSLI, dst=register, s1=source, imm=1)
        self.finish_def(node, register, slot)

    def _emit_checked_tag_int32(self, node, block, next_block):
        check_id = self._new_check(node)
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.ADDS, dst=register, s1=source, s2=source,
            check_id=check_id, shared_with_main=True, comment="smi tag",
        )
        self._emit_deopt_branch(CC.VS, check_id)
        self.finish_def(node, register, slot)

    def _emit_untag_signed(self, node, block, next_block):
        fused = self._fused_loads.get(node.id)
        if fused is not None:
            self._emit_jsldrsmi(node, fused, check_id=-1)
            return
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(MOp.ASRI, dst=register, s1=source, imm=1)
        self.finish_def(node, register, slot)

    def _emit_checked_untag(self, node, block, next_block):
        fused = self._fused_loads.get(node.id)
        if fused is not None:
            check_id = self._new_check(node)
            self._emit_jsldrsmi(node, fused, check_id=check_id)
            return
        check_id = self._new_check(node)
        source = self.use_int(node.inputs[0])
        self.emit(MOp.TSTI, s1=source, imm=1, check_id=check_id)
        self._emit_deopt_branch(CC.NE, check_id)
        register, slot = self.def_reg(node)
        self.emit(MOp.ASRI, dst=register, s1=source, imm=1)
        self.finish_def(node, register, slot)

    def _emit_jsldrsmi(self, untag_node: Node, load_node: Node, check_id: int) -> None:
        mem = self._mem_for_load(load_node)
        register, slot = self.def_reg(untag_node)
        pc = len(self.code.instrs)
        self.emit(
            MOp.JSLDRSMI, dst=register, mem=mem, check_id=check_id,
            comment="fused SMI load",
        )
        if check_id >= 0:
            self.code.smi_load_checks[pc] = check_id
        self.finish_def(untag_node, register, slot)

    def _mem_for_load(self, load_node: Node) -> Mem:
        if load_node.op == "load_field":
            base = self.use_int(load_node.inputs[0])
            return (base, -1, 0, int(load_node.param("offset", 0)))
        base = self.use_int(load_node.inputs[0])
        index = self.use_int(load_node.inputs[1])
        return (base, index, 0, int(load_node.param("base_offset", 0)))

    # -- integer ALU ---------------------------------------------------------

    def _emit_int32_binary(self, node, mop: MOp) -> None:
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(mop, dst=register, s1=lhs, s2=rhs)
        self.finish_def(node, register, slot)

    def _emit_int32_add(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.ADD)

    def _emit_int32_sub(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.SUB)

    def _emit_int32_mul(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.MUL)

    def _emit_int32_and(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.AND)

    def _emit_int32_or(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.ORR)

    def _emit_int32_xor(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.EOR)

    def _emit_int32_shl(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.LSL)

    def _emit_int32_sar(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.ASR)

    def _emit_int32_shr(self, node, block, next_block):
        self._emit_int32_binary(node, MOp.LSR)

    def _emit_int32_neg(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(MOp.NEGS, dst=register, s1=source)
        self.finish_def(node, register, slot)

    def _emit_checked_arith(self, node, mop: MOp) -> None:
        check_id = self._new_check(node)
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(
            mop, dst=register, s1=lhs, s2=rhs,
            check_id=check_id, shared_with_main=True,
        )
        self._emit_deopt_branch(CC.VS, check_id)
        self.finish_def(node, register, slot)

    def _emit_checked_int32_add(self, node, block, next_block):
        self._emit_checked_arith(node, MOp.ADDS)

    def _emit_checked_int32_sub(self, node, block, next_block):
        self._emit_checked_arith(node, MOp.SUBS)

    def _emit_checked_int32_mul(self, node, block, next_block):
        check_id = self._new_check(node)
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.MULS, dst=register, s1=lhs, s2=rhs,
            check_id=check_id, shared_with_main=True, comment="smull+cmp",
        )
        self._emit_deopt_branch(CC.VS, check_id)
        if node.param("minus_zero_check", True):
            # Minus-zero: result 0 with a negative operand deopts.  Elided
            # when every consumer truncates (V8's truncation analysis).
            mz_id = self._new_check(node, CheckKind.MINUS_ZERO)
            sign_scratch = self._take_scratch()
            self.emit(MOp.ORR, dst=sign_scratch, s1=lhs, s2=rhs, check_id=mz_id)
            self.emit(MOp.MZCMP, s1=register, s2=sign_scratch, check_id=mz_id)
            self._emit_deopt_branch(CC.EQ, mz_id)
        self.finish_def(node, register, slot)

    def _emit_checked_int32_neg(self, node, block, next_block):
        check_id = self._new_check(node)
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.NEGS, dst=register, s1=source,
            check_id=check_id, shared_with_main=True,
        )
        self._emit_deopt_branch(CC.EQ, check_id)  # -0 when source was 0
        self.finish_def(node, register, slot)

    def _emit_check_nonzero(self, node, block, next_block):
        check_id = self._new_check(node)
        source = self.use_int(node.inputs[0], check_id=check_id)
        self.emit(MOp.CMPI, s1=source, imm=0, check_id=check_id)
        self._emit_deopt_branch(CC.EQ, check_id)

    def _emit_checked_int32_div(self, node, block, next_block):
        check_id = self._new_check(node)
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(MOp.SDIV, dst=register, s1=lhs, s2=rhs)
        scratch = self._take_scratch()
        self.emit(MOp.MUL, dst=scratch, s1=register, s2=rhs, check_id=check_id)
        self.emit(MOp.CMP, s1=scratch, s2=lhs, check_id=check_id)
        self._emit_deopt_branch(CC.NE, check_id)
        self.finish_def(node, register, slot)

    def _emit_int32_div(self, node, block, next_block):
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(MOp.SDIV, dst=register, s1=lhs, s2=rhs)
        self.finish_def(node, register, slot)

    def _emit_checked_int32_mod(self, node, block, next_block):
        check_id = self._new_check(node)
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        quotient = self._take_scratch()
        self.emit(MOp.SDIV, dst=quotient, s1=lhs, s2=rhs)
        self.emit(MOp.MUL, dst=quotient, s1=quotient, s2=rhs)
        self.emit(MOp.SUB, dst=register, s1=lhs, s2=quotient)
        self.emit(MOp.MZCMP, s1=register, s2=lhs, check_id=check_id)
        self._emit_deopt_branch(CC.EQ, check_id)
        self.finish_def(node, register, slot)

    def _emit_int32_mod(self, node, block, next_block):
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        quotient = self._take_scratch()
        self.emit(MOp.SDIV, dst=quotient, s1=lhs, s2=rhs)
        self.emit(MOp.MUL, dst=quotient, s1=quotient, s2=rhs)
        self.emit(MOp.SUB, dst=register, s1=lhs, s2=quotient)
        self.finish_def(node, register, slot)

    # -- float ALU -----------------------------------------------------------

    def _emit_float_binary(self, node, mop: MOp) -> None:
        lhs = self.use_float(node.inputs[0])
        rhs = self.use_float(node.inputs[1])
        register, slot = self.def_freg(node)
        self.emit(mop, dst=register, s1=lhs, s2=rhs)
        self.finish_def(node, register, slot)

    def _emit_float64_add(self, node, block, next_block):
        self._emit_float_binary(node, MOp.FADD)

    def _emit_float64_sub(self, node, block, next_block):
        self._emit_float_binary(node, MOp.FSUB)

    def _emit_float64_mul(self, node, block, next_block):
        self._emit_float_binary(node, MOp.FMUL)

    def _emit_float64_div(self, node, block, next_block):
        self._emit_float_binary(node, MOp.FDIV)

    def _emit_float64_neg(self, node, block, next_block):
        source = self.use_float(node.inputs[0])
        register, slot = self.def_freg(node)
        self.emit(MOp.FNEG, dst=register, s1=source)
        self.finish_def(node, register, slot)

    def _emit_float64_abs(self, node, block, next_block):
        source = self.use_float(node.inputs[0])
        register, slot = self.def_freg(node)
        self.emit(MOp.FABS, dst=register, s1=source)
        self.finish_def(node, register, slot)

    def _emit_int32_to_float64(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        register, slot = self.def_freg(node)
        self.emit(MOp.SCVTF, dst=register, s1=source)
        self.finish_def(node, register, slot)

    def _emit_float64_to_int32_trunc(self, node, block, next_block):
        source = self.use_float(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(MOp.FCVTZS, dst=register, s1=source)
        self.finish_def(node, register, slot)

    def _emit_checked_float64_to_int32(self, node, block, next_block):
        check_id = self._new_check(node)
        source = self.use_float(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.FCVTZS, dst=register, s1=source,
            check_id=check_id, shared_with_main=True,
        )
        round_trip = self._take_fscratch()
        self.emit(MOp.SCVTF, dst=round_trip, s1=register, check_id=check_id)
        self.emit(MOp.FCMP, s1=round_trip, s2=source, check_id=check_id)
        self._emit_deopt_branch(CC.NE, check_id)
        self.finish_def(node, register, slot)

    def _emit_to_float64_diamond(self, node, with_check: bool) -> None:
        source = self.use_int(node.inputs[0], check_id=-1)
        register, slot = self.def_freg(node)
        check_id = self._new_check(node) if with_check else -1
        self.emit(MOp.TSTI, s1=source, imm=1)
        smi_branch = self.emit(MOp.BCC, cc=CC.EQ)  # local: smi path
        smi_branch_index = len(self.code.instrs) - 1
        if with_check:
            map_scratch = self._take_scratch()
            self.emit(
                MOp.LDR, dst=map_scratch, mem=(source, -1, 0, MAP_OFFSET),
                check_id=check_id,
            )
            number_map = node.param("number_map")
            self.emit(
                MOp.CMPI, s1=map_scratch,
                imm=pointer_tag(number_map.address),  # type: ignore[union-attr]
                check_id=check_id, comment="HeapNumber map",
            )
            self._emit_deopt_branch(CC.NE, check_id)
        self.emit(MOp.LDRF, dst=register, mem=(source, -1, 0, NUMBER_VALUE_OFFSET))
        done_branch = self.emit(MOp.B)
        done_branch_index = len(self.code.instrs) - 1
        self.code.instrs[smi_branch_index].target = len(self.code.instrs)
        untag_scratch = self._take_scratch()
        self.emit(MOp.ASRI, dst=untag_scratch, s1=source, imm=1)
        self.emit(MOp.SCVTF, dst=register, s1=untag_scratch)
        self.code.instrs[done_branch_index].target = len(self.code.instrs)
        self.finish_def(node, register, slot)

    def _emit_checked_to_float64(self, node, block, next_block):
        self._emit_to_float64_diamond(node, with_check=True)

    def _emit_unchecked_to_float64(self, node, block, next_block):
        self._emit_to_float64_diamond(node, with_check=False)

    # -- comparisons -----------------------------------------------------------

    def _emit_compare_flags(self, node: Node) -> CC:
        cond = str(node.param("cond", "eq"))
        if node.op == "int32_cmp":
            lhs_node, rhs_node = node.inputs
            lhs = self.use_int(lhs_node)
            if rhs_node.op == "const_int32":
                self.emit(MOp.CMPI, s1=lhs, imm=int(rhs_node.param("imm", 0)))
            else:
                rhs = self.use_int(rhs_node)
                self.emit(MOp.CMP, s1=lhs, s2=rhs)
            return _INT_CC[cond]
        lhs = self.use_float(node.inputs[0])
        rhs = self.use_float(node.inputs[1])
        self.emit(MOp.FCMP, s1=lhs, s2=rhs)
        return _FLOAT_CC[cond]

    def _emit_int32_cmp(self, node, block, next_block):
        cc = self._emit_compare_flags(node)
        register, slot = self.def_reg(node)
        self.emit(MOp.CSET, dst=register, cc=cc)
        self.finish_def(node, register, slot)

    _emit_float64_cmp = _emit_int32_cmp

    def _emit_tagged_equal(self, node, block, next_block):
        lhs = self.use_int(node.inputs[0])
        rhs = self.use_int(node.inputs[1])
        self.emit(MOp.CMP, s1=lhs, s2=rhs)
        register, slot = self.def_reg(node)
        self.emit(MOp.CSET, dst=register, cc=CC.EQ)
        self.finish_def(node, register, slot)

    def _emit_bool_not(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(MOp.EORI, dst=register, s1=source, imm=1)
        self.finish_def(node, register, slot)

    def _emit_bool_to_tagged(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        true_word = int(node.param("true_word", 0))
        false_word = int(node.param("false_word", 0))
        register, slot = self.def_reg(node)
        scratch = self._take_scratch()
        self.emit(MOp.MOVI, dst=scratch, imm=true_word - false_word)
        self.emit(MOp.MUL, dst=register, s1=source, s2=scratch)
        self.emit(MOp.ADDI, dst=register, s1=register, imm=false_word)
        self.finish_def(node, register, slot)

    def _emit_float64_truthy(self, node, block, next_block):
        source = self.use_float(node.inputs[0])
        zero = self._take_fscratch()
        self.emit(MOp.FMOVI, dst=zero, imm=0.0)
        self.emit(MOp.FCMP, s1=source, s2=zero)
        register, slot = self.def_reg(node)
        scratch = self._take_scratch()
        self.emit(MOp.CSET, dst=register, cc=CC.NE)  # != 0 (NaN -> true here)
        self.emit(MOp.CSET, dst=scratch, cc=CC.VS)  # NaN flag
        self.emit(MOp.EORI, dst=scratch, s1=scratch, imm=1)
        self.emit(MOp.AND, dst=register, s1=register, s2=scratch)
        self.finish_def(node, register, slot)

    # -- memory ------------------------------------------------------------

    def _emit_load_field(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.LDR, dst=register, mem=(base, -1, 0, int(node.param("offset", 0))),
            comment=str(node.param("name", "")),
        )
        self.finish_def(node, register, slot)

    def _emit_store_field(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        value = self.use_int(node.inputs[1])
        self.emit(
            MOp.STR, s1=value, mem=(base, -1, 0, int(node.param("offset", 0))),
            comment=str(node.param("name", "")),
        )
        self._emit_write_barrier(base, node.inputs[1])

    def _emit_load_element(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        index = self.use_int(node.inputs[1])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.LDR, dst=register,
            mem=(base, index, 0, int(node.param("base_offset", 0))),
        )
        self.finish_def(node, register, slot)

    _emit_load_element_signed = _emit_load_element

    def _emit_load_element_float(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        index = self.use_int(node.inputs[1])
        register, slot = self.def_freg(node)
        self.emit(
            MOp.LDRF, dst=register,
            mem=(base, index, 0, int(node.param("base_offset", 0))),
        )
        self.finish_def(node, register, slot)

    def _emit_store_element(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        index = self.use_int(node.inputs[1])
        value = self.use_int(node.inputs[2])
        self.emit(
            MOp.STR, s1=value,
            mem=(base, index, 0, int(node.param("base_offset", 0))),
        )
        self._emit_write_barrier(base, node.inputs[2])

    def _emit_store_element_float(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        index = self.use_int(node.inputs[1])
        value = self.use_float(node.inputs[2])
        self.emit(
            MOp.STRF, s1=value,
            mem=(base, index, 0, int(node.param("base_offset", 0))),
        )

    def _emit_load_array_length(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.LDR, dst=register, mem=(base, -1, 0, int(node.param("offset", 0))),
            comment="length (smi)",
        )
        self.emit(MOp.ASRI, dst=register, s1=register, imm=1)
        self.finish_def(node, register, slot)

    def _emit_load_string_length(self, node, block, next_block):
        base = self.use_int(node.inputs[0])
        register, slot = self.def_reg(node)
        self.emit(
            MOp.LDR, dst=register, mem=(base, -1, 0, int(node.param("offset", 0))),
            comment="string length",
        )
        self.finish_def(node, register, slot)

    # -- checks --------------------------------------------------------------

    def _emit_check_heap_object(self, node, block, next_block):
        check_id = self._new_check(node)
        source = self.use_int(node.inputs[0], check_id=check_id)
        self.emit(MOp.TSTI, s1=source, imm=1, check_id=check_id)
        self._emit_deopt_branch(CC.EQ, check_id)

    def _emit_check_map(self, node, block, next_block):
        check_id = self._new_check(node)
        expected = node.param("map")
        map_word = pointer_tag(expected.address)  # type: ignore[union-attr]
        source = self.use_int(node.inputs[0], check_id=check_id)
        if self.target.is_cisc:
            self.emit(
                MOp.CMPI_MEM, mem=(source, -1, 0, MAP_OFFSET), imm=map_word,
                check_id=check_id, comment="map check",
            )
        else:
            map_scratch = self._take_scratch()
            self.emit(
                MOp.LDR, dst=map_scratch, mem=(source, -1, 0, MAP_OFFSET),
                check_id=check_id,
            )
            const_scratch = self._take_scratch()
            self.emit(MOp.MOVI, dst=const_scratch, imm=map_word, check_id=check_id)
            self.emit(MOp.CMP, s1=map_scratch, s2=const_scratch, check_id=check_id)
        self._emit_deopt_branch(CC.NE, check_id)

    def _emit_check_bounds(self, node, block, next_block):
        check_id = self._new_check(node)
        index = self.use_int(node.inputs[0], check_id=check_id)
        array = self.use_int(node.inputs[1], check_id=check_id)
        length_offset = int(node.param("length_offset", 0))
        if self.target.is_cisc:
            self.emit(
                MOp.CMP_MEM, s1=index, mem=(array, -1, 0, length_offset),
                check_id=check_id, comment="bounds",
            )
        else:
            length_scratch = self._take_scratch()
            self.emit(
                MOp.LDR, dst=length_scratch, mem=(array, -1, 0, length_offset),
                check_id=check_id,
            )
            self.emit(MOp.CMP, s1=index, s2=length_scratch, check_id=check_id)
        self._emit_deopt_branch(CC.HS, check_id)

    def _emit_check_call_target(self, node, block, next_block):
        check_id = self._new_check(node)
        expected = int(node.param("expected_word", 0))
        source = self.use_int(node.inputs[0], check_id=check_id)
        if self.target.is_cisc:
            self.emit(MOp.CMPI, s1=source, imm=expected, check_id=check_id)
        else:
            scratch = self._take_scratch()
            self.emit(MOp.MOVI, dst=scratch, imm=expected, check_id=check_id)
            self.emit(MOp.CMP, s1=source, s2=scratch, check_id=check_id)
        self._emit_deopt_branch(CC.NE, check_id)

    def _emit_deopt(self, node, block, next_block):
        check_id = self._new_check(node)
        self.emit(MOp.DEOPT, imm=check_id, check_id=check_id, comment="soft deopt")

    # -- calls -----------------------------------------------------------------

    def _emit_call_arguments(self, args: Sequence[Node]) -> List[int]:
        registers = []
        for index, arg in enumerate(args):
            self._reset_scratch()
            source = self.use_int(arg)
            if source != JS_ARG_REGS[index]:
                self.emit(MOp.MOVR, dst=JS_ARG_REGS[index], s1=source)
            registers.append(JS_ARG_REGS[index])
        return registers

    def _emit_call_js(self, node, block, next_block):
        if node.param("this"):
            args = node.inputs[:-1]
            receiver = node.inputs[-1]
        else:
            args = node.inputs
            receiver = None
        if len(args) > len(JS_ARG_REGS):
            raise BailoutCompilation("too many call arguments")
        registers = self._emit_call_arguments(args)
        if receiver is not None:
            self._reset_scratch()
            source = self.use_int(receiver)
            if source != THIS_REG:
                self.emit(MOp.MOVR, dst=THIS_REG, s1=source)
        code_scratch = self._take_scratch()
        self.emit(
            MOp.MOVI, dst=code_scratch, imm=0, comment="code entry"
        )
        self.emit(
            MOp.CALL_JS, imm=int(node.param("shared_index", -1)), args=registers,
            aux=node.param("shared_index"),
        )
        self._reset_scratch()
        register, slot = self.def_reg(node)
        if register != 0:
            self.emit(MOp.MOVR, dst=register, s1=0)
        self.finish_def(node, register, slot)

    def _emit_call_dyn(self, node, block, next_block):
        callee = node.inputs[0]
        args = node.inputs[1:]
        if len(args) > len(JS_ARG_REGS):
            raise BailoutCompilation("too many call arguments")
        registers = self._emit_call_arguments(args)
        self._reset_scratch()
        callee_reg = self.use_int(callee)
        self.emit(MOp.CALL_DYN, s1=callee_reg, args=registers)
        self._reset_scratch()
        register, slot = self.def_reg(node)
        if register != 0:
            self.emit(MOp.MOVR, dst=register, s1=0)
        self.finish_def(node, register, slot)

    def _emit_call_rt(self, node, block, next_block):
        name = str(node.param("name", ""))
        float_args = all(i.out_repr == Repr.FLOAT64 for i in node.inputs) and node.inputs
        if float_args:
            # float-typed runtime helpers (float64_mod): args in f0, f1.
            for index, arg in enumerate(node.inputs):
                self._reset_scratch()
                source = self.use_float(arg)
                if source != index:
                    self.emit(MOp.FMOVR, dst=index, s1=source)
            registers = list(range(len(node.inputs)))
        else:
            if len(node.inputs) > len(JS_ARG_REGS):
                raise BailoutCompilation("too many runtime-call arguments")
            registers = self._emit_call_arguments(node.inputs)
        extra = node.param("keys") or node.param("key")
        self.emit(
            MOp.CALL_RT, aux=(name, extra), args=registers,
            returns_float=node.out_repr == Repr.FLOAT64,
        )
        self._reset_scratch()
        if node.out_repr == Repr.FLOAT64:
            register, slot = self.def_freg(node)
            if register != 0:
                self.emit(MOp.FMOVR, dst=register, s1=0)
        else:
            register, slot = self.def_reg(node)
            if register != 0:
                self.emit(MOp.MOVR, dst=register, s1=0)
        self.finish_def(node, register, slot)

    def _emit_float64_to_tagged(self, node, block, next_block):
        """ChangeFloat64ToTagged: smi fast path, HeapNumber allocation slow
        path (both inline, V8-style)."""
        value = self.use_float(node.inputs[0])
        if value != 0:
            self.emit(MOp.FMOVR, dst=0, s1=value)  # also the ool-alloc argument
            value = 0
        register, slot = self.def_reg(node)
        int_scratch = self._take_scratch()
        round_trip = self._take_fscratch()
        self.emit(MOp.FCVTZS, dst=int_scratch, s1=value, comment="to-smi try")
        self.emit(MOp.SCVTF, dst=round_trip, s1=int_scratch)
        self.emit(MOp.FCMP, s1=round_trip, s2=value)
        to_alloc_1 = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.NE)  # fractional / NaN -> allocate
        self.emit(MOp.ADDS, dst=register, s1=int_scratch, s2=int_scratch, comment="smi tag")
        to_alloc_2 = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.VS)  # out of SMI range -> allocate
        done_branch = len(self.code.instrs)
        self.emit(MOp.B)
        alloc_pc = len(self.code.instrs)
        self.code.instrs[to_alloc_1].target = alloc_pc
        self.code.instrs[to_alloc_2].target = alloc_pc
        self._emit_inline_allocation(register, value)
        self.code.instrs[done_branch].target = len(self.code.instrs)
        self.finish_def(node, register, slot)

    def _emit_inline_allocation(self, register: int, value_freg: int) -> None:
        """Bump-allocate a HeapNumber into ``register`` (fast path + ool)."""
        if self._nursery_cell is None or self._number_map_word is None:
            self.emit(MOp.CALL_RT, aux=("alloc_number", None), args=())
            if register != 0:
                self.emit(MOp.MOVR, dst=register, s1=0)
            return
        cell = self._take_scratch()
        limit = self._take_scratch()
        self.emit(MOp.MOVI, dst=cell, imm=self._nursery_cell, comment="nursery")
        from ..values.heap import FIXED_ARRAY_ELEMENTS_OFFSET as _FA

        self.emit(MOp.LDR, dst=register, mem=(cell, -1, 0, _FA), comment="alloc top")
        self.emit(MOp.LDR, dst=limit, mem=(cell, -1, 0, _FA + 1), comment="alloc limit")
        self.emit(MOp.CMP, s1=register, s2=limit)
        branch_index = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.HS)  # nursery full -> out of line
        self.emit(MOp.ADDI, dst=limit, s1=register, imm=4, comment="bump (2 words)")
        self.emit(MOp.STR, s1=limit, mem=(cell, -1, 0, _FA))
        self.emit(MOp.MOVI, dst=limit, imm=self._number_map_word, comment="HeapNumber map")
        self.emit(MOp.STR, s1=limit, mem=(register, -1, 0, 0))
        self.emit(MOp.STRF, s1=value_freg, mem=(register, -1, 0, NUMBER_VALUE_OFFSET))
        self._alloc_stubs.append((branch_index, len(self.code.instrs), register))

    def _emit_alloc_heap_number(self, node, block, next_block):
        if self._nursery_cell is None or self._number_map_word is None:
            source = self.use_float(node.inputs[0])
            if source != 0:
                self.emit(MOp.FMOVR, dst=0, s1=source)
            self.emit(MOp.CALL_RT, aux=("alloc_number", None), args=())
            self._reset_scratch()
            register, slot = self.def_reg(node)
            if register != 0:
                self.emit(MOp.MOVR, dst=register, s1=0)
            self.finish_def(node, register, slot)
            return
        # V8-style inline allocation fast path: bump the nursery top, write
        # the map and the payload; overflow goes out of line.
        value = self.use_float(node.inputs[0])
        if value != 0:
            self.emit(MOp.FMOVR, dst=0, s1=value)  # slow path argument
            value = 0
        register, slot = self.def_reg(node)
        cell = self._take_scratch()
        limit = self._take_scratch()
        self.emit(MOp.MOVI, dst=cell, imm=self._nursery_cell, comment="nursery")
        from ..values.heap import FIXED_ARRAY_ELEMENTS_OFFSET as _FA

        self.emit(MOp.LDR, dst=register, mem=(cell, -1, 0, _FA), comment="alloc top")
        self.emit(MOp.LDR, dst=limit, mem=(cell, -1, 0, _FA + 1), comment="alloc limit")
        self.emit(MOp.CMP, s1=register, s2=limit)
        branch_index = len(self.code.instrs)
        self.emit(MOp.BCC, cc=CC.HS)  # nursery full -> out of line
        cont_after_slow = -1  # patched below
        new_top = self._take_scratch()
        self.emit(MOp.ADDI, dst=new_top, s1=register, imm=4, comment="bump (2 words)")
        self.emit(MOp.STR, s1=new_top, mem=(cell, -1, 0, _FA))
        self.emit(MOp.MOVI, dst=limit, imm=self._number_map_word, comment="HeapNumber map")
        self.emit(MOp.STR, s1=limit, mem=(register, -1, 0, 0))
        self.emit(MOp.STRF, s1=value, mem=(register, -1, 0, NUMBER_VALUE_OFFSET))
        self._alloc_stubs.append((branch_index, len(self.code.instrs), register))
        self.finish_def(node, register, slot)

    # -- control -----------------------------------------------------------------

    def _emit_goto(self, node, block, next_block):
        succ_block = node.param("target_block")
        assert succ_block is not None
        self._emit_edge(block, succ_block, next_block)

    def _emit_branch(self, node, block, next_block):
        fused: Optional[Node] = node.param("fused_cmp")  # type: ignore[assignment]
        if fused is not None:
            cc = self._emit_compare_flags(fused)
        else:
            condition = self.use_int(node.inputs[0])
            self.emit(MOp.CMPI, s1=condition, imm=0)
            cc = CC.NE
        true_block = node.param("true_block")
        false_block = node.param("false_block")
        assert true_block is not None and false_block is not None
        true_moves = self._phi_moves(block, true_block)
        false_moves = self._phi_moves(block, false_block)
        if not true_moves:
            branch = self.emit(MOp.BCC, cc=cc)
            self._branch_patches.append((len(self.code.instrs) - 1, true_block.id))
            self._emit_parallel_moves(false_moves)
            if next_block is not false_block:
                self.emit(MOp.B)
                self._branch_patches.append((len(self.code.instrs) - 1, false_block.id))
        elif not false_moves:
            inverted = _NEGATE_CC[cc] if fused is None or fused.op == "int32_cmp" else None
            if inverted is not None:
                branch = self.emit(MOp.BCC, cc=inverted)
                self._branch_patches.append((len(self.code.instrs) - 1, false_block.id))
                self._emit_parallel_moves(true_moves)
                if next_block is not true_block:
                    self.emit(MOp.B)
                    self._branch_patches.append((len(self.code.instrs) - 1, true_block.id))
            else:
                # Cannot safely invert a float condition (NaN); use an edge
                # trampoline for the true side.
                branch = self.emit(MOp.BCC, cc=cc)
                trampoline_patch = len(self.code.instrs) - 1
                self.emit(MOp.B)
                self._branch_patches.append((len(self.code.instrs) - 1, false_block.id))
                self.code.instrs[trampoline_patch].target = len(self.code.instrs)
                self._emit_parallel_moves(true_moves)
                self.emit(MOp.B)
                self._branch_patches.append((len(self.code.instrs) - 1, true_block.id))
        else:
            branch = self.emit(MOp.BCC, cc=cc)
            trampoline_patch = len(self.code.instrs) - 1
            self._emit_parallel_moves(false_moves)
            self.emit(MOp.B)
            self._branch_patches.append((len(self.code.instrs) - 1, false_block.id))
            self.code.instrs[trampoline_patch].target = len(self.code.instrs)
            self._emit_parallel_moves(true_moves)
            self.emit(MOp.B)
            self._branch_patches.append((len(self.code.instrs) - 1, true_block.id))

    def _emit_return(self, node, block, next_block):
        source = self.use_int(node.inputs[0])
        if source != 0:
            self.emit(MOp.MOVR, dst=0, s1=source)
        # Frame teardown: ldp fp, lr (modelled as two frame loads).
        scratch = self._take_scratch()
        self.emit(MOp.LDR, dst=scratch, mem=(FRAME_BASE, -1, 0, self._fp_lr_slots),
                  comment="pop fp")
        self.emit(MOp.LDR, dst=scratch, mem=(FRAME_BASE, -1, 0, self._fp_lr_slots + 1),
                  comment="pop lr")
        self.emit(MOp.RET, s1=0)


def generate_code(
    builder: GraphBuilder, target: TargetISA, emit_check_branches: bool = True
) -> CodeObject:
    """Run register allocation + instruction selection for ``builder``."""
    return CodeGenerator(builder, target, emit_check_branches).generate()
