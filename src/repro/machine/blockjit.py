"""Block-compiled executor: superinstruction fusion for the step loop.

PR 2's decode-once dispatch removed the per-retire enum/attribute traffic
but still pays, for every instruction, a tuple unpack, a dispatch-chain
walk, a cycle add and a sampler poll.  This module takes the next rung on
the ladder real engines climb to escape interpreter dispatch — in the
spirit of lazy basic-block versioning (Chevalier-Boisvert & Feeley, VEE
2015): it partitions each code object's decoded instruction stream into
basic blocks and translates every block into one fused Python closure (a
*superinstruction*) that

* executes the whole straight-line body against the register file / heap
  with operands and immediates inlined as literals (no dispatch, no
  decoded-tuple traffic),
* charges the block's precomputed base cycle cost in a single add
  (the same left-folded float the step loop reaches via its per-pc
  ``entry + prefix`` accounting, so totals are bit-identical),
* applies branch-predictor updates, taken/mispredict penalties and flag
  effects at block exit, and
* returns the next block id.

Fidelity discipline follows Deoptless (Flückiger et al., 2022): the fast
path may *bail out*, never diverge.  Each block therefore also compiles a
**stepped twin** — same generated statements, plus the step loop's per-pc
cycle/sampler prologue — and the driver in
:meth:`repro.machine.executor.Executor._run_blocks` routes a block
through its twin whenever per-instruction fidelity is required:

* a PC-sampling tick lands inside the block's cycle window (proved via
  the window API in :mod:`repro.profiling.sampler`), or
* an injected deopt trip is pending
  (:attr:`Executor.forced_deopt_trips`), so the trip lands on the exact
  deopt branch the step loop would have tripped.

Instruction tracing for the pipeline models disables block mode entirely
(the step loop is the only tier that materializes traces).

Partition rules (:func:`repro.isa.semantics.fused_block_leaders`): block
leaders are the entry pc, every branch target, and the fall-through after
every branch, call, ``RET``/``DEOPT`` and ``JSLDRSMI`` commit point.
Calls end blocks because they flush/reload the cycle clock; ``jsldrsmi``
ends its block because its commit-time bailout must observe cycles exact
to its own pc.  Consequently every raise point is a block's *last*
instruction, which is what makes block-batched statistics exact.  The
machine-code linter (:mod:`repro.analysis.mclint`) independently verifies
this partition against the label/branch structure of the code.

Tables are cached on ``CodeObject._blocks`` next to ``_decoded``; code
objects are immutable so the cache is never invalidated, but it is
rebuilt if a different executor runs the code (closures bind executor
state).  Tiers below ``block`` (``REPRO_TIER=opt``, see
:mod:`repro.machine.ladder`) run the step loop, which remains the
timing/sampling reference.
"""

from __future__ import annotations

import operator
from math import copysign, inf, isinf, isnan
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..isa.base import CC, REG_PC, REG_RE
from ..isa.semantics import fused_block_leaders
from ..jit.codegen import THIS_REG
from ..jit.deopt import DeoptSignal
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
    _asr,
    _lsl,
    _lsr,
    _lsri,
    _sdiv,
    decode,
)
from .ladder import Tier, default_tier

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject
    from .executor import Executor

_UINT32 = 4294967295

#: process-wide source -> compiled module cache.  The generated source
#: embeds every literal (operands, costs, smi bounds, predictor mask), so
#: identical source means identical bytecode; re-running a benchmark in
#: the same process (grid reps, cold-vs-warm cache measurements) skips
#: ``compile()`` entirely and only pays the per-executor ``exec``.
_COMPILED_SOURCES: Dict[str, object] = {}


def default_blockjit() -> bool:
    """Does the process-wide tier include fused blocks?"""
    return default_tier() >= Tier.BLOCK


def default_typed_blocks() -> bool:
    """Does the process-wide tier include typed block variants?"""
    return default_tier() >= Tier.TYPED


def block_spans(instrs) -> List[Tuple[int, int]]:
    """The fused-block partition as ``[start, end)`` pc spans, in order."""
    leaders = sorted(fused_block_leaders(tuple(instrs)))
    count = len(instrs)
    return [
        (start, leaders[i + 1] if i + 1 < len(leaders) else count)
        for i, start in enumerate(leaders)
    ]


class Block:
    """One compiled basic block: fused + stepped closures and static
    per-execution statistics (charged block-at-a-time by a generated
    prologue inside each closure)."""

    __slots__ = (
        "start",
        "end",
        "total_cost",
        "n_instr",
        "n_loads",
        "n_stores",
        "n_branches",
        "n_deopt_branches",
        "fused",
        "stepped",
    )

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end
        self.total_cost = 0.0
        self.n_instr = end - start
        self.n_loads = 0
        self.n_stores = 0
        self.n_branches = 0
        self.n_deopt_branches = 0
        self.fused = None
        self.stepped = None


class BlockTable:
    """All blocks of one code object, compiled against one executor.

    ``driver`` is the flat ``(total_cost, fused, stepped)`` tuple list the
    executor's dispatch loop indexes — one sequence lookup and unpack per
    retired block instead of attribute traffic on :class:`Block`.
    """

    __slots__ = ("executor", "blocks", "block_of", "spans", "driver",
                 "flags_live", "auditable", "demoted", "typed_plans",
                 "traces")

    def __init__(self, executor: "Executor") -> None:
        self.executor = executor
        self.blocks: List[Block] = []
        self.block_of: Dict[int, int] = {}
        self.spans: List[Tuple[int, int]] = []
        self.driver: List[Tuple[float, object, object]] = []
        #: repro.machine.tracejit.TraceTable once the trace tier has
        #: attached to this table (None while tracing is disabled).
        #: Kept here so demote() can tear traces down with their blocks.
        self.traces = None
        #: bid -> repro.analysis.typeflow.TypedBlockPlan for every block
        #: whose fused closure is a typed variant (empty when typed
        #: blocks are disabled or nothing was provably elidable).
        self.typed_plans: Dict[int, object] = {}
        #: True when any block reads flags it did not set, i.e. flags
        #: flow across block boundaries and the closures must thread
        #: (n, z, c, v) through their signature.  Compiler-generated code
        #: keeps compare and branch in the same block, so this is the
        #: exception, not the rule.
        self.flags_live = False
        #: per-block: True when the divergence sentinel may shadow-execute
        #: the block side-effect-free (its last instruction is not a call,
        #: RET, DEOPT or JSLDRSMI — see repro.supervise.sentinel).
        self.auditable: List[bool] = []
        #: set by the sentinel on a divergence: in-flight driver loops
        #: route every block through its stepped twin from then on.
        self.demoted = False

    def demote(self) -> None:
        """Force every block onto its stepped twin, including for loops
        already inside the driver.

        Instead of a per-block ``demoted`` check in the hot dispatch loop,
        demotion rewrites the driver tuples with an infinite block cost:
        ``local_cycles + inf`` trips the existing sample-window condition
        (``inf >= anything``, even an idle sampler's ``inf`` due point),
        which routes through the stepped twin with the *entry* cycle
        count — the fused closure and its exit-cycles ABI are never
        touched again, so cycle totals stay bit-exact.
        """
        self.demoted = True
        infinite = float("inf")
        self.driver[:] = [
            (infinite, fused, stepped) for _cost, fused, stepped in self.driver
        ]
        if self.traces is not None:
            # Traces are built over these very blocks; a demoted table
            # must drop them too, or a compiled chain would keep running
            # the code path the sentinel just proved divergent.
            self.traces.disable()


#: decoded kinds that retire a load / store (mirrors the step loop's
#: per-instruction ``stats.loads`` / ``stats.stores`` increments)
_LOAD_KINDS = frozenset(
    {K_LDR, K_LDR_IDX, K_LDR_FRAME, K_CMPI_MEM, K_CMP_MEM, K_TSTI_MEM,
     K_LDRF, K_LDRF_FRAME, K_JSLDRSMI}
)
_STORE_KINDS = frozenset({K_STR, K_STR_FRAME, K_STRF, K_STRF_FRAME})

#: kinds that read the condition flags / kinds that define all four of
#: them.  Every flag-writing kind sets n, z, c and v, so a block whose
#: first flag access is a write has no flag live-in: flags then never
#: cross its entry and the closures can use the slim no-flags ABI.
_FLAG_READ_KINDS = frozenset({K_BCC, K_CSET})

#: last-instruction kinds whose closures touch executor/engine state
#: (cycle-clock flush, deopt-state capture, ret stash, nested calls) —
#: blocks ending in one of these cannot be shadow-executed by the
#: divergence sentinel.  Everything else mutates only its positional
#: state arguments plus the predictor/stats objects, both of which the
#: sentinel snapshot-restores.
_UNAUDITABLE_LAST = frozenset(
    {K_CALL_JS, K_CALL_DYN, K_CALL_RT, K_RET, K_DEOPT, K_JSLDRSMI}
)
_FLAG_WRITE_KINDS = frozenset(
    {K_CMPI, K_CMP, K_TSTI, K_TST, K_MZCMP, K_ADDS, K_SUBS, K_MULS,
     K_ADDSI, K_SUBSI, K_NEGS, K_CMPI_MEM, K_CMP_MEM, K_TSTI_MEM, K_FCMP}
)

#: condition-code source expressions over the (n, z, c, v) flag locals —
#: textual mirrors of repro.machine.dispatch.CC_EVAL
_CC_EXPR = {
    int(CC.EQ): "z",
    int(CC.NE): "not z",
    int(CC.LT): "n != v",
    int(CC.GE): "n == v",
    int(CC.GT): "(not z) and (n == v)",
    int(CC.LE): "z or (n != v)",
    int(CC.HS): "c",
    int(CC.LO): "not c",
    int(CC.HI): "c and not z",
    int(CC.LS): "(not c) or z",
    int(CC.VS): "v",
    int(CC.VC): "not v",
    int(CC.MI): "n",
    int(CC.PL): "not n",
}

#: reg-reg ALU function objects -> infix operator (the rest fall back to
#: explicit statement templates or a bound helper)
_RR_INFIX = {
    operator.add: "+",
    operator.sub: "-",
    operator.mul: "*",
    operator.and_: "&",
    operator.or_: "|",
    operator.xor: "^",
}
_FRR_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*"}


def compile_blocks(code: "CodeObject", executor: "Executor") -> BlockTable:
    """Partition ``code`` and compile every block's fused/stepped closures."""
    return _BlockCompiler(code, executor).compile()


class _BlockCompiler:
    def __init__(self, code: "CodeObject", executor: "Executor") -> None:
        from .executor import MachineError

        self.code = code
        self.executor = executor
        if code._decoded is None:
            code._decoded = decode(code, executor.op_cost)
        self.decoded = code._decoded
        config = executor.heap.config
        self.smi_min = config.smi_min
        self.smi_max = config.smi_max
        self.taken_extra = executor.cost_model.taken_extra
        self.mispredict = executor.cost_model.mispredict_penalty
        self.pmask = executor.predictor.mask
        self._const_count = 0
        #: shared globals for every generated closure of this code object.
        #: ``pred``/``ptable`` bind the gshare predictor by identity — both
        #: are created once in Executor.__init__ and never reassigned, so
        #: inlined branch code mutates the very state the step loop sees.
        self.glb: Dict[str, object] = {
            "ex": executor,
            "engine": executor.engine,
            "stats": executor.stats,
            "pred": executor.predictor,
            "ptable": executor.predictor.table,
            "MachineError": MachineError,
            "DeoptSignal": DeoptSignal,
            "isnan": isnan,
            "isinf": isinf,
            "copysign": copysign,
            "inf": inf,
            "sdiv": _sdiv,
            "code": code,
            "UNDEF": executor.heap.undefined,
            # typed-variant bookkeeping (repro.analysis.typeflow): python-
            # level counters only — never part of ExecStats or the cycle
            # model, so simulated results stay bit-identical.
            "tstat": getattr(
                executor, "typed_counters", [0, 0, 0, 0, 0, 0, 0]
            ),
        }

    # -- helpers ---------------------------------------------------------

    def _const(self, value: object) -> str:
        name = f"C{self._const_count}"
        self._const_count += 1
        self.glb[name] = value
        return name

    def _lit(self, value: object) -> str:
        """Inline a value as a source literal, or bind it as a constant."""
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) is int:
            return repr(value)
        if type(value) is float:
            if isnan(value) or isinf(value):
                return self._const(value)
            return repr(value)  # float repr round-trips exactly
        if type(value) is str:
            return repr(value)
        return self._const(value)

    def _ret(self, bid: object) -> str:
        if self.flags_live:
            return f"return ({bid}, cycles, n, z, c, v)"
        return f"return ({bid}, cycles)"

    def _flags_live_in(self, start: int, end: int) -> bool:
        """True when the block reads n/z/c/v before defining them."""
        for pc in range(start, end):
            kind = self.decoded[pc][0]
            if kind in _FLAG_READ_KINDS:
                return True
            if kind in _FLAG_WRITE_KINDS:
                return False
        return False

    # -- compilation -----------------------------------------------------

    def compile(self) -> BlockTable:
        table = BlockTable(self.executor)
        table.spans = block_spans(self.code.instrs)
        table.block_of = {start: i for i, (start, _end) in enumerate(table.spans)}
        self.block_of = table.block_of
        self.n_blocks = len(table.spans)
        # ABI selection must precede assembly: one live-in block forces the
        # flag-threading signature onto every closure of this code object.
        self.flags_live = table.flags_live = any(
            self._flags_live_in(start, end) for start, end in table.spans
        )
        table.auditable = [
            self.decoded[end - 1][0] not in _UNAUDITABLE_LAST
            for _start, end in table.spans
        ]
        self.plans: Dict[int, object] = {}
        if self.code._tier >= Tier.TYPED and not self.flags_live:
            # Imported lazily: typeflow itself imports block_spans from
            # this module at load time.
            from ..analysis.typeflow import typed_plans

            self.plans = typed_plans(self.code)
        table.typed_plans = dict(self.plans)
        sources: List[str] = []
        for bid, (start, end) in enumerate(table.spans):
            table.blocks.append(self._compile_block(bid, start, end, sources))
        # One compile()/exec for the whole code object: with ~3 instructions
        # per block, per-call compile() overhead would otherwise dominate
        # the first-run cost of every cell.
        source = "\n".join(sources)
        compiled = _COMPILED_SOURCES.get(source)
        if compiled is None:
            compiled = _COMPILED_SOURCES[source] = compile(
                source, "<blockjit>", "exec"
            )
        exec(compiled, self.glb)  # noqa: S102 - generated from decoded instrs
        for bid, block in enumerate(table.blocks):
            block.fused = self.glb.pop(f"_blk_f{bid}")
            block.stepped = self.glb.pop(f"_blk_s{bid}")
            # _blk_g{bid} generic fallbacks stay in glb: typed closures
            # resolve them as globals on guard failure.
        table.driver = [(b.total_cost, b.fused, b.stepped) for b in table.blocks]
        return table

    def _compile_block(
        self, bid: int, start: int, end: int, sources: List[str]
    ) -> Block:
        block = Block(start, end)
        block.total_cost = self.decoded[end - 1][8]  # prefix of last instr
        for pc in range(start, end):
            kind = self.decoded[pc][0]
            if kind in _LOAD_KINDS:
                block.n_loads += 1
            elif kind in _STORE_KINDS:
                block.n_stores += 1
            elif kind in (K_BCC, K_B):
                block.n_branches += 1
                if kind == K_BCC and self.decoded[pc][3]:  # s1 = is_deopt
                    block.n_deopt_branches += 1
        plan = self.plans.get(bid)
        if plan is not None:
            # The fused slot gets the typed variant; the generic body is
            # kept (as _blk_g{bid}) only when a guard can actually fail
            # into it.  The stepped twin below is always generic — it is
            # the timing/sampling reference the sentinel diffs against.
            sources.append(
                self._assemble(bid, start, end, block, stepped=False, plan=plan)
            )
            if plan.guards:
                sources.append(
                    self._assemble(bid, start, end, block, stepped=False,
                                   generic=True)
                )
        else:
            sources.append(self._assemble(bid, start, end, block, stepped=False))
        sources.append(self._assemble(bid, start, end, block, stepped=True))
        return block

    def _stats_prologue(self, block: Block) -> List[str]:
        """Charge the block's static counter deltas in one batch.

        Exact versus the step loop because every raise point is a block's
        *last* instruction (partition rule), so whenever any instruction of
        the block retires, all of them do.  Counters with a zero delta emit
        nothing.
        """
        lines = [f"stats.instructions += {block.n_instr}"]
        if block.n_loads:
            lines.append(f"stats.loads += {block.n_loads}")
        if block.n_stores:
            lines.append(f"stats.stores += {block.n_stores}")
        if block.n_branches:
            lines.append(f"stats.branches += {block.n_branches}")
        if block.n_deopt_branches:
            lines.append(
                f"stats.deopt_branch_instrs += {block.n_deopt_branches}"
            )
        return lines

    def _assemble(
        self, bid: int, start: int, end: int, block: Block, stepped: bool,
        plan=None, generic: bool = False,
    ) -> str:
        lines: List[str] = []
        actions = {}
        if plan is not None:
            # Hoisted entry guards run before anything is charged: a
            # failing guard tail-calls the generic block with the entry
            # state untouched, so the generic path is bit-identical to
            # never having tried the typed variant.
            for index, fact in enumerate(plan.guards):
                lines.extend(self._guard(fact, bid, index))
            if plan.guards:
                lines.append(f"tstat[3] += {len(plan.guards)}")
            actions = dict(plan.actions)
        lines.extend(self._stats_prologue(block))
        if stepped:
            lines.append("entry = cycles")
        for pc in range(start, end):
            if stepped:
                prefix = self.decoded[pc][8]
                lines.append(f"cycles = entry + {prefix!r}")
                lines.append("if cycles >= ex._next_sample:")
                lines.append(f"    ex._sample(code, {pc}, cycles)")
            if plan is not None and pc == plan.site_pc:
                lines.extend(self._emit_elided_site(pc, plan))
                continue
            action = actions.get(pc)
            if action is not None and action[0] == "skip":
                continue  # pure flag computation of the elided check
            if action is not None and action[0] == "const":
                # Proven heap load: same register state, no heap traffic.
                lines.append(f"regs[{action[1]}] = {self._lit(action[2])}")
                continue
            lines.extend(self._emit(pc, end, stepped))
        last_kind = self.decoded[end - 1][0]
        if last_kind not in (K_BCC, K_B, K_RET, K_DEOPT, K_JSLDRSMI,
                             K_CALL_JS, K_CALL_DYN, K_CALL_RT):
            # Plain fall-through into the next leader.
            lines.append(self._ret(self._target_bid(end)))
        variant = "g" if generic else ("s" if stepped else "f")
        name = f"_blk_{variant}{bid}"
        flags = ", n, z, c, v" if self.flags_live else ""
        return (
            f"def {name}(regs, fregs, frame, special, heap, "
            f"cycles{flags}):\n"
            + "".join(f"    {line}\n" for line in lines)
        )

    def _target_bid(self, pc: int) -> int:
        if pc in self.block_of:
            return self.block_of[pc]
        # Off the end / corrupt target: an out-of-range block id makes the
        # driver raise IndexError, like the step loop's decoded[pc] would.
        return self.n_blocks

    # -- typed variants (repro.analysis.typeflow plans) -------------------

    def _guard_test(self, fact) -> Tuple[List[str], str]:
        """Setup statements plus the *failure* condition for one hoisted
        guard fact.  Shared between the block compiler's entry guards and
        the trace compiler's chain guards so both tiers test a fact with
        byte-identical generated code.  Non-int heap words fail the test
        rather than raising, so the generic fallback reproduces the
        exact MachineError the step loop would have raised."""
        L = self._lit
        tag = fact[0]
        if tag == "par":
            cond = (
                f"regs[{fact[1]}] & 1" if fact[2] == 0
                else f"not (regs[{fact[1]}] & 1)"
            )
            return [], cond
        if tag == "regeq":
            return [], f"regs[{fact[1]}] != {L(fact[2])}"
        if tag == "map":
            return (
                [f"_g = heap[(regs[{fact[1]}] >> 1) + {L(fact[2])}]"],
                f"_g != {L(fact[3])}",
            )
        if tag == "ub":
            idx, base, disp = fact[1], fact[2], fact[3]
            return (
                [f"_g = heap[(regs[{base}] >> 1) + {L(disp)}]"],
                f"not (isinstance(_g, int) and (regs[{idx}] & {_UINT32})"
                f" < (_g & {_UINT32}))",
            )
        if tag == "memsmi":
            base, idx, scale, disp = fact[1], fact[2], fact[3], fact[4]
            addr = f"(regs[{base}] >> 1) + {L(disp)}"
            if idx >= 0:
                addr = (
                    f"(regs[{base}] >> 1) + (regs[{idx}] << {L(scale)})"
                    f" + {L(disp)}"
                )
            return [f"_g = heap[{addr}]"], "not isinstance(_g, int) or (_g & 1)"
        raise ValueError(f"blockjit: unsupported guard fact {fact!r}")

    def _guard(self, fact, bid: int, index: int) -> List[str]:
        """One hoisted entry guard; its failure path tail-calls the
        generic block with the entry state untouched."""
        setup, cond = self._guard_test(fact)
        return setup + [
            f"if {cond}:",
            f"    tstat[3] += {index}",
            "    tstat[4] += 1",
            f"    return _blk_g{bid}(regs, fregs, frame, special, heap, "
            "cycles)",
        ]

    def _emit_elided_site(self, pc: int, plan) -> List[str]:
        """The check site with its test removed.

        The branch variant keeps the generic not-taken path verbatim —
        deterministic gshare update, mispredict accounting, fall-through
        return — minus the flag test (the guard or the entry proof
        already decided it).  The jsldrsmi variant commits the load
        without the tag test.  ``tstat`` counters are python-level only.
        """
        decoded = self.decoded[pc]
        if plan.site == "branch":
            out = [
                "_h = pred.history",
                f"_i = ({pc} ^ _h) & {self.pmask}",
                "_t = ptable[_i]",
                "pred.predictions += 1",
                f"pred.history = (_h << 1) & {self.pmask}",
                "if _t > 0:",
                "    ptable[_i] = _t - 1",
                "if _t >= 2:",
                "    pred.mispredictions += 1",
                "    stats.mispredictions += 1",
                f"    cycles += {self.mispredict!r}",
                "tstat[0] += 1",
            ]
            if plan.n_cond_elided:
                out.append(f"tstat[1] += {plan.n_cond_elided}")
            out.append(self._ret(self._target_bid(pc + 1)))
            return out
        # jsldrsmi: aux = (scale, check_id, reason)
        _kind, _cost, dst, s1, s2, imm, aux, _instr, _prefix, _leader = decoded
        scale = aux[0]
        addr = f"_a = (regs[{s1}] >> 1) + {self._lit(imm)}"
        if s2 >= 0:
            addr = (
                f"_a = (regs[{s1}] >> 1) + "
                f"(regs[{s2}] << {self._lit(scale)}) + {self._lit(imm)}"
            )
        return [
            addr,
            "_v = heap[_a]",
            "if not isinstance(_v, int):",
            "    raise MachineError('jsldrsmi of non-int slot %d' % _a)",
            f"regs[{dst}] = _v >> 1",
            "tstat[2] += 1",
            self._ret(self._target_bid(pc + 1)),
        ]

    # -- per-kind emission ----------------------------------------------

    def _emit(self, pc: int, end: int, stepped: bool) -> List[str]:
        kind, _cost, dst, s1, s2, imm, aux, instr, _prefix, _leader = (
            self.decoded[pc]
        )
        L = self._lit
        smi = f"{self.smi_min} <= _r <= {self.smi_max}"

        if kind == K_BCC:
            cc_expr = _CC_EXPR[int(instr.cc)]
            out = [f"taken = {cc_expr}"]
            if s1 and stepped:
                # Injected speculation fault (step tier only: the driver
                # routes every block through the stepped twin while trips
                # are pending, so the fused tier never sees one).
                out.append("if not taken and ex.forced_deopt_trips > 0:")
                out.append("    ex.forced_deopt_trips -= 1")
                out.append("    taken = True")
            # Inlined gshare predict_and_update (BranchPredictor): 2-bit
            # counter indexed by pc ^ history, mispredict when the
            # counter's direction disagrees with ``taken``.  Same state
            # transitions, same MP-then-TE cycle-add order as the step
            # loop, minus ~one Python call per retired branch.
            out.append("_h = pred.history")
            out.append(f"_i = ({pc} ^ _h) & {self.pmask}")
            out.append("_t = ptable[_i]")
            out.append("pred.predictions += 1")
            out.append("if taken:")
            out.append(f"    pred.history = ((_h << 1) | 1) & {self.pmask}")
            out.append("    if _t < 3:")
            out.append("        ptable[_i] = _t + 1")
            out.append("    if _t < 2:")
            out.append("        pred.mispredictions += 1")
            out.append("        stats.mispredictions += 1")
            out.append(f"        cycles += {self.mispredict!r}")
            out.append("    stats.taken_branches += 1")
            out.append(f"    cycles += {self.taken_extra!r}")
            out.append("    " + self._ret(self._target_bid(s2)))
            out.append(f"pred.history = (_h << 1) & {self.pmask}")
            out.append("if _t > 0:")
            out.append("    ptable[_i] = _t - 1")
            out.append("if _t >= 2:")
            out.append("    pred.mispredictions += 1")
            out.append("    stats.mispredictions += 1")
            out.append(f"    cycles += {self.mispredict!r}")
            out.append(self._ret(self._target_bid(pc + 1)))
            return out
        if kind == K_B:
            return [
                "stats.taken_branches += 1",
                f"cycles += {self.taken_extra!r}",
                self._ret(self._target_bid(s2)),
            ]
        if kind == K_LDR:
            return [
                f"_a = (regs[{s1}] >> 1) + {L(imm)}",
                "_v = heap[_a]",
                "if not isinstance(_v, int):",
                "    raise MachineError('LDR of non-int slot %d -> %r'"
                " % (_a, _v))",
                f"regs[{dst}] = _v",
            ]
        if kind == K_LDR_IDX:
            return [
                f"_a = (regs[{s1}] >> 1) + (regs[{s2}] << {L(aux)}) + {L(imm)}",
                "_v = heap[_a]",
                "if not isinstance(_v, int):",
                "    raise MachineError('LDR of non-int slot %d -> %r'"
                " % (_a, _v))",
                f"regs[{dst}] = _v",
            ]
        if kind == K_LDR_FRAME:
            return [f"regs[{dst}] = frame[{L(imm)}]"]
        if kind == K_MOVI:
            return [f"regs[{dst}] = {L(imm)}"]
        if kind == K_MOVR:
            return [f"regs[{dst}] = regs[{s1}]"]
        if kind == K_CMPI:
            return [
                f"_x = regs[{s1}]",
                f"_d = _x - {L(imm)}",
                "z = _d == 0",
                "n = _d < 0",
                f"c = (_x & {_UINT32}) >= {L(s2)}",
                "v = not (-2147483648 <= _d <= 2147483647)",
            ]
        if kind == K_TSTI:
            return [
                f"_t = regs[{s1}] & {L(imm)}",
                "z = _t == 0",
                "n = _t < 0",
                "c = v = False",
            ]
        if kind == K_CMP:
            return [
                f"_x = regs[{s1}]",
                f"_y = regs[{s2}]",
                "_d = _x - _y",
                "z = _d == 0",
                "n = _d < 0",
                f"c = (_x & {_UINT32}) >= (_y & {_UINT32})",
                "v = not (-2147483648 <= _d <= 2147483647)",
            ]
        if kind == K_ASRI:
            return [f"regs[{dst}] = regs[{s1}] >> {L(imm)}"]
        if kind in (K_ADDS, K_SUBS, K_MULS):
            op = {K_ADDS: "+", K_SUBS: "-", K_MULS: "*"}[kind]
            return [
                f"_r = regs[{s1}] {op} regs[{s2}]",
                f"regs[{dst}] = _r",
                "z = _r == 0",
                "n = _r < 0",
                f"v = not ({smi})",
                "c = False",
            ]
        if kind in (K_ADDSI, K_SUBSI):
            op = "+" if kind == K_ADDSI else "-"
            return [
                f"_r = regs[{s1}] {op} {L(imm)}",
                f"regs[{dst}] = _r",
                "z = _r == 0",
                "n = _r < 0",
                f"v = not ({smi})",
                "c = False",
            ]
        if kind == K_NEGS:
            return [
                f"_x = regs[{s1}]",
                "_r = -_x",
                f"regs[{dst}] = _r",
                "z = _x == 0",
                "n = _r < 0",
                f"v = not ({smi})",
                "c = False",
            ]
        if kind == K_LSLI:
            return [f"regs[{dst}] = regs[{s1}] << {L(imm)}"]
        if kind == K_TST:
            return [
                f"_t = regs[{s1}] & regs[{s2}]",
                "z = _t == 0",
                "n = _t < 0",
                "c = v = False",
            ]
        if kind == K_MZCMP:
            return [
                f"z = regs[{s1}] == 0 and regs[{s2}] < 0",
                "n = False",
                "c = v = False",
            ]
        if kind == K_CALL_RT:
            name, extra, call_regs, returns_float = aux
            args = ", ".join(f"regs[{r}]" for r in call_regs)
            target = "fregs[0]" if returns_float else "regs[0]"
            return [
                "ex.cycles = cycles",
                f"{target} = engine.call_runtime({name!r}, {L(extra)}, "
                f"[{args}], fregs)",
                "cycles = ex.cycles",
                self._ret(self._target_bid(pc + 1)),
            ]
        if kind == K_CSET:
            return [f"regs[{dst}] = 1 if {_CC_EXPR[int(instr.cc)]} else 0"]
        if kind in (K_CMPI_MEM, K_CMP_MEM, K_TSTI_MEM):
            base, index_reg, scale, disp = aux
            addr = f"_a = (regs[{base}] >> 1) + {L(disp)}"
            if index_reg >= 0:
                addr = (
                    f"_a = (regs[{base}] >> 1) + "
                    f"(regs[{index_reg}] << {L(scale)}) + {L(disp)}"
                )
            if kind == K_TSTI_MEM:
                return [
                    addr,
                    f"_t = heap[_a] & {L(imm)}",
                    "z = _t == 0",
                    "n = _t < 0",
                    "c = v = False",
                ]
            if kind == K_CMPI_MEM:
                return [
                    addr,
                    "_x = heap[_a]",
                    "if not isinstance(_x, int):",
                    "    raise MachineError('cmp with non-int memory"
                    " operand')",
                    f"_d = _x - {L(imm)}",
                    "z = _d == 0",
                    "n = _d < 0",
                    f"c = (_x & {_UINT32}) >= {L(s2)}",
                    "v = not (-2147483648 <= _d <= 2147483647)",
                ]
            return [  # K_CMP_MEM
                addr,
                "_y = heap[_a]",
                "if not isinstance(_y, int):",
                "    raise MachineError('cmp with non-int memory operand')",
                f"_x = regs[{s1}]",
                "_d = _x - _y",
                "z = _d == 0",
                "n = _d < 0",
                f"c = (_x & {_UINT32}) >= (_y & {_UINT32})",
                "v = not (-2147483648 <= _d <= 2147483647)",
            ]
        if kind in (K_STR, K_STRF):
            source = f"regs[{s1}]" if kind == K_STR else f"fregs[{s1}]"
            addr = f"_a = (regs[{s2}] >> 1) + {L(imm)}"
            if aux is not None:
                index_reg, scale = aux
                addr = (
                    f"_a = (regs[{s2}] >> 1) + "
                    f"(regs[{index_reg}] << {L(scale)}) + {L(imm)}"
                )
            return [addr, f"heap[_a] = {source}"]
        if kind == K_STR_FRAME:
            return [f"frame[{L(imm)}] = regs[{s1}]"]
        if kind == K_STRF_FRAME:
            return [f"frame[{L(imm)}] = fregs[{s1}]"]
        if kind == K_SCVTF:
            return [f"fregs[{dst}] = float(regs[{s1}])"]
        if kind == K_ALU_RR:
            infix = _RR_INFIX.get(aux)
            if infix is not None:
                return [f"regs[{dst}] = regs[{s1}] {infix} regs[{s2}]"]
            if aux is _lsl:
                return [
                    f"_t = (regs[{s1}] << (regs[{s2}] & 31)) & {_UINT32}",
                    f"regs[{dst}] = _t - 4294967296 "
                    "if _t >= 2147483648 else _t",
                ]
            if aux is _asr:
                return [f"regs[{dst}] = regs[{s1}] >> (regs[{s2}] & 31)"]
            if aux is _lsr:
                return [
                    f"regs[{dst}] = (regs[{s1}] & {_UINT32}) >> "
                    f"(regs[{s2}] & 31)"
                ]
            if aux is _sdiv:
                return [f"regs[{dst}] = sdiv(regs[{s1}], regs[{s2}])"]
            return [f"regs[{dst}] = {self._const(aux)}(regs[{s1}], regs[{s2}])"]
        if kind == K_ALU_RI:
            infix = _RR_INFIX.get(aux)
            if infix is not None:
                return [f"regs[{dst}] = regs[{s1}] {infix} {L(imm)}"]
            if aux is _lsri:
                return [f"regs[{dst}] = (regs[{s1}] & {_UINT32}) >> {L(imm)}"]
            return [f"regs[{dst}] = {self._const(aux)}(regs[{s1}], {L(imm)})"]
        if kind == K_FALU_RR:
            infix = _FRR_INFIX.get(aux)
            if infix is not None:
                return [f"fregs[{dst}] = fregs[{s1}] {infix} fregs[{s2}]"]
            return [
                f"fregs[{dst}] = {self._const(aux)}(fregs[{s1}], fregs[{s2}])"
            ]
        if kind == K_FALU_R:
            if aux is operator.neg:
                return [f"fregs[{dst}] = -fregs[{s1}]"]
            if aux is abs:
                return [f"fregs[{dst}] = abs(fregs[{s1}])"]
            return [f"fregs[{dst}] = {self._const(aux)}(fregs[{s1}])"]
        if kind == K_FDIV:
            return [
                f"_y = fregs[{s2}]",
                f"_x = fregs[{s1}]",
                "if _y == 0.0:",
                "    if _x == 0.0 or isnan(_x):",
                f"        fregs[{dst}] = float('nan')",
                "    else:",
                f"        fregs[{dst}] = inf * "
                "(copysign(1.0, _x) * copysign(1.0, _y))",
                "else:",
                f"    fregs[{dst}] = _x / _y",
            ]
        if kind == K_FMOVR:
            return [f"fregs[{dst}] = fregs[{s1}]"]
        if kind == K_FMOVI:
            return [f"fregs[{dst}] = {L(imm)}"]
        if kind == K_FCMP:
            return [
                f"_x = fregs[{s1}]",
                f"_y = fregs[{s2}]",
                "if isnan(_x) or isnan(_y):",
                "    n = z = False",
                "    c = v = True",
                "else:",
                "    n = _x < _y",
                "    z = _x == _y",
                "    c = _x >= _y",
                "    v = False",
            ]
        if kind == K_FCVTZS:
            return [
                f"_x = fregs[{s1}]",
                "if isnan(_x) or isinf(_x):",
                f"    regs[{dst}] = 0",
                "else:",
                "    _t = int(_x) % 4294967296",
                f"    regs[{dst}] = _t - 4294967296 "
                "if _t >= 2147483648 else _t",
            ]
        if kind == K_LDRF:
            addr = f"(regs[{s1}] >> 1) + {L(imm)}"
            if s2 >= 0:
                addr = f"(regs[{s1}] >> 1) + (regs[{s2}] << {L(aux)}) + {L(imm)}"
            return [f"fregs[{dst}] = float(heap[{addr}])"]
        if kind == K_LDRF_FRAME:
            return [f"fregs[{dst}] = frame[{L(imm)}]"]
        if kind == K_JSLDRSMI:
            scale, check_id, reason = aux
            addr = f"_a = (regs[{s1}] >> 1) + {L(imm)}"
            if s2 >= 0:
                addr = (
                    f"_a = (regs[{s1}] >> 1) + "
                    f"(regs[{s2}] << {L(scale)}) + {L(imm)}"
                )
            out = [
                addr,
                "_v = heap[_a]",
                "if not isinstance(_v, int):",
                "    raise MachineError('jsldrsmi of non-int slot %d' % _a)",
                "if _v & 1:",
                f"    special[{REG_PC}] = {pc}",
                f"    special[{REG_RE}] = {reason if check_id >= 0 else 1}",
            ]
            if check_id < 0:
                out.append(
                    "    raise MachineError("
                    "'jsldrsmi bailout without deopt point')"
                )
            else:
                out.append("    ex.cycles = cycles")
                out.append("    ex.deopt_state = (regs, fregs, frame)")
                out.append(f"    raise DeoptSignal({check_id})")
            out.append(f"regs[{dst}] = _v >> 1")
            out.append(self._ret(self._target_bid(pc + 1)))
            return out
        if kind == K_CALL_JS:
            args = ", ".join(f"regs[{r}]" for r in aux)
            return [
                "ex.cycles = cycles",
                f"regs[0] = engine.call_shared({L(imm)}, regs[{THIS_REG}], "
                f"[{args}])",
                "cycles = ex.cycles",
                self._ret(self._target_bid(pc + 1)),
            ]
        if kind == K_CALL_DYN:
            args = ", ".join(f"regs[{r}]" for r in aux)
            return [
                "ex.cycles = cycles",
                f"regs[0] = engine.call_value(regs[{s1}], UNDEF, [{args}], "
                "None)",
                "cycles = ex.cycles",
                self._ret(self._target_bid(pc + 1)),
            ]
        if kind == K_RET:
            return [
                "ex.cycles = cycles",
                f"ex.ret_value = regs[{s1}]",
                self._ret(-1),
            ]
        if kind == K_DEOPT:
            return [
                "ex.cycles = cycles",
                "ex.deopt_state = (regs, fregs, frame)",
                f"raise DeoptSignal({L(imm)})",
            ]
        if kind == K_MSR:
            return [f"special[{L(imm)}] = regs[{s1}]"]
        raise ValueError(  # pragma: no cover - decode() covers every MOp
            f"blockjit: unimplemented dispatch kind {kind}"
        )
