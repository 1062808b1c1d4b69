"""Trace tier: loop-spanning superblocks with cross-call chaining.

The blockjit tier (PR 4) fuses instructions into basic blocks but still
pays a driver round-trip — a list index, a tuple unpack and two window
checks — per retired *block*, and every call ends its block, so
call-heavy code re-enters the dispatch loop on both sides of every
activation.  This module climbs the next rung, in the spirit of trace
compilation and lazy basic-block versioning (Chevalier-Boisvert &
Feeley, VEE 2015): hot block *chains* are compiled into single Python
closures (traces) that

* run many blocks — across loop back-edges and **across calls** — per
  driver dispatch, with the cycle clock spilled/reloaded around each
  call exactly like the fused call blocks do,
* hoist the driver's per-block sample-window / forced-trip checks into
  one conservative check per call-free *segment* (the sum of the
  segment's block costs plus a worst-case branch-penalty allowance),
  side-exiting back to the block table with the entry state whenever
  per-block fidelity might be required, and
* reuse the typeflow facts (PR 6) already established by predecessor
  blocks in the chain, so a trace does not re-evaluate an entry guard
  its dominating chain prefix proved and did not kill.

Fidelity discipline is unchanged from the block tier: the fast path may
*bail out*, never diverge.  Per-block cycle adds are kept as individual
float additions (the bit-exact accounting contract between the step and
block tiers), per-block statistics prologues stay in place so a cold
side exit leaves counters exactly where the block driver would have,
and every side exit returns ``(block_id, entry_cycles)`` so the driver
re-dispatches the block through its ordinary fused/stepped routing.

Chain formation is counting-based, not recording-based: the trace
driver counts retired ``(src_bid, dst_bid)`` edges (plus activation
entries) for a fixed budget of events, then freezes and promotes —
chains follow the hottest successor from each hot back-edge head and,
for call-heavy code with no intra-body loops, from the entry block.
Recording would interleave the bids of recursive inner activations;
counters aggregate them harmlessly.

Sentinel integration (PR 5): every call-free trace also compiles a
``once`` variant (single pass, generic bodies, no demotion/audit
checks) plus a stepped twin that replays the chain through the blocks'
stepped closures; :meth:`repro.supervise.sentinel.DivergenceSentinel.
audit_trace` shadow-executes both from the same entry state and demotes
the whole table — blocks *and* traces — on any mismatch.  Traces whose
chain spans a call are not auditable (same rule as call blocks), and a
demoted or storm-disabled code object drops its traces with its blocks.

Executor ladder (:mod:`repro.machine.ladder`): traces are the top
tier, on top of block versioning.  The executor runs the trace driver
only for code stamped ``trace``; the degradation ladder's first descent
("no-trace") drops ``code._traces`` with the blocks and recompiles at
``lbbv``, so a storming function sheds this tier first instead of
losing everything at once.  ``REPRO_TIER=lbbv`` turns the tier off for
a whole engine.

``REPRO_TRACEJIT_BUDGET`` (edge events before promotion),
``REPRO_TRACEJIT_HOT`` (edge heat threshold) and
``REPRO_TRACEJIT_ENTRY`` (activation count that arms an entry-anchored
trace) tune formation; tests pin them small so traces form in smoke
runs.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..isa.semantics import fused_block_edges
from ..jit.codegen import THIS_REG
from .blockjit import (
    _COMPILED_SOURCES,
    K_B,
    K_BCC,
    K_CALL_DYN,
    K_CALL_JS,
    K_CALL_RT,
    K_DEOPT,
    K_JSLDRSMI,
    K_RET,
    _BlockCompiler,
    compile_blocks,
)
from .ladder import Tier, default_tier

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject
    from .blockjit import BlockTable
    from .executor import Executor

_CALL_KINDS = frozenset({K_CALL_JS, K_CALL_DYN, K_CALL_RT})

#: hard caps, well above anything the suite forms: a chain longer than
#: MAX_CHAIN blocks stops growing; a table keeps at most MAX_TRACES.
MAX_CHAIN = 24
MAX_TRACES = 10


def default_tracejit() -> bool:
    """Does the process-wide tier include traces?"""
    return default_tier() >= Tier.TRACE


def _env_int(name: str, default: int) -> int:
    try:
        value = int(os.environ.get(name, ""))
    except ValueError:
        return default
    return value if value > 0 else default


class _ChainAbort(Exception):
    """A candidate chain cannot be compiled faithfully; skip it."""


class TraceInfo:
    """One compiled trace: the hot chain plus its closure variants."""

    __slots__ = ("head", "chain", "cyclic", "looping", "once",
                 "stepped_once", "auditable", "bound", "n_calls",
                 "guards_elided")

    def __init__(self, head: int, chain: List[int], cyclic: bool) -> None:
        self.head = head
        self.chain = chain
        self.cyclic = cyclic
        self.looping = None      #: the real anchor closure
        self.once = None         #: single-pass generic variant (audits)
        self.stepped_once = None  #: stepped twin of ``once`` (audits)
        self.auditable = False
        self.bound = 0.0         #: entry-segment cycle bound
        self.n_calls = 0         #: call-ending blocks chained across
        self.guards_elided = 0   #: chain-redundant guards dropped (static)


class TraceTable:
    """Edge counters, promotion state and compiled traces of one code
    object, bound (like its :class:`BlockTable`) to one executor."""

    __slots__ = ("executor", "code", "table", "anchors", "traces",
                 "edge_counts", "entries", "trace_entries", "counting",
                 "promoted", "disabled", "budget", "dem", "hot_edge",
                 "hot_entry")

    def __init__(self, code: "CodeObject", table: "BlockTable",
                 executor: "Executor") -> None:
        self.executor = executor
        self.code = code
        self.table = table
        #: per-bid anchor: the looping trace closure, or None.  The
        #: driver consults this list on every block dispatch.
        self.anchors: List[object] = [None] * len(table.spans)
        self.traces: Dict[int, TraceInfo] = {}
        #: (src_bid, dst_bid) -> retired-edge count while counting
        self.edge_counts: Dict[Tuple[int, int], int] = {}
        self.entries = 0        #: activations observed while counting
        self.trace_entries = 0  #: times any trace closure was entered
        self.counting = True
        self.promoted = False
        self.disabled = False
        #: one-cell demotion flag bound into every trace closure's
        #: globals: flipping it makes in-flight cyclic traces side-exit
        #: at their next segment check.
        self.dem = [False]
        self.budget = _env_int("REPRO_TRACEJIT_BUDGET", 4096)
        self.hot_edge = _env_int("REPRO_TRACEJIT_HOT", 24)
        self.hot_entry = _env_int("REPRO_TRACEJIT_ENTRY", 64)

    def disable(self) -> None:
        """Drop every trace, including for loops already inside one.

        Called by :meth:`BlockTable.demote` (sentinel divergence) — the
        ``dem`` flag reaches closures already running, clearing the
        anchors stops new entries, and ``disabled`` stops re-promotion.
        """
        self.disabled = True
        self.counting = False
        self.dem[0] = True
        self.anchors[:] = [None] * len(self.anchors)

    # -- promotion -------------------------------------------------------

    def promote(self) -> None:
        """Freeze counting and compile hot chains (idempotent)."""
        if self.promoted or self.disabled:
            return
        self.promoted = True
        self.counting = False
        table = self.table
        if table.demoted or table.flags_live:
            return
        # Hottest successor per source block, deterministically (higher
        # count wins; ties break towards the smaller block id).
        best: Dict[int, Tuple[int, int]] = {}
        for (src, dst), count in sorted(self.edge_counts.items()):
            got = best.get(src)
            if got is None or count > got[0]:
                best[src] = (count, dst)
        heads: List[Tuple[int, bool]] = []
        taken = set()
        hot_back_edges = sorted(
            ((count, src, dst) for (src, dst), count in
             self.edge_counts.items()
             if dst <= src and count >= self.hot_edge),
            key=lambda item: (-item[0], item[1], item[2]),
        )
        for _count, _src, dst in hot_back_edges:
            if dst not in taken:
                heads.append((dst, False))
                taken.add(dst)
        if self.entries >= self.hot_entry and 0 not in taken:
            heads.append((0, False))  # call-heavy: anchor at entry
            taken.add(0)
        # Post-call resume blocks: a hot edge out of a call-ending block
        # anchors a trace exactly where the call returns, so the resumed
        # path runs chained (possibly across further calls) instead of
        # round-tripping through the table.  Secondary to loop/entry
        # heads: skipped when an earlier chain already covers the block.
        decoded = self.code._decoded
        spans = table.spans
        resume_heads = sorted(
            ((count, src, dst) for (src, dst), count in
             self.edge_counts.items()
             if count >= self.hot_edge and dst < len(spans)
             and decoded[spans[src][1] - 1][0] in _CALL_KINDS),
            key=lambda item: (-item[0], item[1], item[2]),
        )
        for _count, _src, dst in resume_heads:
            if dst not in taken:
                heads.append((dst, True))
                taken.add(dst)
        if not heads:
            return
        legal = fused_block_edges(self.code.instrs)
        compiler = _TraceCompiler(self.code, self.executor, table, self)
        sources: List[str] = []
        pending: List[Tuple[TraceInfo, bool]] = []
        covered = set()
        for head, secondary in heads:
            if len(pending) >= MAX_TRACES:
                break
            if self.anchors[head] is not None:
                continue
            if secondary and head in covered:
                continue
            chain, cyclic = self._grow(head, best, legal)
            if len(chain) < 2 and not cyclic:
                continue
            try:
                src_l, src_o, info = compiler.compile_trace(
                    head, chain, cyclic
                )
            except _ChainAbort:
                continue
            sources.append(src_l)
            auditable = info.n_calls == 0 and all(
                table.auditable[b] for b in chain
            )
            if auditable:
                sources.append(src_o)
            pending.append((info, auditable))
            covered.update(chain)
        if not pending:
            return
        source = "\n".join(sources)
        compiled = _COMPILED_SOURCES.get(source)
        if compiled is None:
            compiled = _COMPILED_SOURCES[source] = compile(
                source, "<tracejit>", "exec"
            )
        glb = compiler.glb
        exec(compiled, glb)  # noqa: S102 - generated from decoded instrs
        for info, auditable in pending:
            info.looping = glb.pop(f"_trace_l{info.head}")
            if auditable:
                info.once = glb.pop(f"_trace_o{info.head}")
                info.stepped_once = _make_stepped_once(
                    self.executor, table.driver, info.chain, info.bound
                )
                info.auditable = True
            self.traces[info.head] = info
            self.anchors[info.head] = info.looping

    def _grow(self, head: int, best: Dict[int, Tuple[int, int]],
              legal) -> Tuple[List[int], bool]:
        """Follow hottest successors from ``head``; True when the chain
        closes back on its head (a loop-spanning trace)."""
        chain = [head]
        seen = {head}
        bid = head
        while len(chain) < MAX_CHAIN:
            got = best.get(bid)
            if got is None or got[0] < self.hot_edge:
                break
            nxt = got[1]
            if (bid, nxt) not in legal:
                break
            if nxt == head:
                return chain, True
            if nxt in seen:
                break
            chain.append(nxt)
            seen.add(nxt)
            bid = nxt
        return chain, False


def _make_stepped_once(ex: "Executor", driver, chain: List[int],
                       bound: float):
    """Stepped twin of a trace's ``once`` variant: the same single
    entry-segment check, then the chain replayed through the blocks'
    stepped closures (the per-instruction reference), early-exiting the
    moment control leaves the chain."""
    head = chain[0]
    last = len(chain) - 1

    def _stepped_once(regs, fregs, frame, special, heap, cycles):
        if cycles + bound >= ex._next_sample or ex.forced_deopt_trips > 0:
            return (head, cycles)
        bid = head
        for pos, chained in enumerate(chain):
            bid, cycles = driver[chained][2](
                regs, fregs, frame, special, heap, cycles
            )
            if pos < last and bid != chain[pos + 1]:
                return (bid, cycles)
        return (bid, cycles)

    return _stepped_once


def _chain_guard_sets(code: "CodeObject", table: "BlockTable",
                      chain: List[int]):
    """Per-position guard facts a trace must still evaluate.

    Walks the chain with an *alive* fact set: a block's hoisted entry
    guards join it once evaluated, and any instruction that redefines a
    fact's registers — or clobbers the heap, for heap-dependent facts —
    kills it (the same kill rule typeflow's own stability analysis
    uses).  Chains are straight-line by construction, so the position-
    based analysis is valid on every loop iteration.
    """
    from ..analysis.typeflow import _HEAP_FACTS, _fact_regs
    from ..isa.semantics import abstract_transfer_of, effect_of

    plans = table.typed_plans
    alive: set = set()
    out: List[Tuple] = []
    elided = 0
    for bid in chain:
        plan = plans.get(bid)
        if plan is None:
            out.append(())
        else:
            evaluated = tuple(f for f in plan.guards if f not in alive)
            elided += len(plan.guards) - len(evaluated)
            alive.update(plan.guards)
            out.append(evaluated)
        start, end = table.spans[bid]
        for pc in range(start, end):
            if not alive:
                break
            instr = code.instrs[pc]
            defs = effect_of(instr).int_defs
            kills_heap = abstract_transfer_of(instr).kills_heap
            doomed = [
                f for f in alive
                if (set(_fact_regs(f)) & defs)
                or (kills_heap and f[0] in _HEAP_FACTS)
            ]
            for f in doomed:
                alive.discard(f)
    return out, elided


def _version_chain_plan(ctx, table: "BlockTable", chain: List[int],
                        cyclic: bool):
    """Version-aware chain analysis: traces *stitch versions*.

    When the LBBV tier is active the trace inherits its chaining rule:
    walk the chain's actual edges with the typeflow transfer function,
    starting from the head's converged entry facts (which hold on every
    entry, including a cyclic trace's back edge, because the static
    must-analysis already met over that edge).  A position's hoisted
    guard is dropped when the propagated state *establishes* its fact —
    the same legality predicate as a guard-free chained version edge —
    and a position with no static plan gains a guard-free version plan
    wherever the edge state proves its site (elision the per-block meet
    could never justify).  Per-position facts derive only from earlier
    positions of the same iteration plus the head's all-paths entry
    state, so cyclic chains stay sound on every iteration.

    Returns ``(evaluated-guards per position, elided count, plan per
    position)``; the caller uses it in place of the alive-set analysis.
    """
    plans = table.typed_plans
    state = frozenset(ctx.static_entry.get(chain[0], frozenset()))
    out: List[Tuple] = []
    pos_plans: List[object] = []
    elided = 0
    n = len(chain)
    for pos, bid in enumerate(chain):
        plan = plans.get(bid)
        if plan is None:
            plan = ctx.plan_for(bid, state)  # guard-free or None
            out.append(())
            entry = state
        else:
            evaluated = tuple(
                f for f in plan.guards if not ctx.establishes(state, (f,))
            )
            elided += len(plan.guards) - len(evaluated)
            out.append(evaluated)
            entry = frozenset(state | set(plan.guards))
        pos_plans.append(plan)
        if pos + 1 < n:
            nxt: Optional[int] = chain[pos + 1]
        elif cyclic:
            nxt = chain[0]
        else:
            break
        succ_states = [
            s for succ, s in ctx.out_states(bid, entry) if succ == nxt
        ]
        if not succ_states:
            state = frozenset()
        else:
            state = succ_states[0]
            for s in succ_states[1:]:
                state = state & s
    return out, elided, pos_plans


class _TraceCompiler(_BlockCompiler):
    """Generates trace closures by reusing the block compiler's per-kind
    emission, guard construction and statistics prologues, so chained
    code is statement-identical to the fused blocks it replaces."""

    def __init__(self, code: "CodeObject", executor: "Executor",
                 table: "BlockTable", tt: TraceTable) -> None:
        super().__init__(code, executor)
        self.table = table
        self.block_of = table.block_of
        self.n_blocks = len(table.spans)
        self.flags_live = False  # flags-live tables are never traced
        self.plans = dict(table.typed_plans)
        self.glb["dem"] = tt.dem
        self.audited = executor._audit is not None
        if self.audited:
            self.glb["aud"] = executor._audit

    # -- trace assembly --------------------------------------------------

    def compile_trace(self, head: int, chain: List[int],
                      cyclic: bool) -> Tuple[str, str, TraceInfo]:
        info = TraceInfo(head, list(chain), cyclic)
        decoded = self.decoded
        spans = self.table.spans
        seg_starts = {0}
        for pos in range(1, len(chain)):
            prev_end = spans[chain[pos - 1]][1]
            if decoded[prev_end - 1][0] in _CALL_KINDS:
                seg_starts.add(pos)
        info.n_calls = sum(
            1 for bid in chain
            if decoded[spans[bid][1] - 1][0] in _CALL_KINDS
        )
        seg_bounds: Dict[int, float] = {}
        penalty = self.mispredict + self.taken_extra
        for seg in sorted(seg_starts):
            bound = 1.0  # float-ordering safety margin; only ever makes
            pos = seg    # the check side-exit early, never late
            while pos < len(chain) and (pos == seg or pos not in seg_starts):
                block = self.table.blocks[chain[pos]]
                bound += block.total_cost + block.n_branches * penalty
                pos += 1
            seg_bounds[seg] = bound
        info.bound = seg_bounds[0]
        versions = getattr(self.code, "_versions", None)
        if (
            versions is not None
            and versions.active
            and not versions.disabled
        ):
            # Stitch versions: edge-state chain analysis inherits the
            # LBBV tier's guard-free chaining (and its extra site
            # elisions) inside the trace.
            eval_guards, info.guards_elided, pos_plans = _version_chain_plan(
                versions.ctx, self.table, chain, cyclic
            )
        else:
            eval_guards, info.guards_elided = _chain_guard_sets(
                self.code, self.table, chain
            )
            pos_plans = [self.plans.get(bid) for bid in chain]
        src_l = self._assemble_trace(
            head, chain, cyclic, once=False, eval_guards=eval_guards,
            pos_plans=pos_plans, seg_starts=seg_starts,
            seg_bounds=seg_bounds,
        )
        src_o = self._assemble_trace(
            head, chain, cyclic, once=True, eval_guards=eval_guards,
            pos_plans=pos_plans, seg_starts=seg_starts,
            seg_bounds=seg_bounds,
        )
        return src_l, src_o, info

    def _assemble_trace(self, head: int, chain: List[int], cyclic: bool,
                        once: bool, eval_guards, pos_plans, seg_starts,
                        seg_bounds) -> str:
        lines: List[str] = []
        n = len(chain)
        for pos, bid in enumerate(chain):
            start, end = self.table.spans[bid]
            block = self.table.blocks[bid]
            tail = pos == n - 1
            if pos in seg_starts:
                cond = (
                    f"cycles + {seg_bounds[pos]!r} >= ex._next_sample"
                    " or ex.forced_deopt_trips > 0"
                )
                if not once:
                    cond += " or dem[0]"
                    if self.audited:
                        cond += " or stats.instructions >= aud.due"
                lines.append(f"if {cond}:")
                lines.append(f"    return ({bid}, cycles)")
            # The once variant runs generic bodies: its stepped twin
            # replays the (generic) stepped closures, and typed-vs-
            # generic equivalence is already audited block-by-block.
            plan = None if once else pos_plans[pos]
            if plan is not None:
                evaluated = eval_guards[pos]
                for fact in evaluated:
                    setup, fcond = self._guard_test(fact)
                    lines.extend(setup)
                    lines.append(f"if {fcond}:")
                    # Entry-state side exit: the driver re-dispatches the
                    # block, whose own guard does the tstat accounting.
                    lines.append(f"    return ({bid}, cycles)")
                if evaluated:
                    lines.append(f"tstat[3] += {len(evaluated)}")
            lines.append(f"cycles = cycles + {block.total_cost!r}")
            lines.extend(self._stats_prologue(block))
            actions = dict(plan.actions) if plan is not None else {}
            if tail:
                if cyclic:
                    next_bid: Optional[int] = head
                    jump: Optional[str] = (
                        f"return ({head}, cycles)" if once else "continue"
                    )
                else:
                    next_bid = None
                    jump = None
            else:
                next_bid = chain[pos + 1]
                jump = None
            for pc in range(start, end - 1):
                if plan is not None and pc == plan.site_pc:
                    raise _ChainAbort("elided site is not block-final")
                action = actions.get(pc)
                if action is not None and action[0] == "skip":
                    continue
                if action is not None and action[0] == "const":
                    lines.append(
                        f"regs[{action[1]}] = {self._lit(action[2])}"
                    )
                    continue
                lines.extend(self._emit(pc, end, False))
            lines.extend(self._chain_term(
                end - 1, end, plan, actions, next_bid, jump,
                linear_tail=(tail and not cyclic),
            ))
        name = f"_trace_{'o' if once else 'l'}{head}"
        src = [f"def {name}(regs, fregs, frame, special, heap, cycles):"]
        if cyclic and not once:
            src.append("    while True:")
            indent = "        "
        else:
            indent = "    "
        src.extend(indent + line for line in lines)
        return "\n".join(src) + "\n"

    def _chain_term(self, pc: int, end: int, plan, actions,
                    next_bid: Optional[int], jump: Optional[str],
                    linear_tail: bool) -> List[str]:
        """Emit a chained block's terminator.

        Mid-chain (and at a cyclic tail) the hot direction must reach
        ``next_bid``: returns are stripped or restructured so control
        falls through into the next chained block (or ``jump``s back to
        the head), while every cold direction side-exits with the exact
        state the block driver expects.  A linear tail keeps the block
        compiler's standalone emission verbatim.
        """
        last_kind = self.decoded[pc][0]
        if linear_tail:
            if plan is not None and pc == plan.site_pc:
                return self._emit_elided_site(pc, plan)
            action = actions.get(pc)
            if action is not None and action[0] == "skip":
                return [self._ret(self._target_bid(end))]
            if action is not None and action[0] == "const":
                return [
                    f"regs[{action[1]}] = {self._lit(action[2])}",
                    self._ret(self._target_bid(end)),
                ]
            out = self._emit(pc, end, False)
            if last_kind not in (K_BCC, K_B, K_RET, K_DEOPT, K_JSLDRSMI,
                                 K_CALL_JS, K_CALL_DYN, K_CALL_RT):
                out.append(self._ret(self._target_bid(end)))
            return out
        assert next_bid is not None
        if plan is not None and pc == plan.site_pc:
            return self._strip_ret(
                self._emit_elided_site(pc, plan), next_bid, jump
            )
        action = actions.get(pc)
        if action is not None and action[0] in ("skip", "const"):
            if self._target_bid(end) != next_bid:
                raise _ChainAbort("fall-through leaves the chain")
            out = []
            if action[0] == "const":
                out.append(f"regs[{action[1]}] = {self._lit(action[2])}")
            if jump is not None:
                out.append(jump)
            return out
        if last_kind == K_BCC:
            return self._chain_bcc(pc, next_bid, jump)
        if last_kind in (K_RET, K_DEOPT):
            raise _ChainAbort("RET/DEOPT cannot continue a chain")
        out = self._emit(pc, end, False)
        if last_kind in (K_B, K_CALL_JS, K_CALL_DYN, K_CALL_RT,
                         K_JSLDRSMI):
            return self._strip_ret(out, next_bid, jump)
        if self._target_bid(end) != next_bid:
            raise _ChainAbort("fall-through leaves the chain")
        if jump is not None:
            out.append(jump)
        return out

    def _strip_ret(self, out: List[str], next_bid: int,
                   jump: Optional[str]) -> List[str]:
        expected = f"return ({next_bid}, cycles)"
        if not out or out[-1] != expected:
            raise _ChainAbort("hot path does not reach the next block")
        out = out[:-1]
        if jump is not None:
            out.append(jump)
        return out

    def _chain_bcc(self, pc: int, next_bid: int,
                   jump: Optional[str]) -> List[str]:
        """A conditional branch inside a chain: the hot direction falls
        through (or jumps back to the head), the cold one side-exits.
        Statement-for-statement the same predictor updates, counter
        bumps and cycle adds — in the same order — as the fused block's
        emission; only the control structure is inverted."""
        from .blockjit import _CC_EXPR

        decoded = self.decoded[pc]
        instr = decoded[7]
        taken_bid = self._target_bid(decoded[4])
        ft_bid = self._target_bid(pc + 1)
        if next_bid == taken_bid:
            hot_taken = True
        elif next_bid == ft_bid:
            hot_taken = False
        else:
            raise _ChainAbort("branch does not reach the next block")
        out = [
            f"taken = {_CC_EXPR[int(instr.cc)]}",
            "_h = pred.history",
            f"_i = ({pc} ^ _h) & {self.pmask}",
            "_t = ptable[_i]",
            "pred.predictions += 1",
        ]
        taken_body = [
            f"pred.history = ((_h << 1) | 1) & {self.pmask}",
            "if _t < 3:",
            "    ptable[_i] = _t + 1",
            "if _t < 2:",
            "    pred.mispredictions += 1",
            "    stats.mispredictions += 1",
            f"    cycles += {self.mispredict!r}",
            "stats.taken_branches += 1",
            f"cycles += {self.taken_extra!r}",
        ]
        nottaken_body = [
            f"pred.history = (_h << 1) & {self.pmask}",
            "if _t > 0:",
            "    ptable[_i] = _t - 1",
            "if _t >= 2:",
            "    pred.mispredictions += 1",
            "    stats.mispredictions += 1",
            f"    cycles += {self.mispredict!r}",
        ]
        if hot_taken:
            out.append("if not taken:")
            out.extend("    " + line for line in nottaken_body)
            out.append(f"    return ({ft_bid}, cycles)")
            out.extend(taken_body)
        else:
            out.append("if taken:")
            out.extend("    " + line for line in taken_body)
            out.append(f"    return ({taken_bid}, cycles)")
            out.extend(nottaken_body)
        if jump is not None:
            out.append(jump)
        return out


# -- the trace-aware driver ----------------------------------------------


def run_traced(ex: "Executor", code: "CodeObject", args, this_word: int):
    """Three-tier dispatch: traces where anchored, blocks elsewhere.

    Structurally the block driver (:meth:`Executor._run_blocks`) with a
    per-dispatch anchor lookup; after *any* trace exit at least one
    block runs through the ordinary block path before anchors are
    consulted again, so a trace that immediately side-exits (sample
    window closing in, pending trips, demotion) cannot livelock the
    driver.  While the edge budget lasts, block-path transitions feed
    the ``(src, dst)`` counters that chain formation consumes.
    """
    table = code._blocks
    if table is None or table.executor is not ex:
        table = code._blocks = compile_blocks(code, ex)
    if table.flags_live or table.demoted:
        # Flag-threading ABI (documented trace/audit limitation) or an
        # already-demoted table: the two-tier driver handles both.
        return ex._run_blocks(code, args, this_word)
    tt = code._traces
    if tt is None or tt.executor is not ex or tt.table is not table:
        tt = code._traces = TraceTable(code, table, ex)
        table.traces = tt
    if tt.disabled:
        return ex._run_blocks(code, args, this_word)
    # Traces sit above block versioning on the ladder: the version
    # table is always attached here.
    versions = code._versions
    if versions is None or versions.table is not table:
        from .lbbv import attach_versions

        versions = attach_versions(code, table, ex)
    # Version driver entries live past the anchor range; ``vmap``
    # translates them back to base block ids for anchor lookup and edge
    # counting, so trace formation sees the same base CFG either way.
    vmap = versions.base_of
    regs: List[int] = [0] * code.target.gpr_count
    fregs: List[float] = [0.0] * code.target.fpr_count
    frame: List[object] = [0] * max(1, code.stack_slots)
    special = [0, 0, 0]
    for index, arg in enumerate(args):
        regs[index] = arg
    regs[THIS_REG] = this_word
    heap_words = ex.heap.words
    blocks = table.driver
    anchors = tt.anchors
    n_anchor = len(anchors)
    local_cycles = ex.cycles
    bid = 0
    counting = tt.counting
    ec = tt.edge_counts
    if counting:
        tt.entries += 1
    audit = ex._audit
    if audit is not None:
        auditable = table.auditable
        stats = ex.stats
        due = audit.due
        while True:
            tr = anchors[bid] if bid < n_anchor else None
            if tr is not None:
                if stats.instructions >= due:
                    due = audit.due
                    if stats.instructions >= due:
                        info = tt.traces.get(bid)
                        if (info is not None and info.auditable
                                and ex.forced_deopt_trips == 0
                                and local_cycles + info.bound
                                < ex._next_sample):
                            audit.audit_trace(
                                ex, code, table, tt, info, regs, fregs,
                                frame, special, local_cycles,
                            )
                            due = audit.due = (
                                stats.instructions + audit.next_interval()
                            )
                    tr = anchors[bid]  # the audit may have demoted us
                if tr is not None:
                    tt.trace_entries += 1
                    bid, local_cycles = tr(
                        regs, fregs, frame, special, heap_words,
                        local_cycles,
                    )
                    if bid < 0:
                        return ex.ret_value
            total_cost, fused, stepped = blocks[bid]
            exit_cycles = local_cycles + total_cost
            if (exit_cycles >= ex._next_sample
                    or ex.forced_deopt_trips > 0):
                nbid, local_cycles = stepped(
                    regs, fregs, frame, special, heap_words, local_cycles,
                )
            else:
                if stats.instructions >= due and auditable[bid]:
                    due = audit.due
                    if stats.instructions >= due:
                        audit.audit_block(
                            ex, code, table, bid, regs, fregs, frame,
                            special, local_cycles,
                        )
                        due = audit.due = (
                            stats.instructions + audit.next_interval()
                        )
                        if table.demoted:
                            nbid, local_cycles = stepped(
                                regs, fregs, frame, special, heap_words,
                                local_cycles,
                            )
                            if nbid < 0:
                                return ex.ret_value
                            bid = nbid
                            continue
                nbid, local_cycles = fused(
                    regs, fregs, frame, special, heap_words, exit_cycles,
                )
            if nbid < 0:
                return ex.ret_value
            if counting:
                if nbid < len(vmap):
                    key = (vmap[bid], vmap[nbid])
                else:
                    key = (bid, nbid)
                ec[key] = ec.get(key, 0) + 1
                tt.budget -= 1
                if tt.budget <= 0:
                    tt.promote()
                    counting = False
            bid = nbid
    while True:
        tr = anchors[bid] if bid < n_anchor else None
        if tr is not None:
            tt.trace_entries += 1
            bid, local_cycles = tr(
                regs, fregs, frame, special, heap_words, local_cycles,
            )
            if bid < 0:
                return ex.ret_value
        total_cost, fused, stepped = blocks[bid]
        exit_cycles = local_cycles + total_cost
        if exit_cycles >= ex._next_sample or ex.forced_deopt_trips > 0:
            nbid, local_cycles = stepped(
                regs, fregs, frame, special, heap_words, local_cycles,
            )
        else:
            nbid, local_cycles = fused(
                regs, fregs, frame, special, heap_words, exit_cycles,
            )
        if nbid < 0:
            return ex.ret_value
        if counting:
            if nbid < len(vmap):
                key = (vmap[bid], vmap[nbid])
            else:
                key = (bid, nbid)
            ec[key] = ec.get(key, 0) + 1
            tt.budget -= 1
            if tt.budget <= 0:
                tt.promote()
                counting = False
        bid = nbid
