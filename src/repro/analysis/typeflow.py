"""Flow-sensitive type-state abstract interpretation over machine code.

PR 1 built the verification layer (IR verifier + machine linter); this
module turns it into an *optimization oracle*, in the style of lazy
basic-block versioning and its typed-object-shapes extension
(Chevalier-Boisvert & Feeley, arXiv 1411.0352 / 1507.02437) — done
statically, over the same fused-block partition the block-compiled
executor runs (:func:`repro.isa.semantics.fused_block_leaders`), so the
blockjit tier can compile *typed block variants* up front instead of
discovering types one deopt at a time.

Two analyses run over the machine CFG:

* a **must-analysis** of *facts* (meet = intersection): hard predicates
  about machine state that hold on every path to a program point —
  tag-bit parities, register/constant equalities, map-word equalities,
  unsigned-bounds relations, and element-tag predicates.  Facts are
  established by the fall-through edge of each deopt check (the only way
  past a map check is with the expected map) and by constant/ALU parity
  transfer (:func:`repro.isa.semantics.abstract_transfer_of`); they are
  killed by register redefinition, and heap-dependent facts by any heap
  store or call.  Because a fact member of the in-state reaches the
  point along *every* path, fact implication subsumes the classic
  "dominated by an equivalent check" rule and additionally proves
  redundancy through diamonds where no single dominating check exists.
* a **may-analysis** of the type lattice ``{smi, double, boxed-number,
  string, object(shape-set), heap-object, unknown}`` (join = least upper
  bound, shape sets capped at :data:`MAX_SHAPE_SET` then widened to
  ``heap-object``), producing the per-block entry/exit
  :class:`BlockTypeSummary` artifacts of the CLI's verbose report.  The
  engine reads none of them, so it runs only when
  :attr:`TypeflowResult.summaries` is first read.

Every ``jsldrsmi`` / map-check / bounds-check / tag-check site is then
classified:

* **redundant** — its passing fact is implied by the must-state at the
  site (including the elements-kind proof: an indexed ``jsldrsmi`` whose
  base has a proven ``PACKED_SMI`` map *and* a proven bounds fact cannot
  load a tagged pointer); the typed block variant drops the test with no
  guard;
* **hoistable** — not implied, but the fact's registers are unmodified
  from block entry to the site (and no heap store intervenes for
  memory facts), so one *hoisted entry guard* per assumed fact makes
  the straight-line body safe; guard failure tail-calls the generic
  block variant;
* **required** — everything else (conditions shared with main-line
  arithmetic, facts outside the language, unstable operands).

The **soundness contract** (cross-validated by ``python -m
repro.analysis typeflow`` and the ``typeflow-soundness`` CI job): a
check classified *redundant* can never dynamically fire.  The engine
records every eager deopt as ``(code.serial, check_id)``
(:attr:`repro.engine.Engine.check_trips`); any trip of a
redundant-classified check is an analysis soundness bug, surfaced as an
ERROR diagnostic plus a ``repro.supervise`` crash bundle.  The analysis
deliberately routes all opcode transfer through the module-level
``abstract_transfer_of`` binding so the mutation tests can seed an
unsound transfer function and assert the cross-validator rejects it.
Each analysis calls it once per pc, when it is set up, and every later
query (fixpoint, classification, version seeding, summaries) reads that
per-instance transfer table.

Engine-level assumption made explicit: bounds-checked indices are
produced by overflow-checked SMI arithmetic, so the check's unsigned
32-bit compare is exact for them — the same assumption the emitted
bounds check itself makes.

The lattice has a second consumer since PR 8: the deoptless dispatcher
(:mod:`repro.machine.continuations`) keys its specialized continuations
by the *negation* of the facts proved here (``"!" + render_fact``), and
pre-seeds its variant table from every ``TypedBlockPlan``'s fact and
hoisted guards — each names a type-state whose failure the dispatcher
may observe, so the first real dispatch into one is a warm seeded hit.
The sentinel's dispatch audit re-evaluates the same facts dynamically
(:func:`repro.machine.continuations.fact_holds`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..isa.base import CC, FRAME_BASE, MachineInstr, MOp
from ..isa.semantics import AbstractTransfer, abstract_transfer_of, effect_of
from ..jit.codegen import CodeObject
from ..machine.blockjit import block_spans
from ..values.maps import ElementsKind
from ..values.tagged import pointer_tag
from .diagnostics import Diagnostic, Severity

#: A fact is a small tuple; the first element is its tag:
#:   ("par", reg, p)              bit0 of regs[reg] == p
#:   ("spar", slot, p)            bit0 of frame[slot] == p
#:   ("regeq", reg, word)         regs[reg] == word
#:   ("map", reg, disp, word)     heap[(regs[reg] >> 1) + disp] == word
#:   ("ub", idx, base, disp)      (regs[idx] & u32) < (heap[(regs[base]
#:                                >> 1) + disp] & u32)
#:   ("memsmi", base, idx, scale, disp)
#:                                the word at the operand address is an
#:                                even int (idx may be -1: no index)
Fact = Tuple

#: heap-dependent fact tags (killed by stores and calls)
_HEAP_FACTS = ("map", "ub", "memsmi")

REDUNDANT = "redundant"
HOISTABLE = "hoistable"
REQUIRED = "required"

#: shape-set width cap of the may-analysis: a join producing more maps
#: than this widens to plain ``heap-object`` (guarantees termination
#: under shape-set growth at loop heads).
MAX_SHAPE_SET = 4

#: type-lattice values: (kind, shapes); shapes is a frozenset of map
#: words for kind == "object", else None.  "unknown" is represented by
#: absence from the state dict.
TypeVal = Tuple[str, Optional[FrozenSet[int]]]

_HEAP_KINDS = ("boxed-number", "string", "object", "heap-object")


def render_fact(f: Fact) -> str:
    tag = f[0]
    if tag == "par":
        return f"r{f[1]} is {'smi' if f[2] == 0 else 'heap-ptr'}"
    if tag == "spar":
        return f"slot{f[1]} is {'smi' if f[2] == 0 else 'heap-ptr'}"
    if tag == "regeq":
        return f"r{f[1]} == {f[2]}"
    if tag == "map":
        return f"map(r{f[1]}+{f[2]}) == {f[3]}"
    if tag == "ub":
        return f"r{f[1]} <u len[r{f[2]}+{f[3]}]"
    if tag == "memsmi":
        idx = f"+r{f[2]}<<{f[3]}" if f[2] >= 0 else ""
        return f"[r{f[1]}{idx}+{f[4]}] is smi"
    return repr(f)


def _fact_regs(f: Fact) -> Tuple[int, ...]:
    """Integer registers a fact's truth depends on."""
    tag = f[0]
    if tag in ("par", "regeq", "map"):
        return (f[1],)
    if tag == "ub":
        return (f[1], f[2])
    if tag == "memsmi":
        return (f[1],) if f[2] < 0 else (f[1], f[2])
    return ()


#: one pc's abstract transfer, as the must-analysis applies it:
#: ``(kills_heap, dest, parity, regeq, copy)`` — the first three from
#: :class:`~repro.isa.semantics.AbstractTransfer`; ``regeq`` is the
#: constant fact a ``movi`` establishes and ``copy`` the ``(src, dst)``
#: registers of a ``movr`` (each None for other opcodes).  A self-move
#: has no ``dest``: it changes nothing either analysis tracks.
_Step = Tuple[bool, Optional[Tuple[str, int]], Optional[Tuple],
              Optional[Fact], Optional[Tuple[int, int]]]

_MOVI = MOp.MOVI
_MOVR = MOp.MOVR
_B = MOp.B
_BCC = MOp.BCC
_RET = MOp.RET
_DEOPT = MOp.DEOPT
_JSLDRSMI = MOp.JSLDRSMI


def _step(instr: MachineInstr, at: AbstractTransfer) -> _Step:
    dest = at.dest
    regeq: Optional[Fact] = None
    copy: Optional[Tuple[int, int]] = None
    op = instr.op
    if op == _MOVI:
        regeq = ("regeq", instr.dst, int(instr.imm))
    elif op == _MOVR:
        if instr.dst == instr.s1:
            dest = None
        else:
            copy = (instr.s1, instr.dst)
    return (at.kills_heap, dest, at.parity, regeq, copy)


def _atom_parity(atom: Tuple[str, int], facts: Set[Fact]) -> Optional[int]:
    kind, index = atom
    if kind == "k":
        return index
    if kind == "r":
        for f in facts:
            if f[1] == index:
                tag = f[0]
                if tag == "par":
                    return f[2]
                if tag == "regeq":
                    return f[2] & 1
        return None
    for f in facts:
        if f[0] == "spar" and f[1] == index:
            return f[2]
    return None


def _parity(desc: Tuple, facts: Set[Fact]) -> Optional[int]:
    """Tag-bit parity a parity descriptor yields under ``facts``."""
    op = desc[0]
    if op == "const":
        return desc[1]
    if op == "copy":
        return _atom_parity(desc[1], facts)
    a, b = _atom_parity(desc[1], facts), _atom_parity(desc[2], facts)
    if op == "xor":
        return a ^ b if a is not None and b is not None else None
    if op == "and":
        if a == 0 or b == 0:
            return 0
        if a == 1 and b == 1:
            return 1
        return None
    if op == "or":
        if a == 1 or b == 1:
            return 1
        if a == 0 and b == 0:
            return 0
        return None
    return None


def join_typeval(a: Optional[TypeVal], b: Optional[TypeVal]) -> Optional[TypeVal]:
    """Least upper bound of two lattice values; None is unknown (top)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a[0] == "object" and b[0] == "object":
        union = (a[1] or frozenset()) | (b[1] or frozenset())
        if len(union) > MAX_SHAPE_SET:
            return ("heap-object", None)  # widening
        return ("object", union)
    if a[0] in _HEAP_KINDS and b[0] in _HEAP_KINDS:
        return ("heap-object", None)
    return None


def render_typeval(value: Optional[TypeVal]) -> str:
    if value is None:
        return "unknown"
    kind, shapes = value
    if kind == "object" and shapes:
        return "object{" + ",".join(str(w) for w in sorted(shapes)) + "}"
    return kind


@dataclass
class CheckClassification:
    """Subsumption verdict for one check site."""

    check_id: int
    kind: str  # CheckKind name ("" when no DeoptPoint is registered)
    site: str  # "branch" | "jsldrsmi"
    pc: int
    block: int
    klass: str  # redundant | hoistable | required
    fact: Optional[Fact]
    reason: str
    #: True when the typed-block tier may actually elide the test (all
    #: structural soundness conditions hold, not just the proof)
    eligible: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "site": self.site,
            "pc": self.pc,
            "block": self.block,
            "class": self.klass,
            "fact": render_fact(self.fact) if self.fact is not None else None,
            "reason": self.reason,
            "eligible": self.eligible,
        }


@dataclass
class BlockTypeSummary:
    """Entry/exit types and entry facts of one block, for the typeflow
    CLI's verbose JSON report.  Built on demand from the may-analysis;
    nothing in the engine reads it."""

    block: int
    start: int
    end: int
    entry_types: Dict[str, str]
    exit_types: Dict[str, str]
    entry_facts: Tuple[str, ...]
    check: Optional[CheckClassification] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "block": self.block,
            "span": [self.start, self.end],
            "entry_types": dict(sorted(self.entry_types.items())),
            "exit_types": dict(sorted(self.exit_types.items())),
            "entry_facts": list(self.entry_facts),
            "check": self.check.to_json() if self.check is not None else None,
        }


#: per-pc replacement actions inside a typed block variant:
#:   ("skip",)             pure flag computation — emit nothing
#:   ("const", dst, word)  heap load with statically-known value — emit
#:                         ``regs[dst] = word`` (bit-identical register
#:                         state, no heap traffic)
#:   ("keep",)             emit verbatim (register defs, shared work)
Action = Tuple


@dataclass(frozen=True)
class TypedBlockPlan:
    """Elision recipe for one block, consumed by
    :mod:`repro.machine.blockjit` when compiling the typed variant."""

    bid: int
    start: int
    end: int
    check_id: int
    site: str  # "branch" | "jsldrsmi"
    site_pc: int
    fact: Fact
    #: entry guards — one per assumed fact; empty for provably-redundant
    #: elisions (no dynamic test at all)
    guards: Tuple[Fact, ...]
    #: (pc, action) for every condition instruction of the check
    actions: Tuple[Tuple[int, Action], ...]
    #: condition instructions whose work is skipped or constant-folded
    n_cond_elided: int = 0


@dataclass
class TypeflowResult:
    """Full analysis result for one code object."""

    function: str
    target: str
    classifications: Dict[int, CheckClassification] = field(default_factory=dict)
    plans: Dict[int, TypedBlockPlan] = field(default_factory=dict)
    body_instructions: int = 0
    #: the analysis that builds :attr:`summaries` on first read
    _source: Optional[_Typeflow] = field(default=None, repr=False, compare=False)
    _summaries: Optional[List[BlockTypeSummary]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def summaries(self) -> List[BlockTypeSummary]:
        """Per-block type summaries of every reachable block.  The
        may-analysis behind them runs on the first read, so code that
        only classifies checks never pays for it."""
        summaries = self._summaries
        if summaries is None:
            source = self._source
            summaries = (
                source.block_summaries(self.classifications)
                if source is not None else []
            )
            self._summaries = summaries
            self._source = None
        return summaries

    @property
    def counts(self) -> Dict[str, int]:
        counts = {REDUNDANT: 0, HOISTABLE: 0, REQUIRED: 0,
                  "checks": 0, "eligible": 0}
        for c in self.classifications.values():
            counts[c.klass] += 1
            counts["checks"] += 1
            if c.eligible:
                counts["eligible"] += 1
        return counts

    def residual_density(self) -> float:
        """Checks per 100 body instructions counting only *required*
        checks — the static density the code would have if every proven
        check were deleted (the paper's Section III-B metric, derived
        from proofs instead of kind lists)."""
        if not self.body_instructions:
            return 0.0
        return 100.0 * self.counts[REQUIRED] / self.body_instructions

    def to_json(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "target": self.target,
            "body_instructions": self.body_instructions,
            "counts": self.counts,
            "residual_density": self.residual_density(),
            "blocks": [s.to_json() for s in self.summaries],
            "checks": [
                c.to_json()
                for _cid, c in sorted(self.classifications.items())
            ],
        }


@dataclass
class _Site:
    """One check site: the last instruction of its fused block."""

    bid: int
    site_pc: int
    check_id: int
    site: str  # "branch" | "jsldrsmi"
    fact: Optional[Fact]
    run_pcs: Tuple[int, ...] = ()


class _Typeflow:
    def __init__(self, code: CodeObject) -> None:
        self.code = code
        self.instrs: List[MachineInstr] = list(code.instrs)
        self.count = len(self.instrs)
        self.spans = block_spans(self.instrs) if self.instrs else []
        self.block_at: Dict[int, int] = {
            start: bid for bid, (start, _end) in enumerate(self.spans)
        }
        #: map word -> Map, for elements-kind / instance-type resolution
        self.maps = {}
        for a_map in getattr(code, "map_dependencies", ()) or ():
            address = getattr(a_map, "address", -1)
            if isinstance(address, int) and address >= 0:
                self.maps[pointer_tag(address)] = a_map
        #: one abstract transfer per pc (see :data:`_Step`), taken once,
        #: here, through the module-level binding the mutation tests patch
        self.transfers: List[_Step] = [
            _step(instr, abstract_transfer_of(instr)) for instr in self.instrs
        ]
        self.sites: Dict[int, _Site] = {}
        self.entry_facts: Dict[int, FrozenSet[Fact]] = {}
        self.entry_types: Dict[int, Dict] = {}
        self.exit_types: Dict[int, Dict] = {}

    # -- fact transfer ---------------------------------------------------

    def _advance(self, facts: Set[Fact], start: int, stop: int) -> None:
        """Apply the transfers of pcs ``start`` to ``stop - 1`` to
        ``facts`` in place."""
        transfers = self.transfers
        for pc in range(start, stop):
            kills_heap, dest, parity, regeq, copy = transfers[pc]
            if kills_heap:
                facts.difference_update(
                    [f for f in facts if f[0] in _HEAP_FACTS]
                )
            if dest is None:
                continue
            kind, index = dest
            additions: List[Fact] = []
            if parity is not None:
                p = _parity(parity, facts)
                if p is not None:
                    additions.append(("par" if kind == "r" else "spar", index, p))
            if regeq is not None:
                additions.append(regeq)
            elif copy is not None:
                src, dst = copy
                for f in facts:
                    if f[1] == src:
                        tag = f[0]
                        if tag == "par" or tag == "regeq":
                            additions.append((tag, dst) + f[2:])
                        elif tag == "map":
                            additions.append(("map", dst, f[2], f[3]))
            # Kill what the destination's old value supported: the same
            # facts ``_fact_regs`` names, tested inline.
            if kind == "s":
                doomed = [f for f in facts if f[0] == "spar" and f[1] == index]
            else:
                pair_tags = ("ub", "memsmi") if index >= 0 else ("ub",)
                doomed = [
                    f for f in facts
                    if (f[1] == index and f[0] != "spar")
                    or (f[0] in pair_tags and f[2] == index)
                ]
            facts.difference_update(doomed)
            facts.update(additions)

    def _add_fact(self, facts: Set[Fact], f: Fact) -> None:
        facts.add(f)
        if f[0] == "regeq":
            facts.add(("par", f[1], f[2] & 1))

    # -- check-site discovery --------------------------------------------

    def _def_in_run(self, reg: int, before: int,
                    run: Tuple[int, ...]) -> Optional[MachineInstr]:
        """Last in-run definition of ``reg`` before pc ``before``."""
        for pc in sorted(run, reverse=True):
            if pc >= before:
                continue
            instr = self.instrs[pc]
            if reg in effect_of(instr).int_defs:
                return instr
        return None

    def _branch_fact(self, run: Tuple[int, ...],
                     branch: MachineInstr) -> Optional[Fact]:
        setter_pc = None
        for pc in sorted(run, reverse=True):
            if effect_of(self.instrs[pc]).sets_flags:
                setter_pc = pc
                break
        if setter_pc is None:
            return None
        setter = self.instrs[setter_pc]
        cc = int(branch.cc)
        op = setter.op
        if op == MOp.TSTI and int(setter.imm) == 1 and setter.s1 >= 0:
            if cc == int(CC.NE):
                return ("par", setter.s1, 0)  # checked_untag: deopt if odd
            if cc == int(CC.EQ):
                return ("par", setter.s1, 1)  # check_heap_object
            return None
        mem = setter.mem
        if op == MOp.CMPI_MEM and cc == int(CC.NE) and mem is not None:
            base, index, _scale, disp = mem
            if base >= 0 and index < 0:
                return ("map", base, disp, int(setter.imm))
            return None
        if op == MOp.CMP_MEM and cc == int(CC.HS) and mem is not None:
            base, index, _scale, disp = mem
            if base >= 0 and index < 0 and setter.s1 >= 0:
                return ("ub", setter.s1, base, disp)
            return None
        if op == MOp.CMPI and cc == int(CC.NE) and setter.s1 >= 0:
            return ("regeq", setter.s1, int(setter.imm))
        if op == MOp.CMP:
            rhs_def = self._def_in_run(setter.s2, setter_pc, run)
            if cc == int(CC.NE) and rhs_def is not None and rhs_def.op == MOp.MOVI:
                word = int(rhs_def.imm)
                lhs_def = self._def_in_run(setter.s1, setter_pc, run)
                if lhs_def is not None and lhs_def.op == MOp.LDR:
                    lmem = lhs_def.mem
                    if lmem is not None and lmem[0] >= 0 and lmem[1] < 0:
                        return ("map", lmem[0], lmem[3], word)
                    return None
                return ("regeq", setter.s1, word)
            if cc == int(CC.HS) and rhs_def is not None and rhs_def.op == MOp.LDR:
                lmem = rhs_def.mem
                if lmem is not None and lmem[0] >= 0 and lmem[1] < 0 \
                        and setter.s1 >= 0:
                    return ("ub", setter.s1, lmem[0], lmem[3])
            return None
        return None

    def _find_sites(self) -> None:
        for bid, (start, end) in enumerate(self.spans):
            last_pc = end - 1
            last = self.instrs[last_pc]
            if last.op == MOp.BCC and last.is_deopt_branch \
                    and last.check_id >= 0:
                run: List[int] = []
                back = last_pc - 1
                while back >= start and \
                        self.instrs[back].check_id == last.check_id:
                    run.append(back)
                    back -= 1
                run_pcs = tuple(sorted(run))
                fact = self._branch_fact(run_pcs, last)
                self.sites[bid] = _Site(
                    bid, last_pc, last.check_id, "branch", fact, run_pcs
                )
            elif last.op == MOp.JSLDRSMI and last.check_id >= 0 \
                    and last.mem is not None:
                base, index, scale, disp = last.mem
                fact: Optional[Fact] = None
                if base >= 0 and base != FRAME_BASE:
                    fact = ("memsmi", base, index, scale, disp)
                self.sites[bid] = _Site(
                    bid, last_pc, last.check_id, "jsldrsmi", fact
                )

    # -- must-analysis (facts) -------------------------------------------

    def _out_edges(
        self, bid: int, entry: FrozenSet[Fact],
    ) -> List[Tuple[int, FrozenSet[Fact]]]:
        start, end = self.spans[bid]
        facts: Set[Fact] = set(entry)
        last_pc = end - 1
        self._advance(facts, start, last_pc)
        last = self.instrs[last_pc]
        edges: List[Tuple[int, FrozenSet[Fact]]] = []
        op = last.op
        if op == _BCC:
            taken = self.block_at.get(last.target)
            if taken is not None:
                edges.append((taken, frozenset(facts)))
            fall = self.block_at.get(last_pc + 1)
            if fall is not None:
                through = set(facts)
                site = self.sites.get(bid)
                if site is not None and site.site == "branch" \
                        and site.fact is not None:
                    self._add_fact(through, site.fact)
                edges.append((fall, frozenset(through)))
        elif op == _B:
            target = self.block_at.get(last.target)
            if target is not None:
                edges.append((target, frozenset(facts)))
        elif op == _RET or op == _DEOPT:
            pass
        else:
            self._advance(facts, last_pc, end)
            if op == _JSLDRSMI:
                site = self.sites.get(bid)
                if site is not None and site.fact is not None \
                        and last.dst not in _fact_regs(site.fact):
                    self._add_fact(facts, site.fact)
            successor = self.block_at.get(last_pc + 1)
            if successor is not None:
                edges.append((successor, frozenset(facts)))
        return edges

    def _run_must(self) -> None:
        if not self.spans:
            return
        self.entry_facts = {0: frozenset()}
        work = deque([0])
        while work:
            bid = work.popleft()
            for succ, state in self._out_edges(bid, self.entry_facts[bid]):
                known = self.entry_facts.get(succ)
                if known is None:
                    self.entry_facts[succ] = state
                    work.append(succ)
                else:
                    merged = known & state
                    if merged != known:
                        self.entry_facts[succ] = merged
                        work.append(succ)

    def state_at_site(self, bid: int, entry: FrozenSet[Fact]) -> FrozenSet[Fact]:
        """Must-state at the check site of ``bid`` (its last pc) when
        ``entry`` holds at block entry."""
        facts: Set[Fact] = set(entry)
        self._advance(facts, self.spans[bid][0], self.sites[bid].site_pc)
        return frozenset(facts)

    # -- may-analysis (type summaries) -----------------------------------

    def _typeval_parity(self, types: Dict, desc: Tuple) -> Optional[int]:
        def atom(a: Tuple[str, int]) -> Optional[int]:
            kind, index = a
            if kind == "k":
                return index
            value = types.get((kind, index))
            if value is None:
                return None
            if value[0] == "smi":
                return 0
            if value[0] in _HEAP_KINDS:
                return 1
            return None  # double / anything else: no tag parity

        op = desc[0]
        if op == "const":
            return desc[1]
        if op == "copy":
            return atom(desc[1])
        a, b = atom(desc[1]), atom(desc[2])
        if op == "xor":
            return a ^ b if a is not None and b is not None else None
        if op == "and":
            if a == 0 or b == 0:
                return 0
            if a == 1 and b == 1:
                return 1
            return None
        if op == "or":
            if a == 1 or b == 1:
                return 1
            if a == 0 and b == 0:
                return 0
            return None
        return None

    def _apply_types(self, types: Dict, pc: int) -> None:
        instr = self.instrs[pc]
        effect = effect_of(instr)
        for freg in effect.float_defs:
            types[("f", freg)] = ("double", None)
        _kills_heap, dest, parity, _regeq, _copy = self.transfers[pc]
        if dest is None:
            if instr.op == MOp.STRF and instr.mem is not None \
                    and instr.mem[0] == FRAME_BASE:
                types[("s", instr.mem[3])] = ("double", None)
            return
        key = (dest[0], dest[1])
        if parity is not None and parity[0] == "copy":
            value = types.get((parity[1][0], parity[1][1]))
            if value is not None:
                types[key] = value
            else:
                types.pop(key, None)
            return
        p = self._typeval_parity(types, parity) if parity else None
        if p == 0:
            types[key] = ("smi", None)
        elif p == 1:
            types[key] = ("heap-object", None)
        else:
            types.pop(key, None)

    def _shape_value(self, word: int) -> TypeVal:
        a_map = self.maps.get(word)
        if a_map is not None:
            type_name = getattr(getattr(a_map, "instance_type", None), "name", "")
            if type_name == "HEAP_NUMBER":
                return ("boxed-number", None)
            if type_name == "STRING":
                return ("string", None)
        return ("object", frozenset({word}))

    def _refine_types(self, types: Dict, fact: Fact) -> None:
        tag = fact[0]
        if tag == "par":
            key = ("r", fact[1])
            if fact[2] == 0:
                types[key] = ("smi", None)
            elif types.get(key) is None:
                types[key] = ("heap-object", None)
        elif tag == "regeq":
            self._refine_types(types, ("par", fact[1], fact[2] & 1))
        elif tag == "map" and fact[2] == 0:
            current = types.get(("r", fact[1]))
            refined = self._shape_value(fact[3])
            if current is None or current[0] in ("heap-object", "object"):
                types[("r", fact[1])] = refined

    def _out_type_edges(self, bid: int, entry: Dict) -> List[Tuple[int, Dict]]:
        start, end = self.spans[bid]
        types = dict(entry)
        for pc in range(start, end - 1):
            self._apply_types(types, pc)
        last_pc = end - 1
        last = self.instrs[last_pc]
        self.exit_types[bid] = dict(types)
        edges: List[Tuple[int, Dict]] = []
        if last.op == MOp.BCC:
            taken = self.block_at.get(last.target)
            if taken is not None:
                edges.append((taken, dict(types)))
            fall = self.block_at.get(last_pc + 1)
            if fall is not None:
                through = dict(types)
                site = self.sites.get(bid)
                if site is not None and site.site == "branch" \
                        and site.fact is not None:
                    self._refine_types(through, site.fact)
                edges.append((fall, through))
        elif last.op == MOp.B:
            target = self.block_at.get(last.target)
            if target is not None:
                edges.append((target, dict(types)))
        elif last.op in (MOp.RET, MOp.DEOPT):
            pass
        else:
            self._apply_types(types, last_pc)
            self.exit_types[bid] = dict(types)
            successor = self.block_at.get(last_pc + 1)
            if successor is not None:
                edges.append((successor, dict(types)))
        return edges

    def _run_may(self) -> None:
        if not self.spans:
            return
        self.entry_types = {0: {}}
        work = deque([0])
        # The system is monotone over a finite-height lattice (shape
        # sets are capped), so this terminates; the round bound is a
        # defensive backstop only.
        rounds = 0
        limit = 64 * max(1, len(self.spans)) * max(1, len(self.spans))
        while work and rounds < limit:
            rounds += 1
            bid = work.popleft()
            for succ, state in self._out_type_edges(bid, self.entry_types[bid]):
                known = self.entry_types.get(succ)
                if known is None:
                    self.entry_types[succ] = state
                    work.append(succ)
                    continue
                merged = {}
                for key in known.keys() & state.keys():
                    joined = join_typeval(known[key], state[key])
                    if joined is not None:
                        merged[key] = joined
                if merged != known:
                    self.entry_types[succ] = merged
                    work.append(succ)

    # -- classification ---------------------------------------------------

    def _resolve_packed_smi(self, word: int) -> bool:
        a_map = self.maps.get(word)
        return a_map is not None and \
            a_map.elements_kind == ElementsKind.PACKED_SMI

    def _implied(self, state: FrozenSet[Fact], fact: Fact) -> Tuple[bool, str]:
        if fact in state:
            return True, f"fact [{render_fact(fact)}] holds on every path"
        tag = fact[0]
        if tag == "par":
            for f in state:
                if f[0] == "regeq" and f[1] == fact[1] \
                        and (f[2] & 1) == fact[2]:
                    return True, (
                        f"r{fact[1]} is the constant {f[2]} "
                        f"(parity {fact[2]})"
                    )
        if tag == "memsmi" and fact[2] >= 0:
            # Elements-kind proof (typed object shapes): a bounds-checked
            # indexed load from an object with a proven PACKED_SMI map
            # cannot observe a tagged pointer.
            base, index = fact[1], fact[2]
            has_bounds = any(
                f[0] == "ub" and f[1] == index and f[2] == base
                for f in state
            )
            if has_bounds:
                for f in state:
                    if f[0] == "map" and f[1] == base and f[2] == 0 \
                            and self._resolve_packed_smi(f[3]):
                        return True, (
                            f"r{base} has a PACKED_SMI map (word {f[3]}) "
                            f"and r{index} is bounds-checked against it"
                        )
        return False, ""

    def _stable_from_entry(self, bid: int, site: _Site) -> bool:
        fact = site.fact
        assert fact is not None
        regs = set(_fact_regs(fact))
        heap_dependent = fact[0] in _HEAP_FACTS
        start, _end = self.spans[bid]
        for pc in range(start, site.site_pc):
            if regs & effect_of(self.instrs[pc]).int_defs:
                return False
            if heap_dependent and self.transfers[pc][0]:
                return False
        return True

    def _actions(self, site: _Site) -> Optional[Tuple[Tuple[int, Action], ...]]:
        """Per-pc replacement actions, or None when the site cannot be
        elided soundly (a condition instruction defines a fact register,
        or the branch does not target a deopt stub)."""
        fact = site.fact
        assert fact is not None
        fact_regs = set(_fact_regs(fact))
        if site.site == "jsldrsmi":
            return ()
        branch = self.instrs[site.site_pc]
        if not (0 <= branch.target < self.count
                and self.instrs[branch.target].op == MOp.DEOPT):
            return None
        actions: List[Tuple[int, Action]] = []
        for pc in site.run_pcs:
            instr = self.instrs[pc]
            effect = effect_of(instr)
            if effect.int_defs & fact_regs:
                return None  # the condition perturbs what we reason about
            pure_flags = (
                effect.sets_flags
                and not effect.int_defs
                and not effect.float_defs
                and not effect.slot_defs
                and not instr.shared_with_main
                and instr.check_id == site.check_id
            )
            if pure_flags:
                actions.append((pc, ("skip",)))
            elif (
                instr.op == MOp.LDR
                and fact[0] == "map"
                and instr.mem is not None
                and instr.mem[0] == fact[1]
                and instr.mem[1] < 0
                and instr.mem[3] == fact[2]
            ):
                # The loaded word is the proven map word: substitute the
                # constant so register state stays bit-identical without
                # the heap access.
                actions.append((pc, ("const", instr.dst, fact[3])))
            else:
                actions.append((pc, ("keep",)))
        return tuple(actions)

    def _classify(self) -> Dict[int, CheckClassification]:
        result: Dict[int, CheckClassification] = {}
        points = getattr(self.code, "deopt_points", {}) or {}
        for bid, site in sorted(self.sites.items()):
            point = points.get(site.check_id)
            kind_name = point.kind.name if point is not None else ""
            entry = self.entry_facts.get(bid)
            if entry is None:
                result[site.check_id] = CheckClassification(
                    site.check_id, kind_name, site.site, site.site_pc, bid,
                    REQUIRED, site.fact, "unreachable block", False,
                )
                continue
            if site.fact is None:
                result[site.check_id] = CheckClassification(
                    site.check_id, kind_name, site.site, site.site_pc, bid,
                    REQUIRED, None,
                    "no fact in the analysis language for this condition",
                    False,
                )
                continue
            implied, why = self._implied(
                self.state_at_site(bid, entry), site.fact
            )
            if implied:
                actions = self._actions(site)
                result[site.check_id] = CheckClassification(
                    site.check_id, kind_name, site.site, site.site_pc, bid,
                    REDUNDANT, site.fact, why, actions is not None,
                )
                continue
            if self._stable_from_entry(bid, site):
                actions = self._actions(site)
                result[site.check_id] = CheckClassification(
                    site.check_id, kind_name, site.site, site.site_pc, bid,
                    HOISTABLE, site.fact,
                    f"fact [{render_fact(site.fact)}] is stable from block "
                    "entry; one hoisted guard covers it",
                    actions is not None,
                )
                continue
            result[site.check_id] = CheckClassification(
                site.check_id, kind_name, site.site, site.site_pc, bid,
                REQUIRED, site.fact,
                "operands or heap state change between block entry and "
                "the check",
                False,
            )
        return result

    def _build_plans(
        self, classifications: Dict[int, CheckClassification]
    ) -> Dict[int, TypedBlockPlan]:
        plans: Dict[int, TypedBlockPlan] = {}
        for bid, site in self.sites.items():
            verdict = classifications.get(site.check_id)
            if verdict is None or not verdict.eligible or site.fact is None:
                continue
            actions = self._actions(site)
            if actions is None:
                continue
            elided = sum(1 for _pc, act in actions if act[0] != "keep")
            start, end = self.spans[bid]
            plans[bid] = TypedBlockPlan(
                bid=bid,
                start=start,
                end=end,
                check_id=site.check_id,
                site=site.site,
                site_pc=site.site_pc,
                fact=site.fact,
                guards=(site.fact,) if verdict.klass == HOISTABLE else (),
                actions=actions,
                n_cond_elided=elided,
            )
        return plans

    # -- entry point ------------------------------------------------------

    def run(self) -> TypeflowResult:
        """Finish an instance :class:`VersionAnalysis` prepared (sites
        found, must-fixpoint converged) into the static result.  The
        steps here only read ``sites`` and the must-facts, so the same
        instance keeps serving the LBBV queries; the result's block
        summaries are built from it on first read."""
        name = getattr(getattr(self.code.shared, "info", None), "name", "?")
        result = TypeflowResult(function=name, target=self.code.target.name)
        result.body_instructions = sum(
            1 for i in self.instrs if i.op != MOp.DEOPT
        )
        if not self.instrs:
            return result
        result.classifications = self._classify()
        result.plans = self._build_plans(result.classifications)
        result._source = self
        return result

    def block_summaries(
        self, classifications: Dict[int, CheckClassification]
    ) -> List[BlockTypeSummary]:
        """Run the may-analysis and render one summary per block the
        must-analysis reached."""
        self._run_may()
        by_block = {c.block: c for c in classifications.values()}
        summaries: List[BlockTypeSummary] = []
        for bid, (start, end) in enumerate(self.spans):
            if bid not in self.entry_facts:
                continue  # unreachable: no summary
            entry_t = self.entry_types.get(bid, {})
            exit_t = self.exit_types.get(bid, {})
            summaries.append(BlockTypeSummary(
                block=bid,
                start=start,
                end=end,
                entry_types={
                    f"{k[0]}{k[1]}": render_typeval(v)
                    for k, v in entry_t.items()
                },
                exit_types={
                    f"{k[0]}{k[1]}": render_typeval(v)
                    for k, v in exit_t.items()
                },
                entry_facts=tuple(sorted(
                    render_fact(f) for f in self.entry_facts[bid]
                )),
                check=by_block.get(bid),
            ))
        return summaries


#: fact tags the machine tier can test dynamically — the shared guard
#: vocabulary: :func:`repro.machine.blockjit._guard_test` compiles each
#: of these to a register/heap predicate and
#: :func:`repro.machine.continuations.fact_holds` re-evaluates the same
#: predicates interpretively.  ``spar`` facts (frame-slot parity) are
#: deliberately absent: they have no compiled guard, so version keys
#: and dispatch states are restricted to this vocabulary.
GUARDABLE_FACTS: Tuple[str, ...] = ("par", "regeq", "map", "ub", "memsmi")


def guardable_fact(fact: Fact) -> bool:
    """True when the machine tier can dynamically test ``fact``."""
    return bool(fact) and fact[0] in GUARDABLE_FACTS


def version_key(state: Iterable[Fact]) -> FrozenSet[Fact]:
    """Canonical LBBV version key for a fact state: the dynamically
    testable (guardable) subset.  Facts outside the guard vocabulary
    cannot be established by a dispatcher nor promised across a chained
    edge, so they never participate in version identity."""
    return frozenset(f for f in state if guardable_fact(f))


class VersionAnalysis:
    """Per-code-object analysis context for runtime block versioning.

    Wraps the prepared must-analysis (:class:`_Typeflow` after site
    discovery and fixpoint; :func:`analyze_typeflow` finishes the same
    instance into the static result) and exposes the two queries the
    LBBV tier needs beyond the static result:

    * :meth:`out_states` — per-edge *outgoing* type-states under an
      arbitrary (version-specific) entry state, computed by the same
      sound transfer function the static analysis converged with; and
    * :meth:`plan_for` — a guard-free :class:`TypedBlockPlan` for the
      block's check site when the version's entry state propagates to
      an implication at the site, i.e. the version may elide the check
      with **zero** entry guards because its key already promises the
      fact.

    The static per-block entry facts (:attr:`static_entry`) are the
    meet over *all* paths; a version key is the state along *one*
    observed path, so ``plan_for`` proves a superset of what the static
    tier could (that is the whole point of versioning).
    """

    def __init__(self, code: CodeObject) -> None:
        tf = _Typeflow(code)
        if tf.instrs:
            tf._find_sites()
            tf._run_must()
        self._tf = tf
        self.spans = tf.spans
        self.sites = tf.sites
        #: converged must-state at each reachable block's entry
        self.static_entry: Dict[int, FrozenSet[Fact]] = tf.entry_facts
        # The lbbv tier's chain-gain search revisits the same
        # (block, entry-state) pairs across many DFS roots; the transfer
        # function is pure over the immutable code object, so both edge
        # and plan queries memoize cleanly.
        self._out_cache: Dict[
            Tuple[int, FrozenSet[Fact]],
            List[Tuple[int, FrozenSet[Fact]]],
        ] = {}
        self._plan_cache: Dict[
            Tuple[int, FrozenSet[Fact]], Optional[TypedBlockPlan]
        ] = {}

    def out_states(
        self, bid: int, entry: Iterable[Fact],
    ) -> List[Tuple[int, FrozenSet[Fact]]]:
        """Outgoing ``(successor, fact-state)`` edges of ``bid`` under a
        custom entry state (sound for any entry that actually holds)."""
        key = (bid, frozenset(entry))
        cached = self._out_cache.get(key)
        if cached is None:
            cached = self._out_cache[key] = self._tf._out_edges(bid, key[1])
        return cached

    def plan_for(
        self, bid: int, entry: Iterable[Fact],
    ) -> Optional[TypedBlockPlan]:
        """Guard-free elision plan for ``bid`` assuming ``entry`` holds
        at block entry; None when the site is not provably redundant
        under that state (versions never carry hoisted guards — a state
        that does not imply the fact simply gets no specialized body)."""
        site = self.sites.get(bid)
        if site is None or site.fact is None:
            return None
        memo_key = (bid, frozenset(entry))
        if memo_key in self._plan_cache:
            return self._plan_cache[memo_key]
        plan = self._plan_for_uncached(bid, memo_key[1], site, site.fact)
        self._plan_cache[memo_key] = plan
        return plan

    def _plan_for_uncached(
        self, bid: int, entry: FrozenSet[Fact], site: _Site, fact: Fact,
    ) -> Optional[TypedBlockPlan]:
        state = self._tf.state_at_site(bid, entry)
        implied, _why = self._tf._implied(state, fact)
        if not implied:
            return None
        actions = self._tf._actions(site)
        if actions is None:
            return None
        elided = sum(1 for _pc, act in actions if act[0] != "keep")
        start, end = self.spans[bid]
        return TypedBlockPlan(
            bid=bid, start=start, end=end, check_id=site.check_id,
            site=site.site, site_pc=site.site_pc, fact=fact,
            guards=(), actions=actions, n_cond_elided=elided,
        )

    def establishes(self, state: Iterable[Fact], facts: Iterable[Fact]) -> bool:
        """True when ``state`` implies every fact in ``facts`` — the
        legality predicate for a guard-free chained edge (mclint's
        ``version-entry-guard`` invariant re-derives edges with this)."""
        snapshot = frozenset(state)
        return all(self._tf._implied(snapshot, f)[0] for f in facts)


def version_analysis(code: CodeObject) -> VersionAnalysis:
    """Run (or fetch the cached) version-analysis context; cached on
    ``code._version_analysis`` like ``_typeflow`` (code objects are
    immutable once generation finishes)."""
    cached = getattr(code, "_version_analysis", None)
    if cached is not None:
        return cached
    ctx = VersionAnalysis(code)
    code._version_analysis = ctx
    return ctx


def analyze_typeflow(code: CodeObject) -> TypeflowResult:
    """Run (or fetch the cached) typeflow analysis for one code object.

    Code objects are immutable once generation finishes, so the result
    is cached on ``code._typeflow`` exactly like ``_decoded``/``_blocks``.
    It finishes the must-analysis :func:`version_analysis` prepared, so
    typed plans and block versions share one fixpoint per code object.
    """
    cached = getattr(code, "_typeflow", None)
    if cached is not None:
        return cached
    result = version_analysis(code)._tf.run()
    code._typeflow = result
    return result


def typed_plans(code: CodeObject) -> Dict[int, TypedBlockPlan]:
    """Elision plans per fused-block id, for the blockjit typed tier
    (empty when nothing is provably elidable)."""
    return analyze_typeflow(code).plans


def cross_validate(
    codes: Iterable[CodeObject], check_trips: Dict[Tuple[int, int], int],
    bundle_root: Optional[Path] = None,
) -> List[Diagnostic]:
    """Static-vs-dynamic soundness check over a run's code-object history.

    ``check_trips`` maps ``(code.serial, check_id)`` to the number of
    eager deopts the engine recorded for that check
    (:attr:`repro.engine.Engine.check_trips`).  Any trip of a check the
    analysis classified *redundant* is an analysis soundness bug: an
    ERROR diagnostic is returned and a ``typeflow-unsound`` crash bundle
    captured for ``python -m repro.supervise`` forensics.  Note that
    fault injection (:mod:`repro.resilience`) forces spurious trips that
    would false-positive here — the validator is only meaningful over
    uninjected runs, which is all the CLI and CI job perform.
    """
    from ..supervise.bundles import capture_bundle

    diagnostics: List[Diagnostic] = []
    for code in codes:
        result = analyze_typeflow(code)
        serial = getattr(code, "serial", -1)
        for check_id, verdict in sorted(result.classifications.items()):
            if verdict.klass != REDUNDANT:
                continue
            trips = check_trips.get((serial, check_id), 0)
            if not trips:
                continue
            message = (
                f"{result.function} [{result.target}] code #{serial}: check "
                f"{check_id} ({verdict.kind or 'unknown kind'}) classified "
                f"redundant [{verdict.reason}] but dynamically deoptimized "
                f"{trips} time(s) — unsound transfer or proof rule"
            )
            diagnostics.append(Diagnostic(
                Severity.ERROR, "typeflow", "typeflow-soundness", message,
                pc=verdict.pc,
            ))
            capture_bundle("typeflow-unsound", {
                "function": result.function,
                "target": result.target,
                "code_serial": serial,
                "check_id": check_id,
                "check_kind": verdict.kind,
                "pc": verdict.pc,
                "block": verdict.block,
                "fact": render_fact(verdict.fact)
                if verdict.fact is not None else None,
                "reason": verdict.reason,
                "dynamic_trips": trips,
                "counts": result.counts,
            }, root=bundle_root)
    return diagnostics
