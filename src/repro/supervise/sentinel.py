"""Online divergence sentinel for the block driver.

PR 4 proved the fused tier faithful *offline* (a sweep script diffing
whole-run results); this module holds it to a runtime bisimulation
obligation instead.  On a deterministic audit schedule, the executor
hands the sentinel a basic block it is about to run through the fused
closure.  The sentinel then **shadow-executes** the block twice — once
through the stepped twin (the per-instruction reference) and once
through the fused closure — against copies of the register files and
frame and a copy-on-write heap overlay, compares the complete
outcome (next block id, bit-exact cycle total, registers, float
registers, frame, special registers, heap writes, branch-predictor and
counter deltas, exception parity), restores all shared state, and only
then lets the real execution proceed.

On a mismatch the sentinel does not crash the run: it **demotes** the
code object to the step tier (``code._supervise_demoted``) for the rest
of the process — in-flight activations switch to stepped twins via
``BlockTable.demote``, which rewrites the driver's block costs to
``inf`` so the ordinary sample-window condition reroutes every block —
and captures a ``divergence`` crash bundle
(:mod:`repro.supervise.bundles`).  Demotion is the Deoptless recovery
discipline applied to our own fast tier: bail out locally, never
diverge globally.

Why shadow execution is side-effect free here: audit-eligible blocks
are exactly those the fused tier may run (no sample tick in the cycle
window, no pending forced deopt trip) whose last instruction is not a
call, ``RET``, ``DEOPT`` or ``JSLDRSMI`` (``BlockTable.auditable``).
Under those conditions the generated closures touch only their
positional state arguments plus the branch predictor and counter
objects — both snapshot-restored around each probe — and the stepped
twin's per-pc sampler poll can never fire (every prefix cost is ≤ the
block total, which is below the sample due point).  Every block table
is auditable: code whose flags cross a block boundary never gets one
(it runs on the step loop, the reference itself).

The audit **schedule** is deterministic: gaps (in *retired
instructions*, the executor's global ``stats.instructions`` counter)
are drawn from a xorshift64* stream seeded by the engine fingerprint,
so two runs of the same engine version audit the same blocks.
Anchoring the schedule to the instruction counter — rather than a
per-activation block countdown — makes progress global across nested
and recursive activations: a driver loop holding a stale local
threshold re-reads :attr:`DivergenceSentinel.due` before auditing, so
a descendant's audit satisfies the ancestor's pending one.
``EngineConfig(audit=)`` / ``REPRO_AUDIT`` select the mean gap; the
default keeps executor-section overhead under 10 % (measured by
``repro.exec.bench``).

``REPRO_CHAOS_AUDIT=<site>[:N]`` is the test hook, deterministically
seeding a divergence for CI to catch end to end.  The site names which
audit the chaos lands in and N (default 1) which count of it fires:

* ``block`` — the Nth audit of any kind, if it is a block audit: the
  fused shadow's result is perturbed before comparison;
* ``trace`` — the Nth whole-trace audit, perturbed the same way;
* ``version`` — the Nth block audit that lands on a block-version slot;
* ``dispatch`` — the Nth continuation-dispatch audit reports the guard
  fact as still holding, seeding a spurious-trip refusal.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..exec.fingerprint import engine_fingerprint
from .bundles import capture_bundle

#: audit sites ``REPRO_CHAOS_AUDIT`` can corrupt (module docstring)
CHAOS_SITES = ("block", "trace", "dispatch", "version")


def chaos_spec() -> Tuple[Optional[str], int]:
    """``REPRO_CHAOS_AUDIT=<site>[:N]`` as ``(site, N)``; ``(None, 0)``
    when unset or naming no audit site.  A malformed N means 1."""
    site, _, nth = os.environ.get("REPRO_CHAOS_AUDIT", "").partition(":")
    if site not in CHAOS_SITES:
        return None, 0
    try:
        return site, max(1, int(nth)) if nth else 1
    except ValueError:
        return site, 1

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject
    from ..machine.blockjit import BlockTable
    from ..machine.executor import Executor

#: default mean audit gap, in retired instructions.  Prime, so the
#: schedule cannot phase-lock with loop trip counts; large enough that the
#: two-probe audit cost amortizes below the 10 % overhead budget.
DEFAULT_INTERVAL = 9973

_M64 = (1 << 64) - 1
_PACK_D = struct.Struct("<d").pack


def resolve_audit_interval(setting: object) -> Optional[int]:
    """Mean audit gap (in retired instructions) from
    ``EngineConfig(audit=)`` / ``REPRO_AUDIT``.

    ``None`` consults the environment: unset/``0``/``off`` disables,
    ``1``/``on`` enables at :data:`DEFAULT_INTERVAL`, any larger integer
    is the gap itself.  ``True``/``False`` and integers passed
    programmatically follow the same convention.
    """
    if setting is None:
        raw = os.environ.get("REPRO_AUDIT", "")
        if raw.lower() in ("", "0", "false", "off", "no"):
            return None
        if raw.lower() in ("1", "true", "on", "yes"):
            return DEFAULT_INTERVAL
        try:
            value = int(raw)
        except ValueError:
            return None
        return max(2, value)
    if setting is False:
        return None
    if setting is True:
        return DEFAULT_INTERVAL
    value = int(setting)  # type: ignore[call-overload]
    if value <= 0:
        return None
    return max(2, value)


class _ShadowHeap:
    """Copy-on-write overlay over the executor's heap word list.

    Shadow probes read through to the real heap but land every write in
    ``writes``, which doubles as the probe's heap-effect record for the
    divergence comparison and the bundle digest.
    """

    __slots__ = ("base", "writes")

    def __init__(self, base: List[int]) -> None:
        self.base = base
        self.writes: Dict[int, object] = {}

    def __getitem__(self, address: int) -> object:
        writes = self.writes
        if address in writes:
            return writes[address]
        return self.base[address]

    def __setitem__(self, address: int, value: object) -> None:
        self.writes[address] = value

    def __len__(self) -> int:
        return len(self.base)


class _Probe:
    """Outcome of one shadow execution of one block."""

    __slots__ = (
        "bid", "cycles", "regs", "fregs", "frame", "special", "writes",
        "pred", "stats", "error",
    )

    def __init__(self) -> None:
        self.bid: Optional[int] = None
        self.cycles: Optional[float] = None
        self.error: Optional[Tuple[str, str]] = None


def _word_bits(value: object) -> object:
    """A comparison/digest key that is bit-exact for floats."""
    if type(value) is float:
        return _PACK_D(value)
    return value


def _words_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a != b or _word_bits(a) != _word_bits(b):
            return False
    return True


def _writes_equal(left: Dict[int, object], right: Dict[int, object]) -> bool:
    if left.keys() != right.keys():
        return False
    for address, value in left.items():
        other = right[address]
        if value != other or _word_bits(value) != _word_bits(other):
            return False
    return True


def _state_digest(probe: "_Probe") -> str:
    digest = hashlib.sha256()
    digest.update(repr(probe.bid).encode())
    if probe.cycles is not None:
        digest.update(_PACK_D(probe.cycles))
    for group in (probe.regs, probe.fregs, probe.frame, probe.special):
        digest.update(repr([_word_bits(v) for v in group]).encode())
    digest.update(
        repr(sorted((k, _word_bits(v)) for k, v in probe.writes.items())).encode()
    )
    digest.update(repr(probe.error).encode())
    return digest.hexdigest()[:16]


def _entry_digest(regs, fregs, frame, special, cycles: float) -> str:
    digest = hashlib.sha256()
    digest.update(_PACK_D(cycles))
    for group in (regs, fregs, frame, special):
        digest.update(repr([_word_bits(v) for v in group]).encode())
    return digest.hexdigest()[:16]


class DivergenceSentinel:
    """Deterministic audit schedule plus the audit procedure itself."""

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 seed: Optional[int] = None) -> None:
        self.interval = max(2, int(interval))
        if seed is None:
            seed = int(engine_fingerprint()[:16], 16)
        self._state = (seed | 1) & _M64
        #: absolute ``stats.instructions`` threshold for the next audit.
        #: Starts at 0 so the first auditable fused block is audited even
        #: in very short runs; each audit advances it by ``next_interval``.
        self.due = 0
        #: audits performed / divergences found, for tests and bundles
        self.audits = 0
        #: of which, whole-trace audits (repro.machine.tracejit)
        self.trace_audits = 0
        self.divergences = 0
        #: (code-name, block-id) per demotion, in discovery order
        self.demotions: List[Tuple[Optional[str], int]] = []
        self._chaos_site, self._chaos_at = chaos_spec()
        #: continuation-dispatch audits (repro.machine.continuations):
        #: before a deopt re-dispatch the engine asks the sentinel to
        #: re-evaluate the failing guard's fact against the live register
        #: file.  A guard that reports a trip while its fact still holds
        #: is *spurious* — the dispatch is refused, the function's
        #: variants are poisoned, and a ``continuation-divergence``
        #: bundle is captured.
        self.cont_audits = 0
        self.cont_demotions = 0
        #: (code-name, bytecode-pc) per poisoned dispatch site
        self.cont_demoted: List[Tuple[Optional[str], int]] = []
        #: block-version audits (repro.machine.lbbv): a version's driver
        #: slot shares the base block's stepped twin, so the regular
        #: block audit covers it — these count how many audits landed on
        #: version slots.
        self.version_audits = 0

    def _chaos(self, site: str, count: int) -> bool:
        """Is this the audit ``REPRO_CHAOS_AUDIT`` told us to corrupt?"""
        return site == self._chaos_site and count == self._chaos_at

    # -- schedule --------------------------------------------------------

    def _next_random(self) -> int:
        state = self._state
        state ^= (state << 13) & _M64
        state ^= state >> 7
        state ^= (state << 17) & _M64
        self._state = state
        return (state * 2685821657736338717) & _M64

    def next_interval(self) -> int:
        """Instructions until the next audit: uniform on [1, 2*interval-1],
        so the mean matches ``interval`` while defeating phase lock."""
        return 1 + self._next_random() % (2 * self.interval - 1)

    # -- the audit -------------------------------------------------------

    def _shadow(self, ex: "Executor", fn, regs, fregs, frame, special,
                cycles_in: float) -> _Probe:
        """Run one closure against copied state; restore shared state."""
        pred = ex.predictor
        stats = ex.stats
        pred_snap = (pred.history, pred.predictions, pred.mispredictions,
                     bytes(pred.table))
        stats_snap = (stats.instructions, stats.branches,
                      stats.taken_branches, stats.mispredictions,
                      stats.loads, stats.stores, stats.deopt_branch_instrs)
        exec_snap = (ex.deopt_state, ex.forced_deopt_trips, ex.ret_value,
                     ex.cycles)
        # Typed variants bump python-level elision counters; a shadow
        # probe must not inflate the real run's tally.
        typed_snap = list(ex.typed_counters)
        probe = _Probe()
        probe.regs = list(regs)
        probe.fregs = list(fregs)
        probe.frame = list(frame)
        probe.special = list(special)
        shadow_heap = _ShadowHeap(ex.heap.words)
        try:
            try:
                probe.bid, probe.cycles = fn(
                    probe.regs, probe.fregs, probe.frame, probe.special,
                    shadow_heap, cycles_in,
                )
            except Exception as failure:
                probe.error = (type(failure).__name__, str(failure))
        finally:
            probe.writes = shadow_heap.writes
            # Both probes start from the identical restored snapshot, so
            # absolute post-state compares exactly like deltas would —
            # including the full 2-bit counter table.
            probe.pred = (pred.history, pred.predictions,
                          pred.mispredictions, bytes(pred.table))
            probe.stats = (stats.instructions, stats.branches,
                           stats.taken_branches, stats.mispredictions,
                           stats.loads, stats.stores,
                           stats.deopt_branch_instrs)
            pred.history = pred_snap[0]
            pred.predictions = pred_snap[1]
            pred.mispredictions = pred_snap[2]
            pred.table[:] = pred_snap[3]
            (stats.instructions, stats.branches, stats.taken_branches,
             stats.mispredictions, stats.loads, stats.stores,
             stats.deopt_branch_instrs) = stats_snap
            (ex.deopt_state, ex.forced_deopt_trips, ex.ret_value,
             ex.cycles) = exec_snap
            ex.typed_counters[:] = typed_snap
        return probe

    def _compare(self, stepped: _Probe, fused: _Probe) -> List[str]:
        mismatch: List[str] = []
        if stepped.error != fused.error:
            mismatch.append("error")
        if stepped.bid != fused.bid:
            mismatch.append("next-block")
        if (stepped.cycles is None) != (fused.cycles is None) or (
            stepped.cycles is not None
            and _PACK_D(stepped.cycles) != _PACK_D(fused.cycles)
        ):
            mismatch.append("cycles")
        if not _words_equal(stepped.regs, fused.regs):
            mismatch.append("regs")
        if not _words_equal(stepped.fregs, fused.fregs):
            mismatch.append("fregs")
        if not _words_equal(stepped.frame, fused.frame):
            mismatch.append("frame")
        if not _words_equal(stepped.special, fused.special):
            mismatch.append("special")
        if not _writes_equal(stepped.writes, fused.writes):
            mismatch.append("heap")
        if stepped.pred != fused.pred:
            mismatch.append("predictor")
        if stepped.stats != fused.stats:
            mismatch.append("stats")
        return mismatch

    def audit_block(self, ex: "Executor", code: "CodeObject",
                    table: "BlockTable", bid: int, regs, fregs, frame,
                    special, cycles: float) -> bool:
        """Audit one block if eligible; returns True when an audit ran.

        Must only be called under fused-path conditions (no sample tick
        in the window, no pending trips).  On divergence the code object
        is demoted and a bundle captured; the caller re-checks
        ``table.demoted`` and routes the *real* execution accordingly.
        """
        if not table.auditable[bid]:
            return False
        # A version slot (index past the block spans) carries the base
        # block's cost and generic stepped twin, so the ordinary audit
        # machinery applies verbatim; only the probes' exit indices need
        # folding back onto base block ids (a version body legitimately
        # returns a chained version index where the stepped twin returns
        # the base successor) and the version hit counters need the same
        # shadow-probe protection the typed counters get.
        versions = getattr(code, "_versions", None)
        base = bid
        if bid >= len(table.spans):
            if versions is None:
                return False
            base = versions.base_of[bid] if bid < len(versions.base_of) else -1
            if base < 0:
                return False
            self.version_audits += 1
        self.audits += 1
        total_cost, fused_fn, stepped_fn = table.driver[bid]
        hits_snap = None if versions is None else list(versions.hits)
        stepped = self._shadow(ex, stepped_fn, regs, fregs, frame, special,
                               cycles)
        fused = self._shadow(ex, fused_fn, regs, fregs, frame, special,
                             cycles + total_cost)
        if versions is not None:
            grown = len(versions.hits) - len(hits_snap)
            versions.hits[:] = hits_snap + [0] * grown
            fused.bid = versions.base_bid(fused.bid)
            stepped.bid = versions.base_bid(stepped.bid)
        chaos = self._chaos("block", self.audits) or (
            bid != base and self._chaos("version", self.version_audits)
        )
        if chaos and fused.error is None:
            fused.regs[0] ^= 1
        mismatch = self._compare(stepped, fused)
        if not mismatch:
            return True
        self.divergences += 1
        table.demote()
        if versions is not None:
            versions.disable()
        code._supervise_demoted = True
        name = getattr(getattr(code, "shared", None), "name", None)
        self.demotions.append((name, base))
        start, end = table.spans[base]
        capture_bundle("divergence", {
            "code": name,
            "isa": getattr(code.target, "name", str(code.target)),
            "block": base,
            "version": bid if bid != base else None,
            "span": [start, end],
            "mismatch": mismatch,
            "audit_index": self.audits,
            "audit_interval": self.interval,
            "chaos": chaos,
            "entry_cycles_bits": _PACK_D(cycles).hex(),
            "pre_state": _entry_digest(regs, fregs, frame, special, cycles),
            "stepped_post": _state_digest(stepped),
            "fused_post": _state_digest(fused),
            "stepped_error": stepped.error,
            "fused_error": fused.error,
        })
        return True

    def audit_dispatch(self, engine, shared, code: "CodeObject", point,
                       check_id: int, fact, regs) -> bool:
        """Audit one continuation dispatch; True when the trip is spurious.

        Called by the engine *before* a deoptless re-dispatch.  The
        failing guard claimed its fact no longer holds; the sentinel
        re-evaluates the fact against the live register file and heap
        (``repro.machine.continuations.fact_holds`` — the pass-polarity
        mirror of the generated guard tests).  A trip whose fact still
        holds is a spurious deopt — a broken guard, a corrupted check
        id, or an injected flip — and re-dispatching on it would
        specialize for a type-state the program never left.  The
        sentinel refuses the dispatch (the caller falls back to the
        classic bailout), poisons the function's continuation variants,
        and captures a ``continuation-divergence`` bundle.

        Facts the sentinel cannot evaluate (``fact is None``, or
        ``fact_holds`` returns ``None`` on an out-of-range probe) are
        passed through un-audited: the classic path remains the safety
        net and a refusal here must never rest on a guess.
        """
        self.cont_audits += 1
        from ..machine.continuations import fact_holds
        held = None if fact is None else fact_holds(fact, regs,
                                                    engine.heap.words)
        chaos = self._chaos("dispatch", self.cont_audits)
        if chaos:
            held = True
        if held is not True:
            return False
        self.cont_demotions += 1
        self.divergences += 1
        name = getattr(shared, "name", None)
        self.cont_demoted.append((name, point.bytecode_pc))
        table = getattr(engine, "continuations", None)
        if table is not None:
            table.poison(shared.index)
            table.spurious_dispatches += 1
        fact_text: Optional[str] = None
        if fact is not None:
            from ..analysis.typeflow import render_fact
            try:
                fact_text = render_fact(fact)
            except Exception:
                fact_text = repr(fact)
        capture_bundle("continuation-divergence", {
            "code": name,
            "isa": getattr(code.target, "name", str(code.target)),
            "check_id": check_id,
            "check_kind": getattr(getattr(point, "kind", None), "name", None),
            "bytecode_pc": point.bytecode_pc,
            "fact": fact_text,
            "fact_held": True,
            "cont_audit_index": self.cont_audits,
            "chaos": chaos,
            "regs_sample": [regs[i] for i in range(min(len(regs), 8))],
            "tier_rung": getattr(shared, "tier_rung", 0),
        })
        return True

    def audit_trace(self, ex: "Executor", code: "CodeObject",
                    table: "BlockTable", tt, info, regs, fregs, frame,
                    special, cycles: float) -> bool:
        """Audit one compiled trace if eligible; True when an audit ran.

        The trace probe is the trace's ``once`` variant (single chain
        pass, generic bodies, entry-cycles ABI — the trace adds block
        costs internally); the reference probe replays the same chain
        through the blocks' stepped twins, stopping where control leaves
        the chain.  Both start from the identical entry state, so the
        comparison covers chain mechanics end to end: segment side-exit
        placement, call-free terminator restructuring, per-block cycle
        and predictor accounting.  Only call-free chains are auditable
        (``TraceInfo.auditable``), the same rule call blocks follow.

        On divergence the whole table is demoted — ``BlockTable.demote``
        tears the traces down with the blocks — and a ``divergence``
        bundle is captured with the chain recorded under ``"trace"``.
        """
        if not info.auditable:
            return False
        self.audits += 1
        self.trace_audits += 1
        stepped = self._shadow(ex, info.stepped_once, regs, fregs, frame,
                               special, cycles)
        fused = self._shadow(ex, info.once, regs, fregs, frame, special,
                             cycles)
        chaos = self._chaos("trace", self.trace_audits)
        if chaos and fused.error is None:
            fused.regs[0] ^= 1
        mismatch = self._compare(stepped, fused)
        if not mismatch:
            return True
        self.divergences += 1
        table.demote()
        code._supervise_demoted = True
        name = getattr(getattr(code, "shared", None), "name", None)
        self.demotions.append((name, info.head))
        start, end = table.spans[info.head]
        capture_bundle("divergence", {
            "code": name,
            "isa": getattr(code.target, "name", str(code.target)),
            "block": info.head,
            "span": [start, end],
            "trace": {
                "head": info.head,
                "chain": list(info.chain),
                "cyclic": info.cyclic,
            },
            "mismatch": mismatch,
            "audit_index": self.audits,
            "audit_interval": self.interval,
            "chaos": chaos,
            "entry_cycles_bits": _PACK_D(cycles).hex(),
            "pre_state": _entry_digest(regs, fregs, frame, special, cycles),
            "stepped_post": _state_digest(stepped),
            "fused_post": _state_digest(fused),
            "stepped_error": stepped.error,
            "fused_error": fused.error,
        })
        return True
