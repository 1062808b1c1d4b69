"""Span recorder for the traced run, and the layer wrappers that feed it.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out once, when the benchmark ends.  A span's *self time* is its
duration minus the part of its interval covered by its child spans; the
union of the child intervals is measured, so overlapping children are
never counted twice.  Because every instant of a nest belongs to exactly
one innermost span, summing self times per layer never double-counts
time either, even through mutual recursion such as
``Executor.run -> Interpreter.run_from -> Executor.run``.

The wrappers are installed from the benchmark's own files, at the name
each caller looks up (``repro.engine.build_graph``, not
``repro.ir.builder.build_graph``), so no file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: (module, attribute path, span name) for every wrapped layer entry point
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.lang.parser", "parse", "lang.parse"),
    ("repro.engine", "compile_source", "bytecode.compile"),
    ("repro.interpreter.interpreter", "Interpreter.run", "interpreter.run"),
    ("repro.interpreter.interpreter", "Interpreter.run_from", "interpreter.run_from"),
    ("repro.engine", "Engine.call_runtime", "runtime"),
    ("repro.engine", "build_graph", "ir.build"),
    ("repro.ir.passes.pipeline", "hoist_invariant_checks", "ir.pass.hoist_invariant_checks"),
    ("repro.ir.passes.pipeline", "eliminate_checks", "ir.pass.eliminate_checks"),
    ("repro.ir.passes.pipeline", "eliminate_dead_code", "ir.pass.eliminate_dead_code"),
    ("repro.ir.passes.pipeline", "elide_truncated_minus_zero_checks",
     "ir.pass.elide_truncated_minus_zero_checks"),
    ("repro.ir.passes.pipeline", "schedule_rpo", "ir.pass.schedule_rpo"),
    ("repro.engine", "generate_code", "jit.codegen"),
    ("repro.engine", "materialize_frame", "jit.deopt"),
    ("repro.analysis.typeflow", "analyze_typeflow", "analysis.typeflow"),
    ("repro.analysis.typeflow", "version_analysis", "analysis.typeflow"),
    ("repro.machine.executor", "Executor.run", "machine.exec"),
    ("repro.machine.executor", "decode", "machine.decode"),
    ("repro.machine.blockjit", "decode", "machine.decode"),
    ("repro.machine.blockjit", "compile_blocks", "machine.blockjit.compile"),
    ("repro.machine.tracejit", "compile_blocks", "machine.blockjit.compile"),
    ("repro.machine.lbbv", "VersionTable.compile_version", "machine.lbbv.compile"),
    ("repro.machine.tracejit", "TraceTable.promote", "machine.tracejit.compile"),
    ("repro.engine", "Engine.run_gc", "values.gc"),
    ("repro.experiments.fig10_branch_cost", "simulate", "uarch.simulate"),
    ("repro.experiments.fig13_isa_speedup", "simulate", "uarch.simulate"),
    ("repro.experiments.common", "execute_cells", "exec.schedule"),
    ("repro.exec.scheduler", "compute_cell", "exec.cell"),
    ("repro.exec.cache", "DiskCache.get", "exec.cache.get"),
    ("repro.exec.cache", "DiskCache.put", "exec.cache.put"),
)

#: span names that count as compilation in the rung ablation's
#: compile-vs-execute split (the front end is the same on every rung)
COMPILE_SPANS = frozenset((
    "ir.build",
    "ir.pass.hoist_invariant_checks",
    "ir.pass.eliminate_checks",
    "ir.pass.eliminate_dead_code",
    "ir.pass.elide_truncated_minus_zero_checks",
    "ir.pass.schedule_rpo",
    "jit.codegen",
    "analysis.typeflow",
    "machine.decode",
    "machine.blockjit.compile",
    "machine.lbbv.compile",
    "machine.tracejit.compile",
))

#: root span the workloads open around each operation; its self time is
#: the work no layer span covers (call glue, heap, builtins, runner loop)
OP_SPAN = "bench.op"


class SpanRecorder:
    """Single-threaded, append-only span store.

    Spans are appended in start order, so the spans of one phase of a
    run are the index range between two :meth:`mark` calls.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []
        #: wrappers call straight through while this is False
        self.enabled = True
        #: (span index, name index, amount) counted at layer boundaries
        self._tallies: List[Tuple[int, int, int]] = []

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name_index: int) -> int:
        index = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._open.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.begin(self.name_index(name))
        try:
            yield
        finally:
            self.finish(index)

    def mark(self) -> int:
        return len(self.start)

    def tally(self, span: int, amount: int) -> None:
        self._tallies.append((span, self.name_id[span], amount))

    def tallied(self, name: str, lo: int = 0, hi: Optional[int] = None) -> int:
        """Sum of the amounts tallied by spans named ``name`` in ``lo:hi``."""
        hi = len(self.start) if hi is None else hi
        index = self._ids.get(name, -1)
        return sum(amount for span, nid, amount in self._tallies
                   if nid == index and lo <= span < hi)

    def totals(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over spans ``lo:hi``."""
        hi = len(self.start) if hi is None else hi
        names = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        parent = np.where(parent >= lo, parent - lo, -1)
        own = self_times(parent, self.start[lo:hi], self.end[lo:hi])
        seconds = np.bincount(names, weights=own, minlength=len(self.names)) / 1e9
        calls = np.bincount(names, minlength=len(self.names))
        return {
            name: (float(seconds[i]), int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def entries(self, name: str, unless_parent: str, lo: int = 0,
                hi: Optional[int] = None) -> int:
        """Spans named ``name`` in ``lo:hi`` whose parent is not named
        ``unless_parent`` (entries that did not come through it)."""
        if name not in self._ids:
            return 0
        hi = len(self.start) if hi is None else hi
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        mine = names[lo:hi] == self._ids[name]
        skip = self._ids.get(unless_parent, -1)
        parent_names = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
        return int(np.count_nonzero(mine & (parent_names != skip)))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
        )


def self_times(parent: Sequence[int], start: Sequence[int],
               end: Sequence[int]) -> np.ndarray:
    """Self time of every span: its duration minus the length of the
    union of its children's intervals (clipped to its own interval).

    ``parent[i]`` is the index of span *i*'s parent, or -1 for a root.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    own = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return own
    up = parent[kids]
    lo = np.maximum(start[kids], start[up])
    hi = np.maximum(np.minimum(end[kids], end[up]), lo)
    order = np.lexsort((lo, up))
    up, lo, hi = up[order], lo[order], hi[order]
    # Sweep each parent's children in start order, tracking how far the
    # union already reaches; only the part beyond that reach is new.
    reach: List[int] = []
    run_max = 0
    previous = -1
    for group, a, b in zip(up.tolist(), lo.tolist(), hi.tolist()):
        if group != previous:
            previous = group
            run_max = a
        reach.append(run_max)
        if b > run_max:
            run_max = b
    covered = np.maximum(hi - np.maximum(lo, np.array(reach, dtype=np.int64)), 0)
    np.subtract.at(own, up, covered)
    return own


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         tally: Optional[Callable[[object], int]] = None) -> Callable:
    """``fn`` recorded as a span named ``name``; ``tally(result)`` is
    tallied against the span when given."""
    index = recorder.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.begin(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(span)
        if tally is not None:
            recorder.tally(span, tally(result))
        return result

    return wrapper


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point and every figure driver."""
    for module, path, name in LAYER_ENTRY_POINTS:
        owner, attr = _resolve(module, path)
        tally = (lambda code: len(code.instrs)) if name == "jit.codegen" else None
        setattr(owner, attr, wrap(recorder, name, getattr(owner, attr), tally))
    from repro.experiments import EXPERIMENTS

    for driver, fn in list(EXPERIMENTS.items()):
        EXPERIMENTS[driver] = wrap(recorder, f"experiments.{driver}", fn)
