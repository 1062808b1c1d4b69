"""Deduplicating cell scheduler with process-pool fan-out and hardening.

:func:`execute_cells` resolves a batch of :class:`~repro.exec.cells.RunCell`
descriptors through three layers, cheapest first:

1. an in-process memo (the caller's, so figure drivers sharing one
   :class:`~repro.experiments.common.ResultsCache` never recompute),
2. the persistent :class:`~repro.exec.cache.DiskCache`,
3. computation — serially, or fanned out on a ``ProcessPoolExecutor`` when
   more than one cell misses and ``jobs > 1``.

The experiment grid is embarrassingly parallel: every cell builds its own
engine and draws all randomness from a per-cell stable seed, so worker
placement cannot change results (asserted by the determinism tests).
Workers never touch the disk cache; the parent stores results as they
arrive, which keeps the cache layer free of cross-process races beyond the
atomic-rename writes it already does.

Long grids die to one bad cell without hardening, so computation runs
under a :class:`RetryPolicy`:

* **crashed workers** (``BrokenProcessPool``) and **hung workers** (no
  completion within ``timeout`` seconds) poison a whole pool pass, which
  cannot attribute blame — the unfinished cells are re-run *in isolation*
  (one single-worker pool each) so the guilty cell convicts itself while
  innocent neighbours complete on their first solo attempt;
* failing cells are retried with capped exponential backoff, then
  **quarantined**: later batches in the same process skip them instead of
  re-dying (:func:`quarantined_cells` lists them, :func:`clear_quarantine`
  resets);
* with ``keep_going`` the failure is recorded as a :class:`CellFailure`
  result so figure drivers can emit partial output with missing cells
  marked; without it the original exception (or a :class:`GridError` when
  the worker died and there is no exception object) propagates after the
  retries are exhausted.

Wall-clock timeouts need process isolation to be enforceable, so setting
``timeout`` routes computation through a pool even at ``jobs=1``; with no
timeout and one job the serial fast path runs cells in-process exactly as
before.  Failures are never written to the disk cache.

Process-wide defaults come from :func:`configure` (the CLIs' ``--jobs`` /
``--no-cache`` / ``--keep-going`` / ``--timeout`` / ``--retries``) or the
``REPRO_JOBS`` / ``REPRO_CACHE`` / ``REPRO_KEEP_GOING`` /
``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRIES`` environment variables.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .cache import MISS, DiskCache
from .cells import RunCell, compute_cell, mark_scheduler_process
from .wal import SweepWAL


class GridError(RuntimeError):
    """A cell failed in a way that leaves no exception to re-raise
    (worker process died, or a quarantined cell was requested again)."""


@dataclass
class RetryPolicy:
    """How :func:`execute_cells` treats failing, crashing, or hung cells."""

    #: per-cell wall-clock budget in seconds; ``None`` disables hang
    #: detection (and the forced pool routing that enforces it)
    timeout: Optional[float] = None
    #: how many times a failing cell is re-run before giving up
    retries: int = 1
    #: base of the capped exponential backoff between attempts
    backoff: float = 0.25
    backoff_cap: float = 4.0
    #: record failures as :class:`CellFailure` results instead of raising
    keep_going: bool = False

    def sleep_for(self, attempt: int) -> float:
        return min(self.backoff * (2 ** max(0, attempt - 1)), self.backoff_cap)


@dataclass
class CellFailure:
    """Placeholder result for a cell that exhausted its retries."""

    cell: RunCell
    error: str
    attempts: int
    quarantined: bool = True

    def describe(self) -> str:
        return f"{self.cell.describe()}: {self.error} (after {self.attempts} attempt(s))"


#: cells that exhausted their retries this process, with their failures
_QUARANTINE: Dict[RunCell, CellFailure] = {}


def quarantined_cells() -> List[RunCell]:
    """Cells this process has given up on, in first-failure order."""
    return list(_QUARANTINE)


def quarantine_report() -> List[str]:
    return [failure.describe() for failure in _QUARANTINE.values()]


def clear_quarantine() -> None:
    _QUARANTINE.clear()


@dataclass
class SchedulerConfig:
    jobs: int = 1
    cache: bool = True
    keep_going: bool = False
    timeout: Optional[float] = None
    retries: int = 1


def _initial_config() -> SchedulerConfig:
    try:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    except ValueError:
        jobs = 1
    cache = os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "no", "off")
    keep_going = os.environ.get("REPRO_KEEP_GOING", "0").lower() in ("1", "yes", "on")
    try:
        timeout: Optional[float] = float(os.environ["REPRO_CELL_TIMEOUT"])
    except (KeyError, ValueError):
        timeout = None
    try:
        retries = int(os.environ.get("REPRO_RETRIES", "1"))
    except ValueError:
        retries = 1
    return SchedulerConfig(
        jobs=max(1, jobs),
        cache=cache,
        keep_going=keep_going,
        timeout=timeout if timeout and timeout > 0 else None,
        retries=max(0, retries),
    )


_CONFIG = _initial_config()
_DISK: Optional[DiskCache] = None
_UNSET = object()

#: active sweep journal (repro.exec.wal); when set, every completed cell
#: is recorded after its disk-cache store so a killed sweep can resume
_WAL: Optional[SweepWAL] = None


def set_active_wal(wal: Optional[SweepWAL]) -> Optional[SweepWAL]:
    """Install (or clear, with ``None``) the process-wide sweep journal."""
    global _WAL
    previous = _WAL
    _WAL = wal
    return previous


def active_wal() -> Optional[SweepWAL]:
    return _WAL


def configure(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    keep_going: Optional[bool] = None,
    timeout: Optional[float] = _UNSET,  # type: ignore[assignment]
    retries: Optional[int] = None,
) -> SchedulerConfig:
    """Set process-wide scheduler defaults; ``None`` leaves a knob unchanged
    (``timeout`` uses a sentinel so it can be explicitly reset to ``None``)."""
    if jobs is not None:
        _CONFIG.jobs = max(1, int(jobs))
    if cache is not None:
        _CONFIG.cache = bool(cache)
    if keep_going is not None:
        _CONFIG.keep_going = bool(keep_going)
    if timeout is not _UNSET:
        _CONFIG.timeout = float(timeout) if timeout else None  # type: ignore[arg-type]
    if retries is not None:
        _CONFIG.retries = max(0, int(retries))
    return _CONFIG


def current_config() -> SchedulerConfig:
    return _CONFIG


def current_policy() -> RetryPolicy:
    return RetryPolicy(
        timeout=_CONFIG.timeout,
        retries=_CONFIG.retries,
        keep_going=_CONFIG.keep_going,
    )


def shared_disk_cache() -> DiskCache:
    """The process-wide cache instance (created lazily)."""
    global _DISK
    if _DISK is None:
        _DISK = DiskCache()
    return _DISK


def execute_cells(
    cells: Iterable[RunCell],
    jobs: Optional[int] = None,
    memo: Optional[Dict[RunCell, object]] = None,
    disk: object = _UNSET,
    policy: Optional[RetryPolicy] = None,
) -> Dict[RunCell, object]:
    """Resolve every cell; returns ``{cell: result}`` for the request.

    ``memo`` is mutated in place when given (the caller's long-lived store);
    ``disk`` may be an explicit :class:`DiskCache` or ``None`` to bypass
    persistence regardless of the process-wide default.  Under a
    ``keep_going`` policy, values may be :class:`CellFailure` placeholders.
    """
    unique = list(dict.fromkeys(cells))
    if jobs is None:
        jobs = _CONFIG.jobs
    if disk is _UNSET:
        disk = shared_disk_cache() if _CONFIG.cache else None
    if policy is None:
        policy = current_policy()
    store: Dict[RunCell, object] = memo if memo is not None else {}

    # Lets the chaos hook distinguish the scheduler's own process (where a
    # crash/hang injection must not fire) from pool workers.
    mark_scheduler_process()

    missing = [cell for cell in unique if cell not in store]
    to_compute: List[RunCell] = []
    for cell in missing:
        known = _QUARANTINE.get(cell)
        if known is not None:
            if not policy.keep_going:
                raise GridError(f"cell is quarantined: {known.describe()}")
            store[cell] = known
        elif disk is not None:
            value = disk.get(cell.token())
            if value is MISS:
                to_compute.append(cell)
            else:
                store[cell] = value
        else:
            to_compute.append(cell)

    if to_compute:
        attempts: Dict[RunCell, int] = {}

        def _store_ok(cell: RunCell, value: object) -> None:
            # Stream every result to the persistent layers the moment it
            # arrives (PR 3 stored the whole batch after the fact, so a
            # SIGKILL/OOM mid-sweep lost every completed-but-unstored
            # cell).  The WAL append follows the cache store so a resume
            # never finds a journaled token without its payload.
            store[cell] = value
            if disk is not None:
                disk.put(cell.token(), value)
            if _WAL is not None:
                _WAL.append(cell.token())

        use_pool = (jobs > 1 and len(to_compute) > 1) or policy.timeout is not None
        try:
            if use_pool:
                outcomes = _pool_compute(
                    to_compute, jobs, policy, attempts, _store_ok
                )
            else:
                outcomes = {}
                for cell in to_compute:
                    outcome = _serial_compute(cell, policy, attempts)
                    if outcome[0] == "ok":
                        _store_ok(cell, outcome[1])
                    outcomes[cell] = outcome
        except KeyboardInterrupt:
            # ^C mid-grid: results already streamed above are durable
            # (atomic cache writes + fsynced WAL); make sure the journal
            # hits disk, then let the CLI exit with 130.
            if _WAL is not None:
                _WAL.flush()
            raise
        for cell in to_compute:
            tag, value = outcomes[cell]
            if tag == "ok":
                continue  # streamed to store/disk/WAL as it completed
            failure = CellFailure(
                cell=cell,
                error=value if isinstance(value, str) else f"{type(value).__name__}: {value}",
                attempts=attempts.get(cell, 0),
            )
            _QUARANTINE[cell] = failure
            _capture_failure_bundle(failure, value)
            if not policy.keep_going:
                if isinstance(value, BaseException):
                    raise value
                raise GridError(failure.describe())
            store[cell] = failure

    return {cell: store[cell] for cell in unique}


def _capture_failure_bundle(failure: CellFailure, value: object) -> None:
    """Crash-forensics record for a quarantined cell (worker crash, hang,
    or exhausted retries) — see :mod:`repro.supervise.bundles`."""
    import traceback as traceback_mod

    from ..supervise.bundles import capture_bundle

    cell = failure.cell
    trace: Optional[str] = None
    if isinstance(value, BaseException):
        trace = "".join(
            traceback_mod.format_exception(type(value), value, value.__traceback__)
        )
    capture_bundle("cell-failure", {
        "cell": {
            "kind": cell.kind,
            "benchmark": cell.benchmark,
            "target": cell.target,
            "iterations": cell.iterations,
            "rep": cell.rep,
            "removed": list(cell.removed),
            "emit_check_branches": cell.emit_check_branches,
            "noise": cell.noise,
        },
        "token": cell.token(),
        "error": failure.error,
        "attempts": failure.attempts,
        "traceback": trace,
    })


# ----------------------------------------------------------------------
# computation strategies
# ----------------------------------------------------------------------

Outcome = Tuple[str, object]  # ("ok", value) | ("err", exception-or-str)


def _serial_compute(
    cell: RunCell, policy: RetryPolicy, attempts: Dict[RunCell, int]
) -> Outcome:
    """In-process computation with retries (no crash/hang protection)."""
    while True:
        try:
            return ("ok", compute_cell(cell))
        except Exception as failure:
            attempts[cell] = attempts.get(cell, 0) + 1
            if attempts[cell] > policy.retries:
                return ("err", failure)
            time.sleep(policy.sleep_for(attempts[cell]))


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except OSError:
            pass


def _run_pool_round(
    cells: List[RunCell], jobs: int, policy: RetryPolicy, on_ok=None
) -> Tuple[Dict[RunCell, Outcome], List[RunCell], bool]:
    """One pool pass over ``cells``.

    Returns ``(done, unfinished, broken)``.  ``broken`` means the pass was
    poisoned by a dead or hung worker; ``unfinished`` holds the cells whose
    futures never produced a result (blame is attributed by the caller).
    ``policy.timeout`` is applied as a *no-progress* watchdog: it only
    fires when no cell completes for that long, so a slow but advancing
    grid never trips it, while a hung worker is caught — at the latest —
    once only hung cells remain pending.

    ``on_ok(cell, value)`` is invoked the moment a future succeeds, so
    results persist even if the parent is killed later in the pass.  A
    ``KeyboardInterrupt`` cancels the pending futures, terminates the
    workers without waiting, and propagates.
    """
    done: Dict[RunCell, Outcome] = {}
    poisoned: List[RunCell] = []  # futures killed by the broken pool
    broken = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells)))
    futures = {pool.submit(compute_cell, cell): cell for cell in cells}
    pending = set(futures)
    try:
        while pending:
            finished, pending = wait(
                pending, timeout=policy.timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                broken = True  # nothing completed in `timeout` seconds
                break
            for future in finished:
                cell = futures[future]
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                    poisoned.append(cell)
                except Exception as failure:
                    done[cell] = ("err", failure)
                else:
                    done[cell] = ("ok", value)
                    if on_ok is not None:
                        on_ok(cell, value)
            if broken:
                break
    except KeyboardInterrupt:
        # ^C: don't wait for in-flight cells; the finally below kills the
        # workers and cancels everything still queued.
        broken = True
        raise
    finally:
        if broken:
            _terminate_workers(pool)
        pool.shutdown(wait=not broken, cancel_futures=True)
    unfinished = poisoned + [futures[future] for future in pending]
    return done, unfinished, broken


def _solo_compute(
    cell: RunCell, policy: RetryPolicy, attempts: Dict[RunCell, int],
    on_ok=None,
) -> Outcome:
    """Re-run one cell alone in a fresh single-worker pool until it
    succeeds or exhausts its retries.  Used after a broken pool pass:
    isolation attributes the crash/hang to the guilty cell."""
    while True:
        done, _unfinished, broken = _run_pool_round([cell], 1, policy, on_ok)
        if cell in done:
            tag, value = done[cell]
            if tag == "ok":
                return ("ok", value)
            failure: object = value
        elif broken:
            failure = f"worker crashed or timed out computing {cell.describe()}"
        else:  # pragma: no cover - wait() without timeout cannot leave work
            failure = f"cell never completed: {cell.describe()}"
        attempts[cell] = attempts.get(cell, 0) + 1
        if attempts[cell] > policy.retries:
            return ("err", failure)
        time.sleep(policy.sleep_for(attempts[cell]))


def _pool_compute(
    to_compute: List[RunCell],
    jobs: int,
    policy: RetryPolicy,
    attempts: Dict[RunCell, int],
    on_ok=None,
) -> Dict[RunCell, Outcome]:
    outcomes: Dict[RunCell, Outcome] = {}
    work = list(to_compute)
    while work:
        done, unfinished, broken = _run_pool_round(work, jobs, policy, on_ok)
        work = []
        for cell, (tag, value) in done.items():
            if tag == "ok":
                outcomes[cell] = ("ok", value)
                continue
            attempts[cell] = attempts.get(cell, 0) + 1
            if attempts[cell] > policy.retries:
                outcomes[cell] = ("err", value)
            else:
                work.append(cell)
        if broken:
            # A dead/hung worker poisons the whole pass and blame cannot
            # be attributed here; isolate each survivor so the guilty
            # cell convicts itself and innocents complete immediately.
            for cell in unfinished:
                outcomes[cell] = _solo_compute(cell, policy, attempts, on_ok)
        else:
            work.extend(unfinished)
        if work:
            time.sleep(policy.sleep_for(max(attempts.get(cell, 1) for cell in work)))
    return outcomes
