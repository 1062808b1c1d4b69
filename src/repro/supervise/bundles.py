"""Atomic, content-addressed crash-report bundles.

Any divergence, engine exception, oracle failure, or worker crash in the
grid captures a JSON bundle under ``results/crashes/`` with everything a
later ``python -m repro.supervise replay`` needs to re-execute it
deterministically: benchmark, ISA target, engine config knobs, the
serialized fault plan, seeds, the offending block span, pre/post state
digests, and the traceback.

Bundles are **content-addressed**: the filename embeds a sha256 over the
canonical JSON payload minus volatile fields (capture timestamp), so the
same failure captured twice — or captured again during replay — dedups to
one file and replay can prove reproduction by digest equality.  Writes
are atomic (temp file + ``os.replace``), mirroring the result cache, so
a crashing worker can never leave a torn bundle.

``REPRO_BUNDLE_DIR`` overrides the destination (tests, CI);
``REPRO_BUNDLES=0`` disables capture entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

#: bump when the bundle payload layout changes shape
BUNDLE_SCHEMA = 1

#: payload keys excluded from the content address (non-deterministic)
_VOLATILE_KEYS = ("captured_at", "pid")

#: process-wide description of the run in flight, merged into every
#: captured bundle.  Set by BenchmarkRunner.run / compute_cell so a crash
#: deep inside the engine still knows which cell it was serving.
_RUN_CONTEXT: Dict[str, object] = {}


def bundles_enabled() -> bool:
    return os.environ.get("REPRO_BUNDLES", "1").lower() not in (
        "0", "false", "off", "no",
    )


def bundle_dir() -> Path:
    env = os.environ.get("REPRO_BUNDLE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "crashes"


def set_run_context(**fields: object) -> None:
    """Merge run-identifying fields into the process-wide context."""
    _RUN_CONTEXT.update(fields)


def clear_run_context(*keys: str) -> None:
    """Drop the named context keys (all of them when none are given)."""
    if not keys:
        _RUN_CONTEXT.clear()
        return
    for key in keys:
        _RUN_CONTEXT.pop(key, None)


def serialize_plan(plan: object) -> Optional[Dict[str, object]]:
    """A :class:`repro.resilience.faults.FaultPlan` as plain JSON data."""
    if plan is None:
        return None
    return {
        "benchmark": plan.benchmark,
        "seed": plan.seed,
        "faults": [
            [fault.iteration, fault.kind.value, fault.salt]
            for fault in plan.faults
        ],
    }


#: the ``REPRO_*`` knobs that shape execution: every bundle records the
#: ones set at capture and replay restores exactly these
ENV_KEYS = (
    "REPRO_TIER", "REPRO_VERIFY", "REPRO_AUDIT", "REPRO_CHAOS_AUDIT",
    "REPRO_CHAOS_EXEC", "REPRO_TRACEJIT_BUDGET", "REPRO_TRACEJIT_HOT",
    "REPRO_TRACEJIT_ENTRY", "REPRO_CONTINUATIONS", "REPRO_CHAOS_FUZZ",
)


def _relevant_env() -> Dict[str, str]:
    """The :data:`ENV_KEYS` set in this process, for the bundle record."""
    return {name: os.environ[name] for name in ENV_KEYS if name in os.environ}


def bundle_digest(payload: Dict[str, object]) -> str:
    """Content address over the canonical payload minus volatile fields."""
    stable = {k: v for k, v in payload.items() if k not in _VOLATILE_KEYS}
    canonical = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def capture_bundle(
    kind: str, payload: Dict[str, object], root: Optional[Path] = None
) -> Optional[Path]:
    """Write one crash bundle; returns its path (or ``None`` if disabled).

    The payload is merged over the process-wide run context; an existing
    bundle with the same content address is left untouched (dedup).
    Capture must never turn a reported failure into a crash, so all I/O
    errors degrade to ``None``.
    """
    if not bundles_enabled():
        return None
    record: Dict[str, object] = {"schema": BUNDLE_SCHEMA, "kind": kind}
    record.update(_RUN_CONTEXT)
    record.setdefault("env", _relevant_env())
    record.update(payload)
    record["captured_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    record["pid"] = os.getpid()
    digest = bundle_digest(record)
    record["bundle_id"] = f"{kind}-{digest[:12]}"
    directory = Path(root) if root is not None else bundle_dir()
    path = directory / f"{record['bundle_id']}.json"
    try:
        if path.exists():
            return path
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return None
    return path


def load_bundle(path: Path) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError(f"not a crash bundle: {path}")
    return record


def list_bundles(root: Optional[Path] = None) -> List[Path]:
    directory = Path(root) if root is not None else bundle_dir()
    try:
        return sorted(p for p in directory.iterdir() if p.suffix == ".json")
    except OSError:
        return []
