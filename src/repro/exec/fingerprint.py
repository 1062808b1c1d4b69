"""Engine-version fingerprint for the persistent result cache.

A cached cell result is only valid for the engine that produced it, so the
on-disk cache namespaces every entry under a fingerprint of:

* the contents of every ``src/repro/**/*.py`` file (any change to the
  simulator, the compiler, the suite programs or the drivers invalidates),
* a hand-bumped :data:`CACHE_SCHEMA` for changes to the *cache format*
  itself (new RunCell fields, different pickled payloads), and
* the Python major.minor version (pickles and float behaviour are stable
  within a minor version; being conservative here is cheap).

Stale entries are never read or deleted — they simply live in a directory
no current run looks at, and can be pruned with ``rm -rf results/.cache``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Optional

#: bump when the RunCell key layout or pickled payloads change shape
CACHE_SCHEMA = 2  # 2: checksummed entry format (magic + sha256 + payload)

_cached: Optional[str] = None


def package_root() -> Path:
    """The ``src/repro`` package directory."""
    return Path(__file__).resolve().parents[1]


def engine_fingerprint() -> str:
    """Hex digest naming the current engine version (memoized per process)."""
    global _cached
    if _cached is None:
        digest = hashlib.sha256()
        digest.update(
            f"schema={CACHE_SCHEMA};py={sys.version_info[0]}.{sys.version_info[1]}".encode()
        )
        root = package_root()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _cached = digest.hexdigest()
    return _cached
