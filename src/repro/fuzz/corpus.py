"""Persisted corpus of interesting generated programs.

Programs that pass the differential matrix *and* show an interesting
speculation profile graduate into ``results/corpus/`` (override with
``REPRO_CORPUS_DIR``), one JSON file per program named after its
generator seed.  An entry records everything needed to re-run the
program without regenerating it — the canonical source — plus the
regeneration provenance (seed, generator version, config) and the
profile that justified graduation, so a later reader can tell *why*
each program is in the corpus.

Graduation is deliberately selective: a program graduates when its
profile meets at least two of the five interest criteria (deopt
traffic, guard failures, version occupancy, check density, deoptless
dispatches), and the CLI additionally caps a batch's graduates to the
top-N by :func:`profile_score` so a 200-program run doesn't dump 60
near-duplicates into the corpus.

The chaos CLI replays the corpus as an extended suite
(``python -m repro.resilience --corpus``), and the cached grid can
address corpus entries through ``repro.exec`` corpus cells.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..suite.spec import BenchmarkSpec
from .generator import GENERATOR_VERSION, FuzzConfig
from .oracle import FuzzVerdict, source_digest

#: bump when the entry payload layout changes shape
CORPUS_SCHEMA = 1

#: (profile key, threshold) — a profile meeting >= 2 graduates
INTEREST_CRITERIA: Tuple[Tuple[str, float], ...] = (
    ("eager_deopts", 8),
    ("guard_failures", 1),
    ("versions_registered", 30),
    ("check_density", 30.0),
    ("continuation_dispatches", 4),
)

#: minimum criteria met for graduation
MIN_CRITERIA = 2


def corpus_dir() -> Path:
    env = os.environ.get("REPRO_CORPUS_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "corpus"


@dataclass(frozen=True)
class CorpusEntry:
    """One graduated program, as stored on disk."""

    name: str
    seed: int
    generator_version: int
    config: FuzzConfig
    source: str
    source_sha256: str
    idioms: Tuple[str, ...]
    profile: Dict[str, object]
    #: criteria names that justified graduation
    reasons: Tuple[str, ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": CORPUS_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "generator_version": self.generator_version,
            "generator_config": self.config.to_dict(),
            "source": self.source,
            "source_sha256": self.source_sha256,
            "idioms": list(self.idioms),
            "profile": self.profile,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CorpusEntry":
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            generator_version=int(data["generator_version"]),  # type: ignore[arg-type]
            config=FuzzConfig.from_dict(data.get("generator_config") or {}),  # type: ignore[arg-type]
            source=str(data["source"]),
            source_sha256=str(data["source_sha256"]),
            idioms=tuple(data.get("idioms") or ()),  # type: ignore[arg-type]
            profile=dict(data.get("profile") or {}),  # type: ignore[arg-type]
            reasons=tuple(data.get("reasons") or ()),  # type: ignore[arg-type]
        )

    def spec(self) -> BenchmarkSpec:
        """The entry as a directly-runnable benchmark spec."""
        return BenchmarkSpec(
            name=self.name,
            category="Objects",
            source=self.source,
            expected=None,
            description=(
                f"corpus (seed={self.seed}, " + ", ".join(self.reasons) + ")"
            ),
        )


def graduation_reasons(profile: Dict[str, object]) -> List[str]:
    """Names of the interest criteria this profile meets."""
    reasons: List[str] = []
    for key, threshold in INTEREST_CRITERIA:
        value = profile.get(key, 0)
        try:
            if float(value) >= threshold:  # type: ignore[arg-type]
                reasons.append(key)
        except (TypeError, ValueError):
            continue
    return reasons


def should_graduate(profile: Dict[str, object]) -> bool:
    return len(graduation_reasons(profile)) >= MIN_CRITERIA


def profile_score(profile: Dict[str, object]) -> float:
    """Interest ranking for capping a batch's graduates (higher = better)."""

    def metric(key: str) -> float:
        try:
            return float(profile.get(key, 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 0.0

    return (
        metric("eager_deopts")
        + 5.0 * metric("guard_failures")
        + metric("versions_registered") / 10.0
        + metric("check_density") / 10.0
        + metric("continuation_dispatches")
    )


def entry_for(verdict: FuzzVerdict) -> CorpusEntry:
    """Build the corpus entry for a passing, interesting verdict."""
    program = verdict.program
    return CorpusEntry(
        name=program.name,
        seed=program.seed,
        generator_version=GENERATOR_VERSION,
        config=program.config,
        source=program.source,
        source_sha256=source_digest(program.source),
        idioms=program.idioms,
        profile=dict(verdict.profile),
        reasons=tuple(graduation_reasons(verdict.profile)),
    )


def save_entry(entry: CorpusEntry, root: Optional[Path] = None) -> Path:
    """Atomically persist one entry; same seed overwrites in place."""
    directory = Path(root) if root is not None else corpus_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{entry.name}.json"
    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(entry.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_entry(path: Path) -> CorpusEntry:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "source" not in data:
        raise ValueError(f"not a corpus entry: {path}")
    return CorpusEntry.from_json(data)


def load_corpus(root: Optional[Path] = None) -> List[CorpusEntry]:
    """All corpus entries, sorted by name (deterministic order)."""
    directory = Path(root) if root is not None else corpus_dir()
    entries: List[CorpusEntry] = []
    try:
        paths = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    except OSError:
        return []
    for path in paths:
        entries.append(load_entry(path))
    return entries


def corpus_benchmark(name: str, root: Optional[Path] = None) -> Optional[BenchmarkSpec]:
    """Resolve a corpus entry by benchmark name (``FZ-<seed:08x>``)."""
    directory = Path(root) if root is not None else corpus_dir()
    path = directory / f"{name}.json"
    if not path.exists():
        return None
    return load_entry(path).spec()
