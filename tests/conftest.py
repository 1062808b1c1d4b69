"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys

import pytest

# The engine raises the recursion limit lazily; do it up front so hypothesis
# does not warn about mid-test changes.
sys.setrecursionlimit(100000)

from repro.analysis import set_default_verify
from repro.engine import Engine, EngineConfig
from repro.machine.ladder import Tier

# Every engine the tests construct verifies the IR after each pass and
# lints the emitted machine code (unless a test opts out via
# EngineConfig(verify=False)).
set_default_verify(True)


@pytest.fixture(autouse=True)
def _isolated_supervise_dirs(tmp_path, monkeypatch):
    """Keep crash bundles and sweep journals out of the repo's results/.

    Chaos tests deliberately crash cells and diverge the fused tier; the
    bundles they capture must land in the test's tmp dir, not in
    ``results/crashes``.
    """
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "crashes"))
    monkeypatch.setenv("REPRO_WAL_DIR", str(tmp_path / "wal"))


@pytest.fixture
def exec_log(monkeypatch):
    """Every generated source the block, trace and version compilers
    exec (through ``_BlockCompiler._exec``) while the test runs."""
    from repro.machine.blockjit import _BlockCompiler

    sources = []
    real_exec = _BlockCompiler._exec

    def recording_exec(self, source):
        sources.append(source)
        return real_exec(self, source)

    monkeypatch.setattr(_BlockCompiler, "_exec", recording_exec)
    return sources


@pytest.fixture
def heap():
    from repro.values.heap import Heap

    return Heap()


@pytest.fixture
def engine():
    """A default (arm64, optimizer on) engine."""
    return Engine(EngineConfig(target="arm64"))


@pytest.fixture
def interp_engine():
    """Interpreter-only engine (the semantics reference)."""
    return Engine(EngineConfig(tier=Tier.INTERP))


def run_js(source: str, call: str = None, args=(), config: EngineConfig = None):
    """Load a program and optionally call a global function; returns the
    Python value."""
    engine = Engine(config or EngineConfig())
    engine.load(source)
    if call is None:
        return engine
    return engine.call_global(call, *args)


def run_hot(source: str, call: str, args=(), target: str = "arm64", warmup: int = 30):
    """Run `call` enough times to tier up, assert the JIT result matches the
    interpreter result, and return (value, engine)."""
    reference = Engine(EngineConfig(tier=Tier.INTERP))
    reference.load(source)
    expected = reference.call_global(call, *args)

    engine = Engine(EngineConfig(target=target))
    engine.load(source)
    value = None
    for _ in range(warmup):
        value = engine.call_global(call, *args)
        assert value == expected, f"JIT diverged: {value!r} != {expected!r}"
    return value, engine


def shared_of(engine: Engine, name: str):
    for fn in engine.functions:
        if fn.name == name:
            return fn
    raise LookupError(name)
