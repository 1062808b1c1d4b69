"""Generator determinism and safety contract."""

from __future__ import annotations

import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.fuzz.generator import (
    GENERATOR_VERSION,
    FuzzConfig,
    FuzzProgram,
    fuzz_case_seed,
    generate_program,
    program_name,
)
from repro.lang import parse, unparse
from repro.machine.ladder import Tier

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSeedScheme:
    def test_case_seed_is_crc32_of_versioned_key(self):
        expected = zlib.crc32(
            f"repro-fuzz:{GENERATOR_VERSION}:1:0".encode("utf-8")
        )
        assert fuzz_case_seed(1, 0) == expected

    def test_case_seeds_differ_per_index(self):
        seeds = {fuzz_case_seed(1, i) for i in range(50)}
        assert len(seeds) == 50

    def test_name_embeds_seed(self):
        assert program_name(0x1234) == "FZ-00001234"
        program = generate_program(fuzz_case_seed(1, 0))
        assert program.name == program_name(program.seed)


class TestDeterminism:
    def test_same_seed_same_program(self):
        seed = fuzz_case_seed(7, 3)
        first = generate_program(seed)
        second = generate_program(seed)
        assert first.source == second.source
        assert first.idioms == second.idioms
        assert first.source_crc == second.source_crc

    def test_different_seeds_differ(self):
        sources = {
            generate_program(fuzz_case_seed(7, i)).source for i in range(8)
        }
        assert len(sources) > 1

    def test_byte_identical_across_hash_seeds(self):
        """PYTHONHASHSEED must not leak into generated programs."""
        snippet = (
            "from repro.fuzz.generator import generate_program, fuzz_case_seed\n"
            "import zlib\n"
            "blob = ''.join(generate_program(fuzz_case_seed(5, i)).source"
            " for i in range(4))\n"
            "print(zlib.crc32(blob.encode()))\n"
        )
        crcs = set()
        for hash_seed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed,
                     "PATH": "/usr/bin:/bin"},
            )
            crcs.add(out.stdout.strip())
        assert len(crcs) == 1


class TestGeneratedPrograms:
    @pytest.mark.parametrize("index", range(6))
    def test_parses_and_is_canonical(self, index):
        program = generate_program(fuzz_case_seed(11, index))
        tree = parse(program.source)
        assert unparse(tree) == unparse(parse(unparse(tree)))

    @pytest.mark.parametrize("index", range(4))
    def test_baseline_interpreter_run_is_clean(self, index):
        """By construction no generated program may crash the engine.

        Per-iteration *results* may legitimately differ (the mutation
        idioms fire mid-run); the safety contract is that the pure
        interpreter completes every iteration without raising.
        """
        from repro.engine import EngineConfig
        from repro.fuzz.oracle import fuzz_spec
        from repro.suite.runner import BenchmarkRunner, NoiseModel

        program = generate_program(fuzz_case_seed(13, index))
        runner = BenchmarkRunner(
            fuzz_spec(program),
            EngineConfig(tier=Tier.INTERP),
            NoiseModel(enabled=False),
        )
        result = runner.run(iterations=3)
        assert result.iterations == 3
        assert isinstance(result.result, (int, float))

    def test_idioms_recorded(self):
        seen = set()
        for index in range(12):
            seen.update(generate_program(fuzz_case_seed(17, index)).idioms)
        # the bias knobs guarantee the core idioms appear across a batch
        assert "poly_call" in seen or "shape_mutation" in seen
        assert any("phi" in name or "smi" in name for name in seen)


class TestConfig:
    def test_roundtrip(self):
        config = FuzzConfig(p_poly_call=0.5, max_helpers=1)
        assert FuzzConfig.from_dict(config.to_dict()) == config

    def test_program_is_frozen_value(self):
        program = generate_program(fuzz_case_seed(1, 0))
        assert isinstance(program, FuzzProgram)
        with pytest.raises(Exception):
            program.seed = 0  # type: ignore[misc]
