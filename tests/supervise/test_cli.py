"""The python -m repro.supervise CLI: list, replay, inject."""

import os

import pytest

from repro.supervise.__main__ import main


@pytest.fixture
def inject_env(tmp_path):
    """Sandbox the env mutations the inject subcommand makes.

    ``inject`` writes straight to ``os.environ`` (correct for a real CLI
    process, which exits afterwards); running it in-process would leak
    REPRO_AUDIT into later tests without the explicit restore here.
    """
    keys = ("REPRO_AUDIT", "REPRO_CHAOS_AUDIT", "REPRO_BUNDLE_DIR")
    saved = {key: os.environ.pop(key, None) for key in keys}
    yield tmp_path / "crashes"
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def test_list_empty_dir(tmp_path, capsys):
    assert main(["list", "--bundle-dir", str(tmp_path)]) == 0
    assert "no crash bundles" in capsys.readouterr().out


def test_inject_then_list_then_replay(inject_env, capsys):
    bundle_dir = inject_env
    code = main([
        "inject", "FIB", "--iterations", "14", "--interval", "7",
        "--bundle-dir", str(bundle_dir),
    ])
    out = capsys.readouterr()
    assert code == 0, out.err
    bundle_path = out.out.strip().splitlines()[-1]
    assert "divergence-" in bundle_path
    assert "demoted" in out.err

    assert main(["list", "--bundle-dir", str(bundle_dir)]) == 0
    assert "divergence" in capsys.readouterr().out

    assert main(["replay", bundle_path]) == 0
    assert "REPRODUCED" in capsys.readouterr().out


def test_inject_trace_demotes_the_trace_and_records_the_chain(inject_env,
                                                            capsys):
    """The seeded trace divergence: the audit variant compiles on the
    first trace audit, and the corrupted audit still demotes the trace
    and captures its bundle."""
    from repro.supervise.bundles import load_bundle

    code = main([
        "inject", "MANDEL", "--iterations", "14", "--interval", "7",
        "--trace", "--bundle-dir", str(inject_env),
    ])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "demoted" in out.err
    record = load_bundle(out.out.strip().splitlines()[-1])
    assert record["trace"]["head"] == record["block"]
    assert record["block"] in record["trace"]["chain"]


def test_replay_missing_bundle(capsys):
    assert main(["replay", "no-such-bundle.json"]) == 2
    assert "no such bundle" in capsys.readouterr().err
