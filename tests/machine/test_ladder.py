"""The executor ladder (repro.machine.ladder): one ordered Tier, its
REPRO_TIER parsing, and the degradation table stamped on compiled code."""

import pytest

from repro.engine import Engine, EngineConfig
from repro.machine.ladder import DEGRADATION, Tier, default_tier

SOURCE = "function f(x) { return x + 1; }"


def test_tiers_are_ordered_by_speculation():
    assert [tier.label for tier in sorted(Tier)] == [
        "interp", "opt", "block", "typed", "lbbv", "trace",
    ]


def test_parse_accepts_tiers_and_names():
    assert Tier.parse(Tier.LBBV) is Tier.LBBV
    assert Tier.parse("typed") is Tier.TYPED
    assert Tier.parse("TRACE") is Tier.TRACE


def test_default_tier_is_the_top(monkeypatch):
    monkeypatch.delenv("REPRO_TIER", raising=False)
    assert default_tier() is Tier.TRACE
    monkeypatch.setenv("REPRO_TIER", "")
    assert default_tier() is Tier.TRACE
    monkeypatch.setenv("REPRO_TIER", "block")
    assert default_tier() is Tier.BLOCK


@pytest.mark.parametrize("bogus", ["bogus", "on", "1", "deoptless"])
def test_unknown_env_tier_lists_the_valid_names(monkeypatch, bogus):
    """REPRO_TIER is outside input: a typo must fail loudly, not
    silently mean some tier."""
    monkeypatch.setenv("REPRO_TIER", bogus)
    with pytest.raises(ValueError) as raised:
        default_tier()
    message = str(raised.value)
    assert repr(bogus) in message
    for tier in Tier:
        assert tier.label in message
    with pytest.raises(ValueError):
        Engine(EngineConfig())


def test_unknown_config_tier_raises():
    with pytest.raises(ValueError, match="valid tiers"):
        Engine(EngineConfig(tier="fast"))


def test_degradation_table_sheds_one_feature_at_a_time():
    assert [rung.name for rung in DEGRADATION] == [
        "full", "no-trace", "generic-blocks", "classic-deopt", "stepped",
        "interpreter",
    ]
    caps = [rung.tier for rung in DEGRADATION]
    assert caps == sorted(caps, reverse=True)
    assert caps[0] is Tier.TRACE and caps[-1] is Tier.INTERP
    # Continuations dispatch on the top rows only, and stop for good.
    assert [rung.continuations for rung in DEGRADATION] == [
        True, True, True, False, False, False,
    ]


@pytest.mark.parametrize("tier", list(Tier))
def test_compiled_code_is_stamped_with_the_capped_tier(tier):
    engine = Engine(EngineConfig(tier=tier))
    assert engine._rung_tiers == tuple(
        min(tier, rung.tier) for rung in DEGRADATION
    )
    engine.load(SOURCE)
    for _ in range(40):
        assert engine.call_global("f", 1) == 2
    shared = next(fn for fn in engine.functions if fn.name == "f")
    if tier is Tier.INTERP:
        assert shared.code is None
        assert engine.continuations is None
    else:
        assert type(shared.code._tier) is int  # the executor's hot gate
        assert shared.code._tier == tier
