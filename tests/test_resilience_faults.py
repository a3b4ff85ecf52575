"""The deterministic fault-injection harness (REPRO_FAULTS)."""

import pytest

from repro.errors import ConfigError, FaultInjected, ReproError
from repro.resilience.faults import (
    FAULTS_ENV,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    maybe_inject,
    reset_faults,
)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Isolate every test from ambient REPRO_FAULTS and cached plans."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_faults()
    yield
    reset_faults()


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse("sim:0.2, cache_read:0.1, seed=7")
        assert spec.rates == {"sim": 0.2, "cache_read": 0.1}
        assert spec.seed == 7

    def test_seed_defaults_to_zero(self):
        assert FaultSpec.parse("fold:1.0").seed == 0

    @pytest.mark.parametrize("text,match", [
        ("warp_core:0.5", "unknown fault site"),
        ("sim:1.5", r"\[0, 1\]"),
        ("sim:-0.1", r"\[0, 1\]"),
        ("sim:often", "must be a number"),
        ("sim", "expected site:rate"),
        ("seed=7", "names no sites"),
        ("", "names no sites"),
        ("sim:0.5,seed=many", "must be an integer"),
    ])
    def test_parse_rejects(self, text, match):
        with pytest.raises(ConfigError, match=match):
            FaultSpec.parse(text)

    def test_describe_lists_rates_and_sites(self):
        text = FaultSpec.parse("sim:0.25,seed=3").describe()
        assert "seed 3" in text
        assert "sim" in text
        assert "25.0%" in text

    def test_known_sites_have_descriptions(self):
        for site, description in KNOWN_SITES.items():
            assert site and description


# ---------------------------------------------------------------------------
# Deterministic decisions
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_identical_plans_make_identical_decisions(self):
        spec = FaultSpec.parse("sim:0.5,seed=13")
        sequence_a = [FaultPlan(spec).should_fail("sim", f"wl-{i}")
                      for i in range(64)]
        plan_b = FaultPlan(spec)
        sequence_b = [plan_b.should_fail("sim", f"wl-{i}") for i in range(64)]
        assert sequence_a == sequence_b
        assert any(sequence_a) and not all(sequence_a)

    def test_rate_zero_never_fails_rate_one_always(self):
        plan = FaultPlan(FaultSpec.parse("sim:1.0,fold:0.0"))
        assert all(plan.should_fail("sim", f"k{i}") for i in range(16))
        assert not any(plan.should_fail("fold", f"k{i}") for i in range(16))

    def test_unlisted_site_never_fails(self):
        plan = FaultPlan(FaultSpec.parse("sim:1.0"))
        assert not plan.should_fail("cache_read", "k")

    def test_occurrences_are_independent_decisions(self):
        # With a 50% rate, repeated occurrences of one key must not all
        # agree — this is what lets retries clear injected faults.
        plan = FaultPlan(FaultSpec.parse("sim:0.5,seed=2"))
        decisions = [plan.should_fail("sim", "wl-gcc") for _ in range(64)]
        assert plan.occurrence("sim", "wl-gcc") == 64
        assert any(decisions) and not all(decisions)

    def test_inject_raises_with_identity(self):
        plan = FaultPlan(FaultSpec.parse("sim:1.0"))
        with pytest.raises(FaultInjected) as excinfo:
            plan.inject("sim", "wl-gcc")
        error = excinfo.value
        assert error.site == "sim"
        assert error.key == "wl-gcc"
        assert error.occurrence == 1
        assert isinstance(error, ReproError)


# ---------------------------------------------------------------------------
# Environment activation
# ---------------------------------------------------------------------------
class TestActivation:
    def test_inactive_without_env(self):
        assert active_plan() is None
        maybe_inject("sim", "anything")  # no-op, must not raise

    def test_plan_cached_per_env_value(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "sim:1.0,seed=1")
        first = active_plan()
        assert first is not None
        assert active_plan() is first  # counters persist across calls
        monkeypatch.setenv(FAULTS_ENV, "sim:1.0,seed=2")
        assert active_plan() is not first

    def test_maybe_inject_fires_under_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_read:1.0")
        with pytest.raises(FaultInjected):
            maybe_inject("cache_read", "entry")

    def test_reset_faults_drops_counters(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "sim:0.5,seed=4")
        plan = active_plan()
        plan.should_fail("sim", "k")
        assert plan.occurrence("sim", "k") == 1
        reset_faults()
        fresh = active_plan()
        assert fresh is not plan
        assert fresh.occurrence("sim", "k") == 0

    def test_bad_env_spec_raises_config_error(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "nonsense")
        with pytest.raises(ConfigError):
            active_plan()

    @pytest.mark.parametrize("fail_policy", ["fail_fast", "collect_errors"])
    def test_bad_env_spec_fails_a_map_once_up_front(
        self, monkeypatch, fail_policy
    ):
        # Not caught, retried and recorded as a unit failure: no unit runs.
        from repro.resilience import FailPolicy, RetryPolicy, resilient_map

        monkeypatch.setenv(FAULTS_ENV, "bogus:1")
        calls = []
        with pytest.raises(ConfigError, match="unknown fault site 'bogus'"):
            resilient_map(
                calls.append, [1, 2, 3], n_jobs=1,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                fail_policy=FailPolicy(fail_policy),
            )
        assert calls == []
