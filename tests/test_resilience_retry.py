"""Retry policies, failure policies, timeouts, and resilient_map."""

import time

import pytest

from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    TaskTimeoutError,
)
from repro.resilience import retry as retry_module
from repro.resilience.retry import (
    COLLECT_ERRORS,
    FAIL_FAST,
    MIN_SUCCESS,
    FailPolicy,
    RetryPolicy,
    TaskFailure,
    resilient_map,
    run_with_timeout,
)


def _identity(x):
    return x


def _tenfold(x):
    return 10 * x


class _FailOn:
    """Fails deterministically for the configured items, forever."""

    def __init__(self, bad):
        self.bad = set(bad)

    def __call__(self, x):
        if x in self.bad:
            raise ValueError(f"bad item {x}")
        return 10 * x


class _FlakyFirstAttempt:
    """Every item fails once, then succeeds (serial executor only)."""

    def __init__(self):
        self.seen = set()

    def __call__(self, x):
        if x not in self.seen:
            self.seen.add(x)
            raise ValueError("transient")
        return x + 1


class _Sleeper:
    def __call__(self, x):
        time.sleep(x)
        return x


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"max_attempts": -2},
        {"base_delay": -0.1},
        {"max_delay": -1.0},
        {"jitter": -0.01},
        {"jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        assert policy.delay_for(1, "k") == pytest.approx(0.1)
        assert policy.delay_for(2, "k") == pytest.approx(0.2)
        assert policy.delay_for(3, "k") == pytest.approx(0.4)
        assert policy.delay_for(9, "k") == pytest.approx(0.4)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.25)
        delay = policy.delay_for(2, "fold-003")
        assert 0.2 <= delay <= 0.2 * 1.25
        assert delay == policy.delay_for(2, "fold-003")
        # Different keys dither differently (no retry synchronization).
        others = {policy.delay_for(2, f"fold-{i:03d}") for i in range(8)}
        assert len(others) > 1

    def test_jitter_depends_on_seed(self):
        a = RetryPolicy(jitter=0.5, seed=0).delay_for(1, "k")
        b = RetryPolicy(jitter=0.5, seed=1).delay_for(1, "k")
        assert a != b


# ---------------------------------------------------------------------------
# FailPolicy
# ---------------------------------------------------------------------------
class TestFailPolicy:
    def test_parse_plain_kinds(self):
        assert FailPolicy.parse("fail_fast").kind == FAIL_FAST
        assert FailPolicy.parse("collect_errors").kind == COLLECT_ERRORS

    def test_parse_min_success_with_fraction(self):
        policy = FailPolicy.parse("min_success:0.8")
        assert policy.kind == MIN_SUCCESS
        assert policy.min_fraction == pytest.approx(0.8)

    def test_parse_min_success_bare_defaults(self):
        assert FailPolicy.parse("min_success").min_fraction == pytest.approx(0.5)

    def test_parse_long_name(self):
        assert FailPolicy.parse("min_success_fraction:0.3").kind == MIN_SUCCESS

    @pytest.mark.parametrize("spec", [
        "min_success:lots", "bogus", "min_success:1.5", "",
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ConfigError):
            FailPolicy.parse(spec)

    def test_captures(self):
        assert not FailPolicy.parse("fail_fast").captures
        assert FailPolicy.parse("collect_errors").captures
        assert FailPolicy.parse("min_success:0.9").captures

    def test_apply_fail_fast_raises_on_any_failure(self):
        failure = TaskFailure("k", 0, "ValueError", "boom", 3)
        with pytest.raises(RetryExhaustedError, match="boom"):
            FailPolicy().apply([1, failure, 3])

    def test_apply_min_success_floor(self):
        failure = TaskFailure("k", 0, "ValueError", "boom", 3)
        policy = FailPolicy.parse("min_success:0.5")
        assert policy.apply([1, failure])  # exactly at the floor: passes
        with pytest.raises(RetryExhaustedError, match="succeeded"):
            policy.apply([failure, failure, 1])


# ---------------------------------------------------------------------------
# TaskFailure
# ---------------------------------------------------------------------------
def test_task_failure_round_trip_and_render():
    failure = TaskFailure(
        key="wl-gcc_like", index=4, error_type="ValueError",
        message="boom", attempts=3,
    )
    assert failure.to_dict() == {
        "unit": "wl-gcc_like", "index": 4, "error": "ValueError",
        "message": "boom", "attempts": 3,
    }
    assert "wl-gcc_like" in failure.render()
    assert "3 attempt(s)" in failure.render()


# ---------------------------------------------------------------------------
# run_with_timeout
# ---------------------------------------------------------------------------
class TestTimeout:
    def test_no_timeout_calls_directly(self):
        assert run_with_timeout(_tenfold, 4, None, "k") == 40

    def test_fast_task_passes(self):
        assert run_with_timeout(_Sleeper(), 0.0, 5.0, "k") == 0.0

    def test_slow_task_raises(self):
        with pytest.raises(TaskTimeoutError, match="'slow'"):
            run_with_timeout(_Sleeper(), 0.5, 0.02, "slow")

    def test_task_error_is_relayed(self):
        with pytest.raises(ValueError, match="bad item"):
            run_with_timeout(_FailOn([1]), 1, 5.0, "k")

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            run_with_timeout(_tenfold, 1, 0.0, "k")


# ---------------------------------------------------------------------------
# resilient_map
# ---------------------------------------------------------------------------
class TestResilientMap:
    def test_clean_map_preserves_order(self):
        assert resilient_map(_tenfold, [3, 1, 2], executor="serial") == [30, 10, 20]

    def test_retries_recover_transient_failures(self, monkeypatch):
        monkeypatch.setattr(retry_module, "_sleep", lambda _s: None)
        results = resilient_map(
            _FlakyFirstAttempt(), [5, 6], executor="serial",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        assert results == [6, 7]

    def test_fail_fast_raises_with_cause(self, monkeypatch):
        monkeypatch.setattr(retry_module, "_sleep", lambda _s: None)
        with pytest.raises(RetryExhaustedError, match="bad item 2"):
            resilient_map(
                _FailOn([2]), [1, 2, 3], executor="serial",
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            )

    def test_collect_errors_records_failures_in_place(self, monkeypatch):
        monkeypatch.setattr(retry_module, "_sleep", lambda _s: None)
        results = resilient_map(
            _FailOn([2]), [1, 2, 3], executor="serial",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            fail_policy=FailPolicy.parse("collect_errors"),
            keys=["a", "b", "c"],
        )
        assert results[0] == 10 and results[2] == 30
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.key == "b"
        assert failure.index == 1
        assert failure.attempts == 2
        assert failure.error_type == "ValueError"

    def test_min_success_tolerates_down_to_floor(self, monkeypatch):
        monkeypatch.setattr(retry_module, "_sleep", lambda _s: None)
        ok = resilient_map(
            _FailOn([2]), [1, 2, 3, 4], executor="serial",
            retry=RetryPolicy(max_attempts=1),
            fail_policy=FailPolicy.parse("min_success:0.7"),
        )
        assert [ok[0], ok[2], ok[3]] == [10, 30, 40]
        assert isinstance(ok[1], TaskFailure) and ok[1].key == "task-1"
        with pytest.raises(RetryExhaustedError):
            resilient_map(
                _FailOn([1, 2, 3]), [1, 2, 3, 4], executor="serial",
                retry=RetryPolicy(max_attempts=1),
                fail_policy=FailPolicy.parse("min_success:0.7"),
            )

    def test_timeout_failure_is_captured(self):
        results = resilient_map(
            _Sleeper(), [0.0, 0.5], executor="serial",
            retry=RetryPolicy(max_attempts=1),
            fail_policy=FailPolicy.parse("collect_errors"),
            task_timeout=0.05,
        )
        assert results[0] == 0.0
        assert isinstance(results[1], TaskFailure)
        assert results[1].error_type == "TaskTimeoutError"

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="2 keys for 3 items"):
            resilient_map(_identity, [1, 2, 3], keys=["a", "b"])

    def test_backoff_sequence_is_reproducible(self, monkeypatch):
        observed = []

        def record(seconds):
            observed.append(seconds)

        monkeypatch.setattr(retry_module, "_sleep", record)
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.3, seed=7)
        for _ in range(2):
            resilient_map(
                _FailOn([1]), [1], executor="serial", retry=retry,
                fail_policy=FailPolicy.parse("collect_errors"),
            )
        assert len(observed) == 4
        assert observed[:2] == observed[2:]

    def test_works_in_process_pool(self):
        results = resilient_map(
            _tenfold, [1, 2, 3], n_jobs=2, executor="processes",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        assert results == [10, 20, 30]
