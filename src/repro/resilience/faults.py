"""Deterministic fault injection for chaos testing the execution stack.

Real counter-collection pipelines fail in mundane ways — a simulation
worker dies, a cache file is truncated, a checkpoint half-written.  The
retry, failure-policy, and checkpoint machinery in this package exists
to survive exactly those failures, and this module makes them happen on
demand so every policy is testable.

Activation is purely environmental.  ``REPRO_FAULTS`` holds a spec like::

    REPRO_FAULTS="sim:0.2,cache_read:0.1,seed=7"

meaning: raise :class:`~repro.errors.FaultInjected` at the ``sim`` site
with probability 0.2 per call and at ``cache_read`` with probability
0.1, with all decisions derived from seed 7.  When the variable is
unset or empty, :func:`maybe_inject` is a no-op; production behavior is
byte-for-byte unaffected.

Decisions are *deterministic*: whether occurrence ``n`` of a
``(site, key)`` pair fails is a pure function of
``(seed, site, key, n)``.  Two consequences worth spelling out:

* Retries can succeed.  Each retry of the same unit is a new
  occurrence, so a 20%-rate fault clears with probability 0.8 on the
  next attempt — exactly how flaky hardware counters behave.
* Faults never perturb *results*.  An injected failure decides whether
  a unit fails, never what it computes; every unit's randomness comes
  from its own pre-spawned seed, so a run that completes under faults
  is bit-identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError, FaultInjected

#: Environment variable holding the active fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Sites instrumented with :func:`maybe_inject`, and what failing there
#: simulates.  Specs naming any other site are rejected up front so a
#: typo cannot silently inject nothing.
KNOWN_SITES: Mapping[str, str] = {
    "sim": "a workload simulation task crashes mid-section",
    "fold": "a cross-validation fold's fit-and-predict dies",
    "cache_read": "an artifact-cache entry is unreadable",
    "cache_write": "an artifact-cache write fails before completing",
    "checkpoint_read": "a checkpoint file is unreadable",
    "checkpoint_write": "a checkpoint write fails before completing",
    "registry_read": "a registry manifest read fails",
}


def _unit_interval(seed: int, site: str, key: str, occurrence: int) -> float:
    """A deterministic draw in [0, 1) for one injection decision."""
    text = f"{seed}|{site}|{key}|{occurrence}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return int(digest[:16], 16) / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``REPRO_FAULTS`` value: per-site rates plus the seed."""

    rates: Mapping[str, float]
    seed: int = 0

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse the ``site:rate,...,seed=N`` grammar.

        Raises :class:`~repro.errors.ConfigError` on unknown sites,
        rates outside [0, 1], or malformed tokens.
        """
        rates: Dict[str, float] = {}
        seed = 0
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError:
                    raise ConfigError(
                        f"fault spec seed must be an integer, got {token!r}"
                    ) from None
                continue
            site, sep, rate_text = token.partition(":")
            site = site.strip()
            if not sep:
                raise ConfigError(
                    f"malformed fault token {token!r}; expected site:rate"
                )
            if site not in KNOWN_SITES:
                raise ConfigError(
                    f"unknown fault site {site!r}; known sites: "
                    + ", ".join(sorted(KNOWN_SITES))
                )
            try:
                rate = float(rate_text)
            except ValueError:
                raise ConfigError(
                    f"fault rate for {site!r} must be a number, got "
                    f"{rate_text!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"fault rate for {site!r} must lie in [0, 1], got {rate}"
                )
            rates[site] = rate
        if not rates:
            raise ConfigError(
                "fault spec names no sites; expected e.g. 'sim:0.2,seed=7'"
            )
        return FaultSpec(rates=dict(rates), seed=seed)

    def describe(self) -> str:
        """Human-readable rendering (the ``repro faults`` output)."""
        lines = [f"fault injection active (seed {self.seed})"]
        for site in sorted(self.rates):
            lines.append(
                f"  {site:<17} {100 * self.rates[site]:5.1f}%  "
                f"{KNOWN_SITES[site]}"
            )
        return "\n".join(lines)


@dataclass
class FaultPlan:
    """A spec plus per-``(site, key)`` occurrence counters.

    The counters make retries meaningful: each call for the same unit
    is a distinct occurrence with an independent (but deterministic)
    decision.  Counters are process-local; they track how often *this*
    process asked, which is deterministic for any fixed call pattern.
    """

    spec: FaultSpec
    _counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def should_fail(self, site: str, key: str) -> bool:
        """Decide (and record) one occurrence at ``site`` for ``key``."""
        rate = self.spec.rates.get(site, 0.0)
        with self._lock:
            occurrence = self._counts.get((site, key), 0)
            self._counts[(site, key)] = occurrence + 1
        if rate <= 0.0:
            return False
        return _unit_interval(self.spec.seed, site, key, occurrence) < rate

    def occurrence(self, site: str, key: str) -> int:
        """How many decisions have been made for ``(site, key)`` so far."""
        with self._lock:
            return self._counts.get((site, key), 0)

    def inject(self, site: str, key: str) -> None:
        """Raise :class:`FaultInjected` when this occurrence should fail."""
        if self.should_fail(site, key):
            raise FaultInjected(site, key, self.occurrence(site, key))


_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_TEXT: Optional[str] = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The plan for the current ``REPRO_FAULTS`` value, or ``None``.

    The plan (with its occurrence counters) is cached per environment
    value, so repeated calls within one process share counters; any
    change to the variable builds a fresh plan.
    """
    global _ACTIVE, _ACTIVE_TEXT
    text = os.environ.get(FAULTS_ENV, "").strip()
    with _ACTIVE_LOCK:
        if text == (_ACTIVE_TEXT or ""):
            return _ACTIVE
        _ACTIVE = FaultPlan(FaultSpec.parse(text)) if text else None
        _ACTIVE_TEXT = text
        return _ACTIVE


def reset_faults() -> None:
    """Drop the cached plan (and its counters); mainly for tests."""
    global _ACTIVE, _ACTIVE_TEXT
    with _ACTIVE_LOCK:
        _ACTIVE = None
        _ACTIVE_TEXT = None


def maybe_inject(site: str, key: str) -> None:
    """Raise :class:`FaultInjected` if the active plan says so.

    This is the single hook production code places at a failure site.
    With no active plan (the normal case) it is a cheap no-op.
    """
    plan = active_plan()
    if plan is not None:
        plan.inject(site, key)
