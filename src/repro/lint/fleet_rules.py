"""The ``fleet`` rule family: fleet-config sanity (FLEET0xx).

A fleet config file (``repro serve --fleet-config fleet.json``) decides
how many workers run, how load is shed, and when the circuit breaker
declares the fleet degraded — a typo here surfaces at 3am as a fleet
that refuses to boot or, worse, boots with no admission control.  These
rules audit the document statically, the same dict
:meth:`~repro.serve.fleet.FleetConfig.from_dict` would consume, without
constructing the config (which would stop at the first problem):

* ``FLEET001`` (error): the document is unreadable, not a JSON object,
  or carries keys :class:`~repro.serve.fleet.FleetConfig` does not
  know — usually a misspelled option silently doing nothing.
* ``FLEET002`` (error): ``workers`` is not a positive integer.
* ``FLEET003`` (error): ``mode`` is not a supported fleet mode, or
  ``reuseport`` is asked to share an OS-assigned port (0), which
  cannot work — every worker must bind the *same* fixed port.
* ``FLEET004`` (error): a timing knob is out of range — timeouts and
  probe intervals must be positive; drain, restart-backoff, and
  breaker-cooldown delays must be non-negative.
* ``FLEET005`` (warning): ``max_inflight`` is null — the fleet will
  admit unbounded concurrent requests and can only shed on deadline;
  an invalid value (not a positive integer) is an error.
* ``FLEET006`` (warning): ``task_timeout`` is not shorter than
  ``router_timeout_s`` — the router would give up on a stalled worker
  before the worker's own deadline sheds the request, turning clean
  503s into client-visible timeouts.
* ``FLEET007`` (error): circuit-breaker settings are out of range
  (``breaker_threshold`` must be a positive integer,
  ``breaker_cooldown_s`` non-negative).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import FAMILY_FLEET, rule

Finding = Tuple[str, str]

#: Keys that must be positive when present (timeouts, rates).
_POSITIVE_KEYS = (
    "retry_after_s",
    "probe_interval_s",
    "probe_timeout_s",
    "startup_timeout_s",
    "router_timeout_s",
)
#: Keys that must be non-negative when present (delays may be zero).
_NON_NEGATIVE_KEYS = (
    "drain_timeout_s",
    "restart_base_delay_s",
    "restart_max_delay_s",
)


def _known_keys() -> Tuple[str, ...]:
    from repro.serve.fleet import FleetConfig

    return tuple(f.name for f in dataclasses.fields(FleetConfig))


def _document(
    context: LintContext,
) -> Tuple[Optional[Dict[str, Any]], Optional[str], str]:
    """The config dict, a load failure message, and a location string.

    ``context.fleet_config`` is either an in-memory dict (programmatic
    use, tests) or a path to a JSON file; the rules never crash on a
    bad file — FLEET001 reports it.
    """
    source = context.fleet_config
    if isinstance(source, dict):
        return source, None, "<fleet-config>"
    location = str(source)
    try:
        text = Path(location).read_text(encoding="utf-8")
    except OSError as exc:
        return None, f"fleet config is unreadable: {exc}", location
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"fleet config is not valid JSON: {exc}", location
    if not isinstance(document, dict):
        return (
            None,
            "fleet config must be a JSON object, got "
            f"{type(document).__name__}",
            location,
        )
    return document, None, location


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@rule(
    "FLEET001",
    FAMILY_FLEET,
    Severity.ERROR,
    "the fleet config must be a JSON object with known keys",
)
def check_document(context: LintContext) -> Iterator[Finding]:
    document, failure, location = _document(context)
    if failure is not None:
        yield (failure, location)
        return
    assert document is not None
    known = _known_keys()
    for key in sorted(set(document) - set(known)):
        yield (
            f"unknown fleet config key {key!r} (known keys: "
            + ", ".join(known) + ")",
            location,
        )


@rule(
    "FLEET002",
    FAMILY_FLEET,
    Severity.ERROR,
    "workers must be a positive integer",
)
def check_workers(context: LintContext) -> Iterator[Finding]:
    document, _, location = _document(context)
    if document is None or "workers" not in document:
        return
    workers = document["workers"]
    if not _is_int(workers) or workers < 1:
        yield (f"workers must be an integer >= 1, got {workers!r}", location)


@rule(
    "FLEET003",
    FAMILY_FLEET,
    Severity.ERROR,
    "mode must be a supported fleet mode with a compatible port",
)
def check_mode(context: LintContext) -> Iterator[Finding]:
    from repro.serve.fleet import MODES

    document, _, location = _document(context)
    if document is None:
        return
    mode = document.get("mode", "router")
    if mode not in MODES:
        yield (
            f"mode must be one of {', '.join(MODES)}; got {mode!r}",
            location,
        )
        return
    if mode == "reuseport" and document.get("port", 8377) == 0:
        yield (
            "reuseport mode needs a fixed port: every worker must bind "
            "the same port, so port 0 (OS-assigned) cannot work",
            location,
        )


@rule(
    "FLEET004",
    FAMILY_FLEET,
    Severity.ERROR,
    "timing knobs must be positive timeouts or non-negative delays",
)
def check_timings(context: LintContext) -> Iterator[Finding]:
    document, _, location = _document(context)
    if document is None:
        return
    for key in _POSITIVE_KEYS:
        if key not in document:
            continue
        value = document[key]
        if not _is_number(value) or value <= 0:
            yield (f"{key} must be a positive number, got {value!r}", location)
    for key in _NON_NEGATIVE_KEYS:
        if key not in document:
            continue
        value = document[key]
        if not _is_number(value) or value < 0:
            yield (
                f"{key} must be a non-negative number, got {value!r}",
                location,
            )
    if "task_timeout" in document and document["task_timeout"] is not None:
        value = document["task_timeout"]
        if not _is_number(value) or value <= 0:
            yield (
                f"task_timeout must be null or a positive number, "
                f"got {value!r}",
                location,
            )


@rule(
    "FLEET005",
    FAMILY_FLEET,
    Severity.WARNING,
    "max_inflight should bound admission (null disables load shedding)",
)
def check_admission(context: LintContext) -> Iterator[Finding]:
    document, _, location = _document(context)
    if document is None or "max_inflight" not in document:
        return
    value = document["max_inflight"]
    if value is None:
        yield (
            "max_inflight is null: no admission control — the fleet "
            "accepts unbounded concurrent requests and can only shed "
            "on deadline",
            location,
        )
    elif not _is_int(value) or value < 1:
        # Worse than missing: the config will not construct at all.
        yield Diagnostic(
            rule_id="FLEET005",
            severity=Severity.ERROR,
            message=(
                f"max_inflight must be null or an integer >= 1, "
                f"got {value!r}"
            ),
            location=location,
        )


@rule(
    "FLEET006",
    FAMILY_FLEET,
    Severity.WARNING,
    "task_timeout should be shorter than the router timeout",
)
def check_timeout_ordering(context: LintContext) -> Iterator[Finding]:
    document, _, location = _document(context)
    if document is None:
        return
    task_timeout = document.get("task_timeout")
    router_timeout = document.get("router_timeout_s", 10.0)
    if not (_is_number(task_timeout) and _is_number(router_timeout)):
        return
    if task_timeout >= router_timeout:
        yield (
            f"task_timeout ({task_timeout:g}s) is not shorter than "
            f"router_timeout_s ({router_timeout:g}s): the router gives "
            "up on a stalled worker before the worker's deadline sheds "
            "the request, turning clean 503s into client timeouts",
            location,
        )


@rule(
    "FLEET007",
    FAMILY_FLEET,
    Severity.ERROR,
    "circuit-breaker settings must be in range",
)
def check_breaker(context: LintContext) -> Iterator[Finding]:
    document, _, location = _document(context)
    if document is None:
        return
    if "breaker_threshold" in document:
        value = document["breaker_threshold"]
        if not _is_int(value) or value < 1:
            yield (
                f"breaker_threshold must be an integer >= 1, "
                f"got {value!r}",
                location,
            )
    if "breaker_cooldown_s" in document:
        value = document["breaker_cooldown_s"]
        if not _is_number(value) or value < 0:
            yield (
                f"breaker_cooldown_s must be a non-negative number, "
                f"got {value!r}",
                location,
            )
