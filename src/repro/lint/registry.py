"""The lint rule registry.

Rules self-register at import time via the :func:`rule` decorator; the
runner iterates :func:`rules_for` per family.  A rule's check function
receives a :class:`repro.lint.context.LintContext` and yields findings
either as ready-made :class:`~repro.lint.diagnostics.Diagnostic` objects
(when it wants to override the registered severity) or as plain
``(message, location)`` tuples, which the runner stamps with the rule's
id and default severity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple, Union

from repro.errors import LintError
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity

#: The eight rule families, in the order they run.
FAMILY_TREE = "tree"
FAMILY_DATASET = "dataset"
FAMILY_COMPAT = "compat"
FAMILY_CACHE = "cache"
FAMILY_SERVE = "serve"
FAMILY_FOREST = "forest"
FAMILY_VERIFY = "verify"
FAMILY_FASTSIM = "fastsim"
ALL_FAMILIES: Tuple[str, ...] = (
    FAMILY_TREE, FAMILY_DATASET, FAMILY_COMPAT, FAMILY_CACHE, FAMILY_SERVE,
    FAMILY_FOREST, FAMILY_VERIFY, FAMILY_FASTSIM,
)

Finding = Union[Diagnostic, Tuple[str, str]]
CheckFunction = Callable[[LintContext], Iterable[Finding]]


@dataclass(frozen=True)
class LintRule:
    """A registered rule: identity, family, default severity, check."""

    rule_id: str
    family: str
    severity: Severity
    summary: str
    check: CheckFunction


_REGISTRY: Dict[str, LintRule] = {}


def rule(
    rule_id: str, family: str, severity: Severity, summary: str
) -> Callable[[CheckFunction], CheckFunction]:
    """Class the decorated function as the named lint rule."""
    if family not in ALL_FAMILIES:
        raise LintError(f"unknown rule family {family!r} for {rule_id}")

    def decorator(check: CheckFunction) -> CheckFunction:
        if rule_id in _REGISTRY:
            raise LintError(f"duplicate lint rule id {rule_id!r}")
        _REGISTRY[rule_id] = LintRule(
            rule_id=rule_id,
            family=family,
            severity=severity,
            summary=summary,
            check=check,
        )
        return check

    return decorator


def all_rules() -> List[LintRule]:
    """Every registered rule, in registration order."""
    return list(_REGISTRY.values())


def rules_for(family: str) -> List[LintRule]:
    """The rules of one family, in registration order."""
    if family not in ALL_FAMILIES:
        raise LintError(f"unknown rule family {family!r}")
    return [r for r in _REGISTRY.values() if r.family == family]


def get_rule(rule_id: str) -> LintRule:
    """Look up one rule by id."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(f"unknown lint rule {rule_id!r}") from None
