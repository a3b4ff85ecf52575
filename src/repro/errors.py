"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch package failures with a single
``except`` clause while letting genuine bugs (``TypeError`` and friends)
propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DataError(ReproError):
    """A dataset is malformed: shape mismatch, NaNs, empty, bad header."""


class MissingEventError(DataError):
    """A raw counter snapshot lacks an event required by a metric formula."""

    def __init__(self, event_name: str) -> None:
        super().__init__(f"required hardware event {event_name!r} is missing")
        self.event_name = event_name


class NotFittedError(ReproError):
    """A model method that requires ``fit`` was called before fitting."""


class ConfigError(ReproError):
    """A configuration object holds an invalid or inconsistent value."""


class ParseError(ReproError):
    """A serialized artifact (ARFF, CSV, report) could not be parsed."""


class LintError(ReproError):
    """The lint subsystem was misused (no inputs, bad rule id, bad config)."""


class RetryExhaustedError(ReproError):
    """A task kept failing after every allowed retry attempt.

    Raised by the resilience layer when a unit of work (a fold, a
    workload simulation, a cache write) has consumed its full retry
    budget, or when a ``min_success_fraction`` failure policy finds too
    few surviving units to produce a trustworthy result.  The original
    error is chained as ``__cause__``.
    """


class TaskTimeoutError(ReproError):
    """A task exceeded its per-task wall-clock timeout.

    The resilience layer treats a timeout like any other transient
    failure: the attempt is abandoned, retried under the active
    :class:`~repro.resilience.retry.RetryPolicy`, and finally recorded
    as a :class:`~repro.resilience.retry.TaskFailure` or re-raised,
    depending on the failure policy.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written or the store was misused.

    Unreadable or corrupt checkpoints on *load* are never raised — they
    are quarantined and recomputed — so this error signals caller bugs
    (bad run keys, unserializable payloads), not disk corruption.
    """


class ServeError(ReproError):
    """The serving layer was misconfigured or a request is invalid.

    Raised for bad server configuration (ports, batch limits) and for
    malformed request payloads; the HTTP layer maps it to a 400-class
    JSON error envelope rather than a stack trace.
    """


class OverloadError(ServeError):
    """A request was shed before evaluation to protect the server.

    Raised by admission control when the server is draining or over its
    in-flight budget.  The HTTP layer maps it to a 503 with a
    ``Retry-After`` header and a machine-readable ``reason`` in the
    error envelope, so well-behaved clients back off instead of piling
    on.
    """

    def __init__(
        self, message: str, reason: str = "overload",
        retry_after: float = 1.0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class RegistryError(ServeError):
    """The model registry refused an operation.

    Unknown names/versions, malformed manifests, publishing unfitted
    models, and blobs that failed their integrity check all land here —
    never a raw ``KeyError`` or a silently wrong model.
    """


class StaleCalibrationError(ReproError):
    """A fastsim calibration artifact no longer matches the code it models.

    Raised when the fast suite engine is handed a calibration whose
    machine-config or workload-suite fingerprint disagrees with the
    current configuration: predictions from a stale residual model are
    silently wrong, so the engine refuses to run rather than degrade.
    """


class FaultInjected(ReproError):
    """An artificial failure raised by the fault-injection harness.

    Only ever raised when ``REPRO_FAULTS`` names the site; production
    code paths treat it exactly like the real failure it simulates, so
    chaos tests exercise the same retry/quarantine/skip machinery that
    genuine crashes would.
    """

    def __init__(self, site: str, key: str, occurrence: int) -> None:
        super().__init__(
            f"injected fault at site {site!r} (key {key!r}, "
            f"occurrence {occurrence})"
        )
        self.site = site
        self.key = key
        self.occurrence = occurrence
