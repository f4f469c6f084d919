"""Exception hierarchy shared across the package."""
from __future__ import annotations


class TableRouteError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(TableRouteError, ValueError):
    """A caller-supplied value violates an operation's precondition."""


class DimensionMismatchError(InvalidArgumentError):
    """An array has the wrong shape; the message names the offending component."""


class CheckpointIntegrityError(TableRouteError):
    """Checkpoint file is corrupt or truncated; nothing was loaded."""


class IncompatibleCheckpointError(TableRouteError):
    """Checkpoint dimensions differ from what this build expects."""


class ConfigurationError(TableRouteError):
    """A backend is missing data it needs (e.g. a correctness label)."""


class ConfigError(TableRouteError):
    """Run-config file problem. `key` names the offending entry when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class TransportError(TableRouteError):
    """Network-level failure talking to a remote backend; `elapsed_s` is the
    seconds spent on it, every attempt and the backoff between them included."""

    def __init__(self, message: str, endpoint: str = "", attempts: int = 1, elapsed_s=0.0):
        super().__init__(message)
        self.endpoint = endpoint
        self.attempts = attempts
        self.elapsed_s = elapsed_s


class RequestTimeoutError(TransportError):
    pass


class ConnectionFailedError(TransportError):
    pass


class MalformedResponseError(TableRouteError):
    """Remote backend answered, but not in the agreed shape. Never retried."""


class ContractViolationError(TableRouteError):
    """Remote backend returned data violating a declared contract (e.g. dim)."""


class FusionParseError(TableRouteError):
    """Agent response had no extractable answer; `raw` keeps the full text."""

    def __init__(self, raw: str, reason: str):
        super().__init__(f"cannot parse fusion response ({reason})")
        self.raw = raw


class FusionUnavailableError(TableRouteError):
    """Fusion agent unreachable after `agent_seconds`; caller decides the fallback."""

    def __init__(self, message: str, agent_seconds: float = 0.0):
        super().__init__(message)
        self.agent_seconds = agent_seconds


class InferenceError(TableRouteError):
    """A routed inference failed; the message names the path and the example."""


class IngestError(TableRouteError):
    pass


class UndefinedRateError(TableRouteError):
    """A ratio metric has an empty denominator; distinct from a 0% value."""


class UnknownDatasetWarning(UserWarning):
    """Raised when a dataset tag has no specific prompt adaptation."""
