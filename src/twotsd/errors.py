"""Exception types shared across the package.

Every error carries a stable ``code`` string so callers (and the wire
protocol's error messages) can dispatch on it without parsing prose.
"""

from __future__ import annotations


class TwoTsdError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ValidationError(TwoTsdError):
    """A value failed its invariants. ``field`` names the offending field."""

    code = "validation"

    def __init__(self, message: str, field: str | None = None, code: str | None = None):
        super().__init__(message)
        self.field = field
        if code is not None:
            self.code = code


class ConfigError(TwoTsdError):
    code = "config"


class StaleUpdateError(TwoTsdError):
    """Resource upsert with an updated_at older than the stored profile."""

    code = "stale_update"


class UnsortedInputError(TwoTsdError):
    code = "unsorted_input"


class HeterogeneousInputError(TwoTsdError):
    code = "heterogeneous_input"


class ProtocolError(TwoTsdError):
    code = "protocol"


class MalformedFrameError(ProtocolError):
    code = "malformed"


class UnknownKindError(ProtocolError):
    code = "unknown_kind"


class VersionMismatchError(ProtocolError):
    code = "version_mismatch"


class RemoteEngineError(TwoTsdError):
    code = "remote_engine"


class RemoteTimeoutError(RemoteEngineError):
    code = "remote_timeout"


class RemoteAuthError(RemoteEngineError):
    code = "remote_auth"


class RemoteRateLimitError(RemoteEngineError):
    code = "remote_rate_limit"


class SchemaViolationError(RemoteEngineError):
    code = "schema_violation"
