"""Exception types shared across the package.

Numeric failures (non-finite values, factorization breakdown, divergence)
are distinguished from artifact/configuration problems so the CLI can map
them to distinct exit codes.
"""


class PdeControlError(Exception):
    """Base class for all package errors."""


class NonFiniteError(PdeControlError):
    """An input or intermediate value is NaN or infinite."""


class FactorizationFailure(PdeControlError):
    """A symmetric factorization failed; the system is numerically singular."""


class CacheMismatch(PdeControlError):
    """A cache or checkpoint does not match the requested architecture/operator."""


class ConfigError(PdeControlError):
    """Run configuration is missing, malformed, or fails schema validation."""


class MissingArtifact(PdeControlError):
    """An upstream artifact required by a command does not exist."""
