"""Exception hierarchy.

Validation and configuration problems raise distinct types so callers
(and the command line) can map them to exit codes without string matching.
"""


class BlameboxError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BlameboxError):
    """Input data violates a documented invariant (shape, sign, finiteness)."""


class FunctionIndexError(ValidationError):
    """A function row index is not an integer in [0, F) above the one before it."""


class ConfigError(BlameboxError):
    """A configuration value is out of its allowed range."""


class ScenarioError(BlameboxError):
    """Unknown or malformed scenario description."""


class ExecutorError(BlameboxError):
    """A skill executor could not run the requested skill."""


class StoreError(BlameboxError):
    """Persistence layer failure other than plain I/O."""


class VersionError(StoreError):
    """Stored file declares an unsupported format version."""


class KindError(StoreError):
    """Stored file holds a different kind of object than requested."""
