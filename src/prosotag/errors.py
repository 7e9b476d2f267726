"""Exception types shared across the package."""


class ProsotagError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProsotagError):
    """A domain object violates one of its invariants."""


class ParseError(ProsotagError):
    """An input file is malformed; the message carries the location."""


class ConfigError(ProsotagError):
    """A question, class table, or configuration value is invalid."""


class DimensionMismatchError(ProsotagError):
    """Embedding dimensions disagree."""


class EmptyNodeError(ProsotagError):
    """A log-likelihood was requested for a node with no samples."""


class InsufficientDataError(ProsotagError):
    """Too few samples for the requested number of mixture components."""


class ModelFormatError(ProsotagError):
    """A model file is corrupt, truncated, or has an unsupported version."""
