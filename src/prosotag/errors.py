"""Exception types shared across the package, and the rules for configuration knobs."""

import math

__all__ = [
    "ProsotagError",
    "ValidationError",
    "ParseError",
    "ConfigError",
    "DimensionMismatchError",
    "EmptyNodeError",
    "InsufficientDataError",
    "ModelFormatError",
]


class ProsotagError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProsotagError):
    """A domain object violates one of its invariants."""


class ParseError(ProsotagError):
    """An input file is malformed; the message carries the location."""


class ConfigError(ProsotagError):
    """A question, class table, or configuration value is invalid."""


# knob -> (exact int, else a finite int or float; lowest value; lowest allowed)
_KNOB_RULES: dict[str, tuple[bool, int, bool]] = {
    "d": (True, 1, True),
    "m": (True, 1, True),
    "max_leaves": (True, 1, True),
    "min_leaf": (True, 0, True),
    "seed": (True, 0, True),
    "num_leaf_archetypes": (True, 1, True),
    "words_per_archetype": (True, 1, True),
    "tokens_per_word": (True, 1, True),
    "components_per_archetype": (True, 1, True),
    "min_gain": (False, 0, True),
    "floor": (False, 0, False),
    "component_separation": (False, 0, False),
}


def _check_knobs(**values: object) -> None:
    """Raise ``ConfigError`` unless every named knob meets its ``_KNOB_RULES`` entry.

    An int knob must be an exact int (a bool is not one); any other knob a
    finite int or float.
    """
    for name, value in values.items():
        exact_int, lowest, inclusive = _KNOB_RULES[name]
        if exact_int and type(value) is not int:
            raise ConfigError(f"{name} must be int, got {type(value).__name__}")
        if not exact_int and (type(value) not in (int, float) or not math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if value < lowest or (value == lowest and not inclusive):
            bound = "at least" if inclusive else "greater than"
            raise ConfigError(f"{name} must be {bound} {lowest}, got {value!r}")


class DimensionMismatchError(ProsotagError):
    """Embedding dimensions disagree."""


class EmptyNodeError(ProsotagError):
    """A log-likelihood was requested for a node with no samples."""


class InsufficientDataError(ProsotagError):
    """Too few samples for the requested number of mixture components."""


class ModelFormatError(ProsotagError):
    """A model file is corrupt, truncated, or has an unsupported version."""
