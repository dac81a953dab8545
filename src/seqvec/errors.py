"""Exception hierarchy shared across the package, and its one integer check.

Both concrete classes subclass ValueError so callers that do not care
about the distinction can catch the builtin. The CLI maps ConfigError to
exit code 2 (usage) and DataError to exit code 1 (bad input data).
"""

import operator


class SeqvecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SeqvecError, ValueError):
    """Invalid parameter or configuration value."""


class DataError(SeqvecError, ValueError):
    """Malformed, empty, or otherwise unusable input data."""


def check_integer(name: str, value, minimum: int | None = 0,
                  maximum: int | None = None) -> None:
    """A ConfigError naming ``name`` unless ``value`` is an integer (Python
    or numpy, not a bool) in [minimum, maximum], a None bound being open;
    every integer setting of the package goes through it."""
    try:
        if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and v < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{name} must be at most {maximum}, got {v}")
