"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: DataError -> 2,
NumericalError (and its subclasses) -> 3, ConfigError and any other -> 1.
"""


class SrrError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SrrError):
    """Bad configuration value, unknown key, or unusable command line."""


class DataError(SrrError):
    """Malformed or insufficient input data, or a missing/stale pipeline artifact."""


class NumericalError(SrrError):
    """Non-finite values, divergence, or an otherwise failed computation."""


class ShapeError(NumericalError):
    """Operands with non-conforming shapes. Message always carries both shapes."""
