"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
DegenerateCohortError -> 4. An OSError (a file that cannot be read or
written) is also 3. Anything else is a plain crash (1).
"""


class SmiscreenError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SmiscreenError):
    """Invalid or inconsistent run configuration."""


class DataError(SmiscreenError):
    """Malformed input files, integrity violations, or corrupt artifacts."""


class DegenerateCohortError(SmiscreenError):
    """A cohort or split ended up single-class or empty."""
