"""Exception types shared across the package."""


class PastcastError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PastcastError):
    """A caller-supplied value is malformed (wrong shape, range, or type)."""


class ConfigError(PastcastError):
    """An experiment configuration or schedule failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # Replica workers send their errors back pickled, and the default
        # would rebuild this one from the joined message alone.
        return type(self), (self.field, self.message)


class InsufficientDataError(PastcastError):
    """The path was too short to complete the requested recurrence search.

    Carries the search's truncated record, whose offsets are the partial
    result, so callers can fall back to a default or report how far the
    search got.  Raise it without binding it to a local name: a local
    would tie its traceback to the raising frame in a reference cycle,
    keeping that frame's path arrays alive until a garbage collection.
    """

    def __init__(self, record):
        self.record = record
        super().__init__(
            f"found {record.achieved_j} of {record.requested_j} requested pattern recurrences"
        )

    def __reduce__(self):
        return type(self), (self.record,)


class UnsupportedQueryError(PastcastError):
    """The oracle cannot answer this query exactly (e.g. a zero-probability
    pattern, or a closed form that does not exist for this source kind)."""
