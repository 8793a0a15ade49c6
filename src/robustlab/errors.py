"""Exception types shared across the package, and the one home of each range rule its
entry points check before any work: check_positive, check_at_least, check_seed, check_size."""
import math

MAX_ENTRIES = 2**24  # the most entries an array sized by input may have


class RobustlabError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(RobustlabError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class ParameterError(RobustlabError, ValueError):
    """An argument value is outside its allowed range."""


class NumericalError(ParameterError):
    """A computation made a NaN: its inputs drove float64 arithmetic out of range."""


class ContractError(RobustlabError, ValueError):
    """An API precondition was violated by the caller."""


class CapabilityError(RobustlabError, ValueError):
    """The request exceeds what this implementation supports."""


class ConfigError(RobustlabError, ValueError):
    """A training or experiment configuration is inconsistent."""


class SchemaError(RobustlabError, ValueError):
    """A file parsed cleanly but its content contradicts its declared schema."""


class ParseError(RobustlabError, ValueError):
    """A file could not be parsed.

    `line` is 1-based; `offset` is the byte offset of the offending line
    within the file. Either may be None when unknown.
    """

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.offset = offset


def check_positive(value, what: str, error: type[RobustlabError] = ParameterError) -> float:
    """Return `value` as a float; one that is not positive and finite raises `error`."""
    v = float(value)
    if not 0.0 < v < math.inf:  # NaN fails every comparison
        raise error(f"{what} must be positive and finite, got {value}")
    return v


def check_at_least(value, low: int, what: str, error: type[RobustlabError] = ParameterError):
    """Return `value`; one below `low` raises `error` "<what> must be >= <low>, got ..."."""
    if value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def check_seed(seed, error: type[RobustlabError] = ParameterError):
    """Return `seed`; a negative one, which numpy's generators refuse, raises `error`."""
    return check_at_least(seed, 0, "seed", error)


def check_size(entries: int, what: str) -> None:
    """Refuse an array sized by input (a weight matrix, a dataset, a PGD trace, a kappa
    histogram, an alpha grid) before it is allocated: ParameterError "<what> of more than ..."."""
    if entries > MAX_ENTRIES:
        raise ParameterError(f"{what} of more than {MAX_ENTRIES} entries")
