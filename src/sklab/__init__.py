"""sklab: elliptic quadratic-relation spaces and their classical limits."""

import operator

__version__ = "0.1.0"


def _integer(name: str, value) -> int:
    """value as a plain int (np.int64 and True pass); TypeError naming it
    otherwise, 2.0 included."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
