"""The base of the errors that invalid input raises, and real_array."""

import numpy as np


class DhbError(Exception):
    """Invalid input to any layer (config, graph, weights, objective,
    engine, consensus, analysis); `dhb` reports it as one `error: …` line
    and exit code 2."""


def real_array(values, error, name):
    """values as floats (not copied if they are), or `error` if not real."""
    try:
        values = np.asarray(values)
    except ValueError:  # rows of unequal length
        values = np.asarray(None)
    if values.dtype.kind not in "iuf":
        raise error(f"{name} must be real, in rows of equal length")
    return values.astype(float, copy=False)
