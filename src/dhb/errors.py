"""The one base class of the errors that invalid input raises."""


class DhbError(Exception):
    """Invalid input to any layer (config, graph, weights, objective,
    engine, consensus, analysis); `dhb` reports it as one `error: …` line
    and exit code 2."""
