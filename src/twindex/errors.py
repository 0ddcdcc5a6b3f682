"""Exception types shared across the package.

Every error raised by twindex derives from :class:`TwindexError`, so callers
can catch the whole family with one clause. Each class also inherits from the
closest builtin (``ValueError`` / ``IndexError``) to stay friendly to generic
handlers.
"""


class TwindexError(Exception):
    """Base class for all twindex errors."""


class VertexOutOfRange(TwindexError, IndexError):
    """A vertex index lies outside ``[0, n)``."""


class SelfLoopRejected(TwindexError, ValueError):
    """An edge ``(v, v)`` was supplied; graphs here are simple."""


class ArityMismatch(TwindexError, ValueError):
    """A composition base graph and its factor list disagree in length."""


class ParseError(TwindexError, ValueError):
    """Malformed textual graph input. Carries a 1-based position when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class DisconnectedGraph(TwindexError, ValueError):
    """The operation requires a connected graph."""


class DisconnectedTerminals(TwindexError, ValueError):
    """The terminal set spans more than one connected component."""


class EmptyTerminalSet(TwindexError, ValueError):
    """A Steiner query needs at least one terminal."""


class TerminalCapExceeded(TwindexError, ValueError):
    """Too many terminals for the exact Steiner dynamic program."""


class GraphTooLargeForBruteForce(TwindexError, ValueError):
    """The brute-force Steiner oracle only accepts small graphs."""


class BadSubsetSize(TwindexError, ValueError):
    """Subset size ``m`` is outside ``[1, n]``."""


class NeedTwoParts(TwindexError, ValueError):
    """A multipartite closed form needs at least two parts."""


class ReconstructionMismatch(TwindexError, RuntimeError):
    """Recomposition did not reproduce the source graph (internal bug)."""


class RouteDisagreement(TwindexError, RuntimeError):
    """Two routes to the same index gave different values; ``.routes`` holds them all."""

    def __init__(self, routes, where):
        self.routes = dict(routes)
        detail = " ".join(f"{route}={value}" for route, value in self.routes.items())
        super().__init__(f"method disagreement on {where}: {detail}")


class BadParameter(TwindexError, ValueError):
    """Invalid parameter for a group, ring, or graph family constructor."""


class RingTooLarge(TwindexError, ValueError):
    """The ring exceeds the ideal-enumeration size cap."""


class OrderTooLarge(TwindexError, ValueError):
    """A group or ring order whose int16 operation table would exceed the byte budget.

    The cap also holds where no table is built: a ring family of a product of
    ``Z_n``, built from residue arithmetic, is refused above the same order,
    with a message that names the cap and no table.
    """


class RingMismatch(TwindexError, ValueError):
    """Two ideals belong to different rings."""


class ImproperIdeal(TwindexError, ValueError):
    """The whole ring was passed where a proper ideal is required."""


class LocalRingUnsupported(TwindexError, ValueError):
    """The comaximal ideal graph is empty for local rings; rejected instead."""
