"""Exception taxonomy shared by all surfaceflow modules.

The split matters operationally: ``PreconditionError`` means the caller fed
bad data, ``InternalInvariantError`` means a guaranteed property failed and
carries a witness for debugging, and ``OracleBudgetExceeded`` is a refusal,
not a failure.
"""

from __future__ import annotations


class SurfaceflowError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(SurfaceflowError):
    """A combinatorial map or instance is malformed.

    ``code`` names the fault's family, so callers (and the CLI) report it
    without parsing the message; it is set where the fault is raised.  The
    map's checks (``surface.EmbeddedGraph``) raise ``"schema"`` (a vertex
    count or endpoint that is not an int in range), ``"rotation"`` (the
    rotation lists are not a permutation of the darts, each at its own
    vertex) and ``"disconnected"``; ``instances.Instance`` raises
    ``"capacity"`` (a zero or negative capacity) and ``"schema"`` (a bad
    kind, a capacity that is not an int, a demand loop);
    ``instances.parse_instance`` raises ``"schema"`` (invalid JSON, a
    missing or mistyped field, non-dense ids) and ``"rotation"`` (a
    rotation that is not a list of lists), and lets the others through.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class PreconditionError(SurfaceflowError):
    """An operation was invoked outside its documented domain (e.g. cutting
    along cycles that are not vertex-disjoint, uncrossing a pair with fewer
    than two crossings)."""


class InternalInvariantError(SurfaceflowError):
    """A property the algorithms guarantee was observed to fail.

    This is never caught internally: it exists so that a counterexample to a
    guaranteed invariant surfaces loudly, together with a witness object.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OracleBudgetExceeded(SurfaceflowError):
    """The exact oracle refused the input because the work budget ran out.

    Distinct from failure: the caller may retry with a larger budget.
    """
