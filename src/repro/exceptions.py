"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class HypergraphError(ReproError):
    """A hypergraph was constructed or manipulated inconsistently."""


class UnknownNodeError(HypergraphError):
    """An operation referred to a node that is not part of the hypergraph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not a node of this hypergraph")
        self.node = node


class UnknownEdgeError(HypergraphError):
    """An operation referred to an edge that is not part of the hypergraph."""

    def __init__(self, edge: object) -> None:
        super().__init__(f"edge {set(edge) if isinstance(edge, frozenset) else edge!r} "
                         "is not an edge of this hypergraph")
        self.edge = edge


class TableauError(ReproError):
    """A tableau was constructed or manipulated inconsistently."""


class InvalidRowMappingError(TableauError):
    """A row mapping violates one of the paper's conditions (1)-(3)."""


class CyclicHypergraphError(ReproError):
    """An algorithm that only applies to acyclic hypergraphs received a cyclic one."""

    def __init__(self, message: str = "the hypergraph is cyclic") -> None:
        super().__init__(message)


class ClusterBoundExceededError(ReproError):
    """A bounded nested-loop cluster join exceeded its intermediate row bound."""


class ExecutionTimeoutError(ReproError):
    """An execution exceeded its ``deadline_seconds`` budget.

    Raised *between* engine phases (prepare / materialise / encode / reduce /
    fold / decode) — a phase that is already running is never interrupted
    mid-flight, so the overshoot is bounded by the longest single phase.
    Carries the phase that observed the breach plus the configured budget and
    the measured elapsed time, so services can answer with a structured
    timeout response.
    """

    def __init__(self, *, phase: str, deadline_seconds: float,
                 elapsed_seconds: float) -> None:
        super().__init__(
            f"execution exceeded its {deadline_seconds:.3f}s deadline "
            f"({elapsed_seconds:.3f}s elapsed, observed entering the "
            f"{phase!r} phase)")
        self.phase = phase
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds


class RelationalError(ReproError):
    """Base class for errors raised by the relational substrate."""


class SchemaError(RelationalError):
    """A relation schema or database schema is inconsistent."""


class UnknownAttributeError(SchemaError):
    """An operation referred to an attribute not present in the schema."""

    def __init__(self, attribute: object) -> None:
        super().__init__(f"attribute {attribute!r} is not part of the schema")
        self.attribute = attribute


class ArityError(RelationalError):
    """A tuple's arity does not match its relation schema."""


class QueryError(ReproError):
    """A query (conjunctive or tableau) is malformed or cannot be evaluated."""


class DependencyError(ReproError):
    """A data dependency (FD / MVD / JD) is malformed."""


class GenerationError(ReproError):
    """A random generator was asked for an impossible configuration."""


class ParseError(ReproError):
    """A textual hypergraph / schema description could not be parsed."""
