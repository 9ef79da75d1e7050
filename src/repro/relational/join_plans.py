"""Join planning and cost accounting for the benchmark harness.

The paper's Section 7 argument is qualitative — for acyclic schemas the
objects to join are determined by the canonical connection, and acyclic joins
can be processed without ever building oversized intermediates.  The
benchmarks make the shape of that claim measurable by counting intermediate
result sizes for different plans; this module supplies the plan objects and
counters (no wall-clock assumptions, just tuple counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hypergraph import Edge, Hypergraph
from ..core.join_tree import JoinTree, build_join_tree
from ..core.nodes import format_node_set, sorted_nodes
from ..exceptions import SchemaError
from .algebra import natural_join
from .database import Database
from .relation import Relation

__all__ = ["JoinStatistics", "naive_join_plan", "join_tree_plan", "execute_plan"]


@dataclass
class JoinStatistics:
    """Tuple-count accounting for a join plan execution.

    ``intermediate_sizes`` lists the cardinality of the running result after
    every binary join; ``max_intermediate`` and ``total_intermediate`` are the
    summary numbers the benchmark tables report.
    """

    plan_name: str
    input_sizes: Tuple[int, ...] = ()
    intermediate_sizes: Tuple[int, ...] = ()
    output_size: int = 0

    @property
    def max_intermediate(self) -> int:
        """The largest intermediate result produced by the plan."""
        return max(self.intermediate_sizes, default=self.output_size)

    @property
    def total_intermediate(self) -> int:
        """The sum of all intermediate result sizes (a proxy for total work)."""
        return sum(self.intermediate_sizes)

    def describe(self) -> str:
        """A one-line summary used in benchmark output."""
        return (f"{self.plan_name}: inputs={list(self.input_sizes)} "
                f"intermediates={list(self.intermediate_sizes)} "
                f"max={self.max_intermediate} output={self.output_size}")


def naive_join_plan(database: Database) -> Tuple[Relation, ...]:
    """The naive plan: join the relations in schema declaration order."""
    return database.relations()


def join_tree_plan(database: Database, *, root: Optional[Edge] = None) -> Tuple[Relation, ...]:
    """A join order that follows a join tree (children folded into parents).

    Requires an acyclic schema; raises :class:`SchemaError` otherwise.  The
    returned sequence visits relations so that each newly joined relation
    shares its separator with the part already joined, which is what keeps
    intermediates small on reduced databases.
    """
    tree = build_join_tree(database.hypergraph)
    if tree is None:
        raise SchemaError("join_tree_plan requires an acyclic database schema")
    traversal = tree.rooted_traversal(root)
    ordered: List[Relation] = []
    for vertex, _parent in traversal:
        matches = database.relations_for_edge(vertex)
        ordered.extend(matches)
    if len(ordered) != len(database.relations()):
        # Relations sharing a scheme map to one hypergraph edge; add the
        # duplicates right after their representative.
        seen = {id(relation) for relation in ordered}
        for relation in database.relations():
            if id(relation) not in seen:
                ordered.append(relation)
    return tuple(ordered)


def execute_plan(relations: Sequence[Relation], *, plan_name: str = "plan") -> Tuple[Relation, JoinStatistics]:
    """Execute a left-deep join plan and collect tuple-count statistics."""
    if not relations:
        raise SchemaError("a join plan needs at least one relation")
    stats = JoinStatistics(plan_name=plan_name,
                           input_sizes=tuple(len(relation) for relation in relations))
    result = relations[0]
    intermediates: List[int] = []
    for relation in relations[1:]:
        result = natural_join(result, relation)
        intermediates.append(len(result))
    stats.intermediate_sizes = tuple(intermediates)
    stats.output_size = len(result)
    return result, stats
