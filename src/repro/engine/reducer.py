"""Full-reducer semijoin programs over join trees (Bernstein–Goodman).

Given a join tree for an acyclic hypergraph, the *full reducer* is the
two-pass semijoin program the paper's Section 7 machinery licenses:

* an **upward pass** (leaves to root) semijoining every parent with each of
  its children, then
* a **downward pass** (root to leaves) semijoining every child with its
  parent.

Afterwards no relation holds a dangling tuple: each equals the projection of
the universal join onto its scheme.  The engine's reducer differs from the
logical construction in :mod:`repro.relational.semijoin_reducer` in that it
operates on one column block *per join-tree vertex* (edges, not relation
names), runs the whole-block semijoin kernel, and records per-step accounting.

A :class:`FullReducer` is the logical program; it runs compiled.  Its steps
are compiled once to integer vertex slots with canonical separators, tree
components and the proof-of-reduction pairs
(:class:`~repro.engine.columnar.executor.ReductionProgram`), and a bound
prepared query replays that program ahead of its fold, whose semijoins
share the kernels' memo keys.  :meth:`FullReducer.run_blocks` replays the
reducer part alone.

``check_hook`` is the proof-of-reduction hook: after the two passes the hook
is called with the reduced vertex map and the rooted tree, and must return
``True``; without one, the program's own proof pairs re-verify
semijoin-stability of every tree edge in both directions, which is exactly
the fixpoint condition full reduction guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.hypergraph import Edge
from ..core.join_tree import JoinTree, RootedJoinTree
from ..core.nodes import format_node_set, sorted_nodes
from ..exceptions import ReproError
from ..telemetry.tracing import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar.block import ColumnBlock

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "ReductionError",
    "FullReducer",
]

VertexMap = Dict[Edge, "ColumnBlock"]
CheckHook = Callable[[Mapping[Edge, "ColumnBlock"], RootedJoinTree], bool]


class ReductionError(ReproError):
    """Raised when the proof-of-reduction check hook rejects a reducer run."""


@dataclass(frozen=True)
class ReductionStep:
    """One step ``target := target ⋉ source`` between join-tree vertices."""

    target: Edge
    source: Edge
    separator: FrozenSet
    direction: str  # "up" (child into parent) or "down" (parent into child)
    #: ``separator`` as the canonical tuple the semijoin operators take for
    #: ``on=`` (``None`` when empty) — sorted once, when the step is compiled.
    on: Optional[Tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "on",
                           tuple(sorted_nodes(self.separator)) or None)

    def describe(self) -> str:
        """Render the step in ``R := R ⋉ S  [separator]`` notation."""
        return (f"{format_node_set(self.target)} := {format_node_set(self.target)} ⋉ "
                f"{format_node_set(self.source)}  [on {format_node_set(self.separator)}]")


@dataclass
class ReductionTrace:
    """Per-step accounting of one reducer run."""

    steps_run: int = 0
    rows_removed: int = 0
    sizes_before: Tuple[int, ...] = ()
    sizes_after: Tuple[int, ...] = ()

    @property
    def reduction_ratio(self) -> float:
        """Fraction of input rows removed by the run (0.0 on empty input)."""
        total = sum(self.sizes_before)
        return (self.rows_removed / total) if total else 0.0


@dataclass(frozen=True)
class FullReducer:
    """A compiled full-reducer program for one rooted join tree.

    The program is derived once per plan and reused across databases with the
    same schema fingerprint (see :mod:`repro.engine.planner`).
    """

    rooted: RootedJoinTree
    steps: Tuple[ReductionStep, ...]

    @classmethod
    def from_join_tree(cls, tree: JoinTree, root: Optional[Edge] = None) -> "FullReducer":
        """Compile the upward+downward semijoin program off a join tree."""
        rooted = tree.rooted(root)
        steps: List[ReductionStep] = []
        for vertex, parent in rooted.leaf_to_root():
            if parent is None:
                continue
            steps.append(ReductionStep(target=parent, source=vertex,
                                       separator=frozenset(vertex & parent), direction="up"))
        for vertex, parent in rooted.root_to_leaf():
            if parent is None:
                continue
            steps.append(ReductionStep(target=vertex, source=parent,
                                       separator=frozenset(vertex & parent), direction="down"))
        return cls(rooted=rooted, steps=tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def with_cost_order(self, estimates: Mapping[Edge, float]) -> "FullReducer":
        """The same program with sibling semijoins ordered smallest-estimated-first.

        ``estimates`` maps join-tree vertices to estimated (reduced)
        cardinalities, e.g. :attr:`CostAnnotation.reduced_estimates
        <repro.engine.catalog.CostAnnotation.reduced_estimates>`.  In both
        passes each parent's sibling steps run in ascending estimate order,
        so the cheapest (and usually most selective) semijoin shrinks the
        shared target first and later probes scan fewer rows.  The regrouping
        keeps every dependency of the two-pass discipline: a parent absorbs a
        child only after the child absorbed its own subtree, and a child is
        re-reduced only after its parent was.
        """
        def rank(vertex: Edge) -> Tuple:
            return (estimates.get(vertex, float("inf")),
                    tuple(sorted_nodes(vertex)))

        steps: List[ReductionStep] = []
        for vertex, _parent in self.rooted.leaf_to_root():
            for child in sorted(self.rooted.children_of(vertex), key=rank):
                steps.append(ReductionStep(target=vertex, source=child,
                                           separator=frozenset(child & vertex),
                                           direction="up"))
        for vertex, _parent in self.rooted.root_to_leaf():
            for child in sorted(self.rooted.children_of(vertex), key=rank):
                steps.append(ReductionStep(target=child, source=vertex,
                                           separator=frozenset(child & vertex),
                                           direction="down"))
        return FullReducer(rooted=self.rooted, steps=tuple(steps))

    def describe(self) -> str:
        """A multi-line listing of the compiled program."""
        if not self.steps:
            return "(empty full reducer)"
        return "\n".join(f"{index + 1:3d}. [{step.direction:4s}] {step.describe()}"
                         for index, step in enumerate(self.steps))

    def run_blocks(self, blocks: Mapping[Edge, "ColumnBlock"], *,
                   trace: Optional[ReductionTrace] = None,
                   check_hook: Optional[CheckHook] = None) -> VertexMap:
        """Apply the program to a vertex → :class:`ColumnBlock` map; return the reduced map.

        The input map must have one block per join-tree vertex.  The steps
        replay the reducer compiled to slots
        (:class:`~repro.engine.columnar.executor.ReductionProgram`, per
        call): every step is the whole-block semijoin, filtering
        is pure selection-vector work, so fixpoint steps allocate nothing.
        When any vertex becomes empty, every vertex of its tree component is
        emptied immediately (the join is empty; nothing downstream can
        survive) and the remaining steps of that component are skipped.
        Without a ``check_hook`` the program's proof-of-reduction pairs run.
        """
        # Deferred: the columnar layer imports this module.
        from .columnar.buffers import active_column_backend
        from .columnar.executor import ReductionProgram, reduce_slots
        from .columnar.kernels import check_one_generation

        program = ReductionProgram(self.rooted, self.steps)
        current = [blocks[vertex] for vertex in program.vertices]
        check_one_generation(current)
        reduce_slots(program, current, active_column_backend(), current_tracer(),
                     trace=trace, verify=check_hook is None, check_hook=check_hook)
        reduced = dict(blocks)
        reduced.update(zip(program.vertices, current))
        return reduced

