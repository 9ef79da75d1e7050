"""Every public engine, service and telemetry name has a caller outside the tests.

The system offers one way into each step.  A public top-level function or
class under ``src/repro/engine/``, ``src/repro/service/`` or
``src/repro/telemetry/``, or a public method of such a class, that nothing
in ``src/`` or ``benchmarks/e2e/`` references is a second way only the tests
walk: delete it, or list it in :data:`ALLOWED` with the reason it stays.
The paper-reproduction packages (``core``, ``relational``, ``queries`` and
the rest) are not scanned: their callers are the paper benches and readers.

A reference is matched by name: a ``Name``, an attribute, or a string that
is exactly the name (``benchmarks/e2e`` resolves its entry points by name),
outside the name's own definition and ``__all__`` lists (an ``import`` is
not a reference).  Matching by name cannot tell two methods of one name
apart, so this finds the names nothing mentions at all: the floor of the
audit, not the whole of it.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = tuple(ROOT / "src" / "repro" / name
                 for name in ("engine", "service", "telemetry"))
SCANNED = (ROOT / "src", ROOT / "benchmarks" / "e2e")

#: Public names nothing outside the tests references, and why each stays.
#: Keys are dotted from ``src/repro`` so that the three packages cannot collide.
ALLOWED: Dict[str, str] = {
    "engine.catalog.StatisticsCatalog.statistics_for":
        "the tests' identity check of a remeasured catalog's entries",
    "engine.columnar.block.ColumnBlock.from_columns":
        "builds block shapes a Relation cannot hold: duplicate rows, "
        "0-ary blocks of n rows",
    "engine.columnar.block.ColumnBlock.value_at":
        "the per-position oracle the bulk gather is tested against",
    "engine.columnar.block.ColumnBlock.row_values":
        "the per-position oracle the bulk gather is tested against",
    "engine.columnar.block.peek_block":
        "reads the block cache without counting a lookup",
    "engine.columnar.buffers.available_column_backends":
        "goes with the backend registry (ROADMAP item 2)",
    "engine.columnar.buffers.set_default_column_backend":
        "goes with the backend registry (ROADMAP item 2)",
    "engine.cyclic.covers.cover_score":
        "the tests' reference for select_cover",
    "engine.cyclic.plans.CyclicExecutionPlan.is_trivial":
        "a reading of the plan, not a way into a step",
    "engine.cyclic.plans.CyclicEngineStatistics.max_cluster_size":
        "a reading of the run's accounting; the benches print it",
    "engine.cyclic.plans.CyclicEngineStatistics.reduction_ratio":
        "a reading of the run's accounting, not a way into a step",
    "engine.cyclic.plans.CyclicEngineStatistics.savings_versus":
        "the paper-reproduction benches' engine-versus-naive figure",
    "engine.deadline.active_deadline":
        "the only exact way to observe a scope's expiry",
    "engine.deadline.remaining_seconds":
        "the only exact way to observe a scope's expiry",
    "engine.planner.EngineStatistics.max_reduced_input":
        "a reading of the run's accounting; the benches print it",
    "engine.planner.EngineStatistics.reduction_ratio":
        "a reading of the run's accounting, not a way into a step",
    "engine.reducer.ReductionTrace.reduction_ratio":
        "a reading of the run's accounting, not a way into a step",
    "telemetry.tracing.span_totals":
        "the per-name roll-up examples/observability_quickstart.py prints",
}


def _public_definitions(path: Path) -> Iterator[Tuple[str, ast.AST]]:
    """``(dotted name, node)`` for each public top-level def and public method."""
    module = ".".join(path.relative_to(PACKAGES[0].parent).with_suffix("").parts)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references() -> Dict[str, List[Tuple[Path, int]]]:
    """Every name referenced in the scanned trees, with where (file, line)."""
    found: Dict[str, List[Tuple[Path, int]]] = {}
    for tree in SCANNED:
        for path in sorted(tree.rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            exports: Set[int] = set()
            for node in ast.walk(module):
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AugAssign) else []
                if any(isinstance(target, ast.Name) and target.id == "__all__"
                       for target in targets):
                    exports.update(id(sub) for sub in ast.walk(node.value))
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier() and id(node) not in exports:
                    name = node.value
                else:
                    continue
                found.setdefault(name, []).append((path, node.lineno))
    return found


@lru_cache(maxsize=None)
def _uncalled() -> FrozenSet[str]:
    """The public scanned names with no reference outside their own definition."""
    references = _references()
    uncalled = set()
    for path in sorted(path for package in PACKAGES for path in package.rglob("*.py")):
        for dotted, node in _public_definitions(path):
            name = dotted.rsplit(".", 1)[-1]
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in references.get(name, ())):
                uncalled.add(dotted)
    return frozenset(uncalled)


def test_every_public_name_has_a_caller_outside_the_tests():
    unexplained = sorted(_uncalled() - set(ALLOWED))
    assert not unexplained, (
        "public names only tests call; delete them or add them to "
        f"ALLOWED with a reason: {unexplained}")


def test_every_allowlist_entry_is_an_uncalled_public_name():
    # A name that gained a caller, or is gone, leaves the list.
    assert sorted(set(ALLOWED) - _uncalled()) == []
