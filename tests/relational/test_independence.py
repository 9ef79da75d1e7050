"""``repro.relational`` is an independent oracle: it runs without any engine code.

The engine's differential tests compare its answers with
:func:`~repro.relational.yannakakis_join` and
:func:`~repro.relational.naive_join`.  That comparison only witnesses
something if the reference shares no code with the engine.  One test runs
the reference in a fresh interpreter and checks that no ``repro.engine``
module was ever imported; the other reads every module of the package and
checks that none names ``repro.engine`` in any import statement, including
the function-local ones a run may never reach.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_PROGRAM = """
import json, sys
from repro.generators import chain_hypergraph, generate_database
from repro.relational import DatabaseSchema, join_all, naive_join, yannakakis_join

database = generate_database(DatabaseSchema.from_hypergraph(chain_hypergraph(4)),
                             universe_rows=40, domain_size=6,
                             dangling_fraction=0.3, seed=3)
reduced = yannakakis_join(database, ("C0", "C4")).relation
naive = naive_join(database, ("C0", "C4"))[0]
full = join_all(database.relations())
print(json.dumps({
    "agree": reduced == naive,
    "rows": len(full),
    "engine_modules": sorted(name for name in sys.modules
                             if name == "repro.engine" or name.startswith("repro.engine.")),
}))
"""


def test_the_reference_joins_load_no_engine_module():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), environment.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", _PROGRAM], env=environment,
                               capture_output=True, text=True, check=True,
                               timeout=120)
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["agree"]
    assert report["rows"] > 0
    assert report["engine_modules"] == []


class _ImportScanner(ast.NodeVisitor):
    """Collect ``(enclosing qualname, absolute module)`` for every import.

    Function-local imports count: they are exactly the ones a run of the
    oracle may never reach, so only reading the source finds them.
    """

    def __init__(self, package):
        self.package = package
        self.scope = []
        self.found = []

    def _visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def _record(self, module):
        self.found.append((".".join(self.scope) or "<module>", module))

    def visit_Import(self, node):
        for alias in node.names:
            self._record(alias.name)

    def visit_ImportFrom(self, node):
        base = self.package[:len(self.package) - node.level + 1] \
            if node.level else ()
        prefix = ".".join(base + tuple(filter(None, [node.module])))
        self._record(prefix)
        for alias in node.names:
            self._record(f"{prefix}.{alias.name}")


def _engine_imports():
    """``(file, enclosing qualname)`` of every ``repro.engine`` import in the package."""
    found = set()
    for path in sorted((_SRC / "repro" / "relational").rglob("*.py")):
        # A module's own package, also for ``__init__.py``: its directory.
        scanner = _ImportScanner(path.relative_to(_SRC).parent.parts)
        scanner.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update((path.name, scope) for scope, module in scanner.found
                     if module == "repro.engine"
                     or module.startswith("repro.engine."))
    return found


#: The two adapters from the relational data model *into* the engine, neither
#: reached by the reference joins: the statistics catalog a database measures
#: for the planner, and the maximal-object window, which runs its per-object
#: joins on an engine session.
_ENGINE_ADAPTERS = {
    ("database.py", "Database.statistics_catalog"),
    ("maximal_objects.py", "MaximalObjectInterface._engine_session"),
}


def test_only_the_engine_adapters_import_the_engine():
    assert _engine_imports() == _ENGINE_ADAPTERS
