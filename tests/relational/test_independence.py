"""``repro.relational`` is an independent oracle: it runs without any engine code.

The engine's differential tests compare its answers with
:func:`~repro.relational.yannakakis_join` and
:func:`~repro.relational.naive_join`.  That comparison only witnesses
something if the reference shares no code with the engine, so this test runs
the reference in a fresh interpreter and checks that no ``repro.engine``
module was ever imported.
"""

from __future__ import annotations

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
