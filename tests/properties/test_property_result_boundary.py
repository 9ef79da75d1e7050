"""Property tests for the result boundary: one bulk gather, three row-at-a-time oracles.

Answers leave the engine through :meth:`ColumnBlock._gathered_values` — each
decoded column indexed by the whole selection vector, the columns zipped — in
two shapes: :meth:`ColumnBlock.iter_rows` (plain tuples; what the query
service serialises) and :meth:`ColumnBlock.to_relation` (``Row`` s in a
``Relation``).  Neither runs any per-row Python of its own, so each is held to
an oracle that does nothing *but* per-row, per-cell Python:

(i)   the service document built from the block equals, as ``json.dumps``
      text, the ``repro.relational`` answer serialised row by row with
      ``row[a]`` and the ``repr`` sort;
(ii)  ``block.to_relation(n)`` equals ``Row({a: block.value_at(a, p)})`` per
      selected position — name, attribute order and every row's canonical
      key order included;
(iii) ``list(block.iter_rows())`` equals ``block.row_values(p)`` per selected
      position, under a selection and without.

The databases are hostile on purpose: ``None``, values that collide under
``==`` (``1`` / ``1.0`` / ``True``, ``0`` / ``False``), ``str`` and ``int``
mixed in one column, attribute names whose canonical order differs from the
schema's column order, 0-ary outputs and empty answers.  A mutant gather that
swaps two columns must fail all three.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nodes import sorted_nodes
from repro.engine import EngineSession
from repro.engine.columnar import ColumnBlock, block_for, current_interner
from repro.generators import skewed_chain_database, skewed_chain_endpoints
from repro.relational import (
    Database,
    DatabaseSchema,
    Relation,
    Row,
    naive_join,
    yannakakis_join,
)
from repro.service import QueryService

from .strategies import (
    fresh_block,
    skewed_acyclic_databases,
    skewed_cyclic_databases,
)

COMMON_SETTINGS = settings(max_examples=20, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

#: Replacement values: ``None``, three spellings of one and two of zero (equal
#: under ``==``, different as JSON), and ``str`` next to ``int`` and ``float``.
HOSTILE_VALUES = (None, 1, 1.0, True, 0, False, "1", "a", 2, 2.5, "", -1,
                  "None")

#: Attribute renames under which canonical (lexicographic) order is neither
#: the generators' order nor the schemas' reversed column order.
HOSTILE_NAMES = {"A": "z1", "B": "a10", "C": "a9", "D": "B", "E": "_e",
                 "F": "É", "G": "a"}


def hostile_copy(database: Database, seed: int, *, empty_one: bool) -> Database:
    """The same join structure over renamed, reversed columns and hostile values.

    About two thirds of the distinct values are replaced by a random
    :data:`HOSTILE_VALUES` entry (so formerly distinct values may now join),
    every relation lists its attributes in reverse, and ``empty_one`` empties
    the first relation, which makes every answer empty (0-ary: false).
    """
    rng = random.Random(seed)
    replaced = {}

    def value(original):
        if original not in replaced:
            replaced[original] = rng.choice(HOSTILE_VALUES) \
                if rng.random() < 0.67 else original
        return replaced[original]

    columns, rows = {}, {}
    for index, relation in enumerate(database.relations()):
        attributes = relation.schema.attributes
        columns[relation.name] = tuple(HOSTILE_NAMES.get(attribute, attribute)
                                       for attribute in reversed(attributes))
        rows[relation.name] = [] if empty_one and index == 0 else [
            {HOSTILE_NAMES.get(attribute, attribute): value(row[attribute])
             for attribute in attributes}
            for row in sorted(relation.rows, key=repr)]
    return Database.from_rows(DatabaseSchema.from_dict(columns), rows)


@st.composite
def hostile_queries(draw, databases):
    """A hostile database plus output attributes (``None`` = all, ``()`` = 0-ary).

    Everything but the database is derived from one drawn seed, so emptied
    inputs, 0-ary outputs and wide projections all stay frequent instead of
    shrinking towards the smallest case.
    """
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    database = hostile_copy(draw(databases), seed,
                            empty_one=rng.random() < 0.15)
    attributes = sorted_nodes(database.schema.attributes)
    width = rng.choice((None, 0, 1, 2, 3))
    if width is None:
        return database, None
    return database, tuple(rng.sample(attributes, min(width, len(attributes))))


# --------------------------------------------------------------------------- #
# The oracles
# --------------------------------------------------------------------------- #
def wire_oracle(name: str, answer: Relation) -> str:
    """The ``relation`` document of ``answer``, serialised row by row.

    Values equal under ``==`` share one interned id, and the engine answers
    with the spelling it interned first (``1`` for a later ``True``); the
    reference keeps whichever spelling its join order met.  The document
    contract is the engine's spelling, so the oracle reads each cell's through
    the interner's own ``encode`` / ``decode`` — not through the gather.
    """
    interner = current_interner()
    columns = sorted_nodes(answer.schema.attribute_set)
    rows = [[interner.decode(interner.encode([row[attribute]]))[0]
             for attribute in columns] for row in answer.rows]
    rows.sort(key=repr)
    return json.dumps({"name": name,
                       "columns": [str(attribute) for attribute in columns],
                       "rows": rows, "row_count": len(rows)})


def check_wire_document(database: Database, outputs, answer: Relation) -> None:
    """(i) — and the row count, and that ``include_rows=false`` agrees."""
    service = QueryService(EngineSession())
    try:
        service.add_database("db", database)

        def call(method, **params):
            status, envelope = service.handle(
                {"version": 1, "method": method, "client": "oracle", "id": "r",
                 "params": params})
            assert status == 200, envelope
            return envelope["result"]

        prepare = {"database": "db", "name": "answer"}
        if outputs is not None:
            prepare["outputs"] = list(outputs)
        handle = call("prepare", **prepare)["query"]
        result = call("execute", query=handle, database="db")
        assert json.dumps(result["relation"]) == wire_oracle("answer", answer)
        assert result["row_count"] == len(answer)
        bare = call("execute", query=handle, database="db", include_rows=False)
        assert "relation" not in bare and bare["row_count"] == len(answer)
        batch = call("execute_many", query=handle, databases=["db", "db"],
                     include_rows=True)
        assert batch["relations"] == [result["relation"]] * 2
    finally:
        service.pool.shutdown(wait=True)


def check_to_relation(block: ColumnBlock, name: str) -> None:
    """(ii): the C-level assembly against one ``Row({...})`` per position."""
    expected = frozenset(
        Row({attribute: block.value_at(attribute, position)
             for attribute in block.attributes})
        for position in block.positions)
    relation = block.to_relation(name)
    assert relation.name == name
    assert relation.attributes == block.attributes
    assert relation.rows == expected
    # Equal rows may still spell a value differently (1 / True) or hold their
    # items in another order; ``repr`` shows both.
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, expected))
    canonical = sorted_nodes(block.attributes)
    assert all(tuple(row) == canonical for row in relation.rows)


def check_iter_rows(block: ColumnBlock) -> None:
    """(iii): the zipped gather against one ``row_values`` per position."""
    assert list(block.iter_rows()) \
        == [block.row_values(position) for position in block.positions]


def boundary_blocks(database: Database, outputs, seed: int):
    """Blocks the boundary meets: results, base blocks, selected, permuted, 0-ary."""
    rng = random.Random(seed)
    result = EngineSession(decode="block").prepare(
        database, outputs).execute(database)
    blocks = [result.block]
    for relation in database.relations():
        block = block_for(relation)
        positions = list(block.positions)
        chosen = rng.sample(positions, len(positions) // 2)
        blocks += [block,
                   block.select(chosen),
                   block.select(chosen + chosen[:2]),        # repeated positions
                   block.with_column_order(sorted_nodes(block.attributes)),
                   block.project_onto(block.attributes[:1]).select(chosen),
                   block.project_onto(()),
                   block.empty()]
    return blocks


# --------------------------------------------------------------------------- #
# The properties
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@COMMON_SETTINGS
@given(query=hostile_queries(skewed_acyclic_databases()))
def test_acyclic_wire_document_equals_the_row_by_row_oracle(query):
    database, outputs = query
    check_wire_document(database, outputs,
                        yannakakis_join(database, outputs).relation)


@pytest.mark.slow
@COMMON_SETTINGS
@given(query=hostile_queries(skewed_cyclic_databases()))
def test_cyclic_wire_document_equals_the_row_by_row_oracle(query):
    database, outputs = query
    check_wire_document(database, outputs, naive_join(database, outputs)[0])


@pytest.mark.slow
@COMMON_SETTINGS
@given(query=hostile_queries(st.one_of(skewed_acyclic_databases(),
                                       skewed_cyclic_databases())),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_block_views_equal_their_per_position_oracles(query, seed):
    database, outputs = query
    for block in boundary_blocks(database, outputs, seed):
        check_to_relation(block, "decoded")
        check_iter_rows(block)


# --------------------------------------------------------------------------- #
# The oracles have teeth
# --------------------------------------------------------------------------- #
def test_a_column_swapping_gather_fails_all_three(monkeypatch):
    database = skewed_chain_database(3, heads=4, fanout=3, junction_values=2,
                                     seed=1)
    outputs = skewed_chain_endpoints(3)
    answer = yannakakis_join(database, outputs).relation
    block = EngineSession(decode="block").prepare(
        database, outputs).execute(database).block
    check_wire_document(database, outputs, answer)
    check_to_relation(block, "decoded")
    check_iter_rows(block)
    # ``block`` has its relation memoised by now; the block of a value-equal
    # new relation is a fresh storage, so its decode runs the gather.
    unmemoised = fresh_block(block)

    gather = ColumnBlock._gathered_values
    monkeypatch.setattr(
        ColumnBlock, "_gathered_values",
        lambda self, attributes: gather(self, attributes)[::-1])
    # ``database``'s answer has its wire rows memoised by now; a value-equal
    # copy is fresh storage, so its payload runs the (mutant) gather.
    fresh = skewed_chain_database(3, heads=4, fanout=3, junction_values=2,
                                  seed=1)
    with pytest.raises(AssertionError):
        check_wire_document(fresh, outputs, answer)
    assert unmemoised.peek_relation("decoded") is None
    with pytest.raises(AssertionError):
        check_to_relation(unmemoised, "decoded")
    with pytest.raises(AssertionError):
        check_iter_rows(block)
