"""Inputs, reference answers and the four single-client workloads.

Everything the program under test receives is generated here from ``--seed``
by :mod:`repro.generators`; the workloads only ever hand it the generated
objects.  The end-to-end pass touches the program through ``EngineSession``,
``PreparedQuery.execute``, ``Database``, ``Relation`` and ``ServiceClient``
alone (plus the two cache-clearing hooks the cold tier needs, resolved by
name so a later deletion cannot break the run).
"""

from __future__ import annotations

import importlib
import itertools
import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineSession
from repro.generators import (
    cyclic_workload_families,
    generate_database,
    k_cycle_hypergraph,
    skewed_chain_database,
    skewed_chain_endpoints,
    triangle_core_chain,
)
from repro.relational import naive_join, yannakakis_join
from repro.relational.database import Database
from repro.relational.relation import Relation, Row
from repro.relational.schema import DatabaseSchema
from repro.service import ServiceClient

from metrics import CLASSES

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
PORT_FILE = WORK_DIR / "server.json"

#: The run length the full-scale operation counts below are sized for; must
#: equal ``run_seconds`` in BENCHMARK.json.  ``--seconds`` scales the counts.
RUN_SECONDS = 24

#: Operations per measured round at ``--seconds RUN_SECONDS`` (fixed counts,
#: identical on every commit, so program-side counts repeat exactly).  A run
#: is a half-size warm-up round plus ``rounds`` measured ones; the traced run
#: is a warm-up, one untraced reference round and two traced rounds of
#: ``trace_ops_per_round`` (a traced operation costs 4 to 15 untraced ones).
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "large": {"heads": 200, "fanout": 50, "universe_rows": 2000, "domain_size": 40},
        "small": {"heads": 30, "fanout": 20, "universe_rows": 100, "domain_size": 8},
        "ops_per_round": {"hot_repeat": 900, "fresh_data": 76,
                          "cold_adhoc": 240, "service_serial": 400},
        "trace_ops_per_round": {"hot_repeat": 110, "fresh_data": 40,
                                "cold_adhoc": 60, "service_serial": 120},
        "rounds": 5,
        "setup_repeats": 5,
    },
    "smoke": {
        "large": {"heads": 12, "fanout": 6, "universe_rows": 60, "domain_size": 8},
        "small": {"heads": 6, "fanout": 4, "universe_rows": 30, "domain_size": 6},
        "ops_per_round": {"hot_repeat": 20, "fresh_data": 10,
                          "cold_adhoc": 10, "service_serial": 10},
        "trace_ops_per_round": {"hot_repeat": 4, "fresh_data": 4,
                                "cold_adhoc": 10, "service_serial": 4},
        "rounds": 2,
        "setup_repeats": 1,
    },
}


def _optional(module: str, name: str) -> Callable[[], None]:
    """A callable from the program by name; a no-op when it no longer exists."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        print(f"notice: {module}.{name} is missing; skipping it", file=sys.stderr)
        return lambda: None


clear_column_caches = _optional("repro.engine", "clear_column_caches")
clear_index_cache = _optional("repro.engine", "clear_index_cache")


def clear_engine_caches() -> None:
    """Drop every process-wide engine cache and start a fresh interner."""
    clear_column_caches()
    clear_index_cache()


# --------------------------------------------------------------------------- #
# Inputs and reference answers
# --------------------------------------------------------------------------- #
@dataclass
class Query:
    """One (database, output attributes) pair plus its checked answer."""

    name: str                      # also the database's name on the server
    klass: str                     # "acyclic" (join-tree path) | "cyclic" (cluster cover)
    database: Database
    outputs: Tuple[str, ...]
    reference: str                 # which independent implementation checks it
    expected: Optional[Relation] = None
    _wire: Dict[Tuple[str, ...], frozenset] = field(default_factory=dict)

    def wire_rows(self, columns: Sequence[str]) -> frozenset:
        """The expected answer as value tuples in the server's column order."""
        key = tuple(columns)
        if key not in self._wire:
            self._wire[key] = frozenset(tuple(row[column] for column in key)
                                        for row in self.expected.rows)
        return self._wire[key]


_fresh_counter = itertools.count()


def fresh_relation(relation: Relation) -> Relation:
    """The relation's rows plus one new dangling row, in a new ``Relation``.

    The engine's block cache looks relations up by *value*, so a new object
    over the very same rows would still be a cache hit; one row whose values
    occur nowhere else (and therefore joins nothing and changes no answer)
    makes the relation one the engine has never seen.
    """
    tag = next(_fresh_counter)
    dangling = Row({attribute: f"fresh-{tag}-{attribute}"
                    for attribute in relation.schema.attributes})
    return Relation.from_valid_rows(relation.schema, relation.rows | {dangling})


def fresh_copy(database: Database) -> Database:
    """A ``Database`` the engine has never seen, with the same join answers."""
    return Database(database.schema, {relation.name: fresh_relation(relation)
                                      for relation in database.relations()})


#: The seed the generators run with.  ``--seed`` relabels the values instead
#: (see :func:`relabelled`): the clusters of the large cyclic instance are
#: within 1 % of each other in size, so regenerating it per seed flips the
#: cost-chosen rooting and with it the hot cyclic latency by 25 % — input
#: variation the run-to-run comparison would read as noise.
STRUCTURE_SEED = 1


def relabelled(database: Database, seed: int) -> Database:
    """An isomorphic copy of ``database`` whose every value carries the seed.

    Cardinalities, distinct counts and therefore every plan choice are those
    of the original; hashes, set orders and interned ids are the seed's own.
    """
    return Database.from_rows(database.schema, {
        relation.name: [{attribute: f"{row[attribute]}/{seed}"
                         for attribute in relation.schema.attributes}
                        for row in relation.rows]
        for relation in database.relations()})


def _chain_database(length: int, sizes: Dict[str, int]) -> Database:
    return skewed_chain_database(length, heads=sizes["heads"], fanout=sizes["fanout"],
                                 junction_values=4, seed=STRUCTURE_SEED)


def _cyclic_database(hypergraph, sizes: Dict[str, int]) -> Database:
    return generate_database(DatabaseSchema.from_hypergraph(hypergraph),
                             universe_rows=sizes["universe_rows"],
                             domain_size=sizes["domain_size"],
                             dangling_fraction=0.5, seed=STRUCTURE_SEED + 3)


def build_queries(workload: str, seed: int, scale: str) -> List[Query]:
    """The workload's inputs: two large queries, or the ten small shapes."""
    spec = SCALES[scale]
    if workload != "cold_adhoc":
        sizes = spec["large"]
        shapes = [("acyclic_large", "acyclic", _chain_database(8, sizes),
                   skewed_chain_endpoints(8), "yannakakis"),
                  ("cyclic_large", "cyclic",
                   _cyclic_database(triangle_core_chain(4), sizes),
                   ("C0", "C5"), "engine-array")]
    else:
        sizes = spec["small"]
        # Five shapes per class, not four: with an odd count the class p50 is
        # the median of the middle shape and p75 falls inside the fourth; with
        # four, p50 would sit on the gap between two shapes and jump between
        # them.
        shapes = [(f"chain{length}", "acyclic", _chain_database(length, sizes),
                   skewed_chain_endpoints(length), "yannakakis")
                  for length in (4, 6, 8, 10, 12)]
        families = cyclic_workload_families(chain_length=4) \
            + (("4-cycle", k_cycle_hypergraph(4)),)
        for name, hypergraph in families:
            database = _cyclic_database(hypergraph, sizes)
            attributes = sorted(str(attribute) for attribute in database.schema.attributes)
            # naive_join needs 17 s and 500 MB for the ten-relation clique-chain.
            shapes.append((name, "cyclic", database, (attributes[0], attributes[-1]),
                           "engine-array" if name == "clique-chain" else "naive"))
    return [Query(name, klass, relabelled(database, seed), tuple(outputs), reference)
            for name, klass, database, outputs, reference in shapes]


def attach_expected(queries: Sequence[Query]) -> None:
    """Compute every query's answer with an implementation the run does not time.

    ``repro.relational`` is the reference implementation.  ``naive_join`` does
    not finish on the large triangle-chain instance (nor, in reasonable time,
    on the small clique-chain), so those are answered by a second engine
    configuration (pure-python array backend, static plan) instead of the
    default one the workloads exercise.
    """
    for query in queries:
        if query.reference == "yannakakis":
            query.expected = yannakakis_join(query.database, query.outputs).relation
        elif query.reference == "naive":
            query.expected = naive_join(query.database, query.outputs)[0]
        else:
            session = EngineSession(column_backend="array", adaptive=False)
            query.expected = session.prepare(
                query.database, query.outputs).execute(query.database).relation
    clear_engine_caches()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Workload:
    """One situation a caller pays for; operations alternate acyclic, cyclic."""

    name = ""
    tier = ""        # which staged layers explain one of its operations
    why = ""
    in_process = True

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = list(queries)
        self.session: Optional[EngineSession] = None
        self.by_class = {klass: [q for q in self.queries if q.klass == klass]
                         for klass in CLASSES}
        self.cycle = 2 * len(self.by_class["acyclic"])

    def warm_up(self, operations: int) -> int:
        """The size of the discarded warm-up round: half a round, whole cycles."""
        return max(self.cycle, operations // 2 // self.cycle * self.cycle)

    def query_at(self, index: int) -> Query:
        members = self.by_class[CLASSES[index % 2]]
        return members[(index // 2) % len(members)]

    def setup(self) -> float:
        """One timed set-up; leaves the state the rounds run against."""
        raise NotImplementedError

    def database_for(self, query: Query) -> Database:
        """The database the next operation on ``query`` sees (untimed)."""
        raise NotImplementedError

    def operation(self, query: Query, database: Database) -> Callable[[], Any]:
        """The timed call of one operation on ``query`` against ``database``."""
        raise NotImplementedError

    def matches(self, query: Query, outcome: Any) -> bool:
        return outcome.relation == query.expected

    def planner_misses(self) -> int:
        """Plans the in-process session has compiled so far (0 without one)."""
        return 0 if self.session is None else self.session.cache_info().misses

    def server(self) -> Optional["ServerChild"]:
        return None

    def close(self) -> None:
        pass


class _PreparedWorkload(Workload):
    """One long-lived session with both large queries prepared."""

    def setup(self) -> float:
        clear_engine_caches()
        self.live = {query.name: fresh_copy(query.database) for query in self.queries}
        started = time.perf_counter()
        self.session = EngineSession()
        self.prepared = {}
        for query in self.queries:
            database = self.live[query.name]
            prepared = self.session.prepare(database, query.outputs)
            prepared.execute(database)
            self.prepared[query.name] = prepared
        return time.perf_counter() - started

    def operation(self, query: Query, database: Database) -> Callable[[], Any]:
        prepared = self.prepared[query.name]
        return lambda: prepared.execute(database)


class HotRepeat(_PreparedWorkload):
    name = "hot_repeat"
    tier = "hot"
    why = ("same two prepared queries on the same two Database objects: every cache hits, "
           "leaving the session facade, cache lookups, metrics recording and result boundary")

    def database_for(self, query: Query) -> Database:
        return self.live[query.name]


class FreshData(_PreparedWorkload):
    name = "fresh_data"
    tier = "fresh"
    why = ("same prepared queries, every call on a never-seen Database: the plan is reused "
           "while catalog, annotate, encode, reduce, fold, materialise and decode all run")

    def database_for(self, query: Query) -> Database:
        return fresh_copy(query.database)


class ColdAdhoc(Workload):
    name = "cold_adhoc"
    tier = "cold"
    why = ("new session, prepare and one execute per call over ten small shapes with all "
           "caches cleared: join-tree construction, cover search and compilation dominate")

    def setup(self) -> float:
        total = 0.0
        for query in self.queries:
            call = self.operation(query, self.database_for(query))
            started = time.perf_counter()
            call()
            total += time.perf_counter() - started
        return total

    def database_for(self, query: Query) -> Database:
        clear_engine_caches()
        return fresh_copy(query.database)

    def operation(self, query: Query, database: Database) -> Callable[[], Any]:
        self.session = None

        def call() -> Any:
            self.session = EngineSession()
            return self.session.prepare(database, query.outputs).execute(database)
        return call


class ServiceSerial(Workload):
    name = "service_serial"
    tier = "hot"
    in_process = False
    why = ("one keep-alive client against a server child whose engine is hot: what is "
           "left over hot_repeat is HTTP, JSON, admission, pool hop and the row payload")

    def __init__(self, queries: Sequence[Query], *, seed: int, scale: str,
                 server_cpu: Optional[int]) -> None:
        super().__init__(queries)
        self._server_arguments = (self.name, seed, scale, server_cpu)
        self.child: Optional[ServerChild] = None
        self.client: Optional[ServiceClient] = None

    def setup(self) -> float:
        self.close()
        self.child = ServerChild(*self._server_arguments)
        self.client = ServiceClient(self.child.url, client_id="bench")
        started = time.perf_counter()
        self.handles = {}
        for query in self.queries:
            handle = self.client.prepare(query.name, outputs=query.outputs)
            self.client.execute(handle, query.name, include_rows=True)
            self.handles[query.name] = handle
        return self.child.ready_s + time.perf_counter() - started

    def database_for(self, query: Query) -> Database:
        return query.database

    def operation(self, query: Query, database: Database) -> Callable[[], Any]:
        client, handle, name = self.client, self.handles[query.name], query.name
        return lambda: client.execute(handle, name, include_rows=True)

    def matches(self, query: Query, outcome: Any) -> bool:
        return wire_matches(query, outcome)

    def server(self) -> Optional["ServerChild"]:
        return self.child

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.child is not None:
            self.child.stop()
            self.child = None


def wire_matches(query: Query, response: Dict[str, Any]) -> bool:
    """Check a service ``execute`` response (rows included) against the answer."""
    relation = response["relation"]
    rows = frozenset(map(tuple, relation["rows"]))
    return (response["row_count"] == len(query.expected)
            and len(relation["rows"]) == len(rows)
            and rows == query.wire_rows(relation["columns"]))


def make_workload(name: str, queries: Sequence[Query], *, seed: int, scale: str,
                  server_cpu: Optional[int]) -> Workload:
    if name == "service_serial":
        return ServiceSerial(queries, seed=seed, scale=scale, server_cpu=server_cpu)
    return {"hot_repeat": HotRepeat, "fresh_data": FreshData,
            "cold_adhoc": ColdAdhoc}[name](queries)


# --------------------------------------------------------------------------- #
# The server child
# --------------------------------------------------------------------------- #
def _live_server_url() -> Optional[str]:
    """The url in the port file if a server still answers there."""
    try:
        url = json.loads(PORT_FILE.read_text(encoding="utf-8"))["url"]
        with urllib.request.urlopen(url + "/health", timeout=2.0) as response:
            return url if response.status == 200 else None
    except (OSError, ValueError, KeyError, urllib.error.URLError):
        return None


class ServerChild:
    """``serve.py`` in its own process, always reaped: terminate, wait, kill."""

    def __init__(self, workload: str, seed: int, scale: str, cpu: Optional[int]) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        live = _live_server_url()
        if live is not None:
            raise RuntimeError(f"a benchmark server is still live at {live} "
                               f"(port file {PORT_FILE}); stop it first")
        PORT_FILE.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "serve.py"), "--workload", workload,
                   "--seed", str(seed), "--scale", scale]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            if not line.startswith("READY "):
                raise RuntimeError(f"the server child did not come up: {line!r}")
            ready = json.loads(line[len("READY "):])
            self.url = ready["url"]
            with urllib.request.urlopen(self.url + "/health", timeout=10.0) as response:
                if response.status != 200:
                    raise RuntimeError(f"/health answered {response.status}")
        except BaseException:
            self.stop()
            raise
        # Spawn to first 200, less the input generation the child reported:
        # inputs are not part of anybody's set-up cost.
        self.ready_s = time.perf_counter() - started - ready["generation_s"]
        self.pid = self.process.pid

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        PORT_FILE.unlink(missing_ok=True)
