"""The traced run: harness-side spans, a staged replay of every operation, layer probes.

Spans are recorded here, around calls into the program's public functions;
nothing inside the program is instrumented.  Each traced operation is

1. the workload's real call under an ``op`` span;
2. a *staged replay* of the same operation on the next database the workload
   would hand out (a never-seen copy on the fresh and cold tiers): catalog ->
   plan / annotate -> encode -> (materialise) -> reduce -> fold -> decode, one
   span per layer, whose answer must equal the real call's;
3. direct probes of layers the replay does not isolate (kernels, cover
   search, the monitor) and the service chain: parse -> admit -> pool hop ->
   in-process ``handle`` -> ``json.dumps`` -> ``ServiceClient.execute``.

A layer's entry points are resolved by name once; a layer whose function is
gone is reported as ``MISSING`` with a notice instead of failing the run.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine import EngineSession
from repro.relational.relation import Relation
from repro.service import ServiceClient

from metrics import CLASSES, MISSING, PER_LAYER, median
from workloads import Query, ServerChild, Workload, fresh_relation, wire_matches

#: The staged layers that explain one engine call, per workload tier.  On the
#: hot tier the stages are replayed on the same (cached) database; the engine
#: memoises the binding and the materialised clusters there, so what the
#: reduce, fold and decode stages leave over is facade plus cache lookups.
_HOT = ("engine.reducer.reduce", "engine.yannakakis.fold", "engine.yannakakis.decode")
_FRESH = ("engine.catalog.measure", "engine.planner.annotate",
          "engine.columnar.block.encode", "engine.cyclic.quotient.materialise") + _HOT
EXPLAINED_BY = {"hot": _HOT, "fresh": _FRESH,
                "cold": ("engine.session.prepare",) + _FRESH}


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class Spans:
    """``{name, start, end, parent, op}`` records, kept in memory until the end."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._open: List[int] = []
        self.op = -1
        self.enabled = True

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.records))
        self.records.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval as a child of the open span."""
        if self.enabled:
            self.records.append([name, start, end,
                                 self._open[-1] if self._open else None, self.op])

    def self_ms(self) -> Dict[Tuple[int, str], float]:
        """Self time per (operation, span name): duration minus the children's."""
        durations = [record[2] - record[1] for record in self.records]
        own = list(durations)
        for index, record in enumerate(self.records):
            if record[3] is not None:
                own[record[3]] -= durations[index]
        totals: Dict[Tuple[int, str], float] = defaultdict(float)
        for index, record in enumerate(self.records):
            totals[(record[4], record[0])] += own[index] * 1e3
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.records:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
class EntryPoints:
    """The program functions the probes call, resolved by name at start-up."""

    _NAMES = {
        "QueryPlanner": "repro.engine",
        "annotate_plan": "repro.engine",
        "block_for": "repro.engine",
        "column_cache_info": "repro.engine",
        "semijoin_blocks": "repro.engine",
        "natural_join_blocks": "repro.engine",
        "ReductionTrace": "repro.engine",
        "enumerate_covers": "repro.engine",
        "vertex_blocks": "repro.engine.columnar",
        "run_columnar_plan": "repro.engine.columnar",
        "catalog_from_blocks": "repro.engine.columnar",
        "current_interner": "repro.engine.columnar",
        "resolve_column_backend": "repro.engine.columnar",
        "use_column_backend": "repro.engine.columnar",
        "materialise_cluster_blocks": "repro.engine.cyclic.quotient",
        "parse_request": "repro.service",
        "AdmissionController": "repro.service",
        "ExecutionPool": "repro.service",
        "QueryService": "repro.service",
    }

    def __init__(self) -> None:
        for name, module in self._NAMES.items():
            try:
                value = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError):
                print(f"notice: {module}.{name} is missing; the layer metrics that "
                      f"need it are reported as {MISSING}", file=sys.stderr)
                value = None
            setattr(self, name, value)

    def has(self, *names: str) -> bool:
        return all(getattr(self, name) is not None for name in names)


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #
class TracedRun:
    """One warm-up, one untraced reference round and the traced rounds of a workload."""

    def __init__(self, workload: Workload, *, seed: int, scale: str,
                 server_cpu: Optional[int]) -> None:
        self.workload = workload
        self.tier = workload.tier
        self.spans = Spans()
        self.entry = EntryPoints()
        self.klass_of: Dict[int, str] = {}
        self.values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        self.untraced_ms: Dict[str, List[float]] = {klass: [] for klass in CLASSES}
        self.attempted = 0
        self.failed = 0
        self._seen: Dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)
        self._kernel_pairs: Dict[str, Optional[Tuple[Relation, Relation]]] = {}

        entry = self.entry
        self.engine_replay = entry.has(
            "QueryPlanner", "annotate_plan", "vertex_blocks", "run_columnar_plan",
            "catalog_from_blocks", "materialise_cluster_blocks", "ReductionTrace",
            "resolve_column_backend", "use_column_backend")
        self.kernels = entry.has("block_for", "semijoin_blocks", "natural_join_blocks",
                                 "resolve_column_backend", "use_column_backend")

        # Two in-process sessions over the workload's own databases: a plain
        # one the staged replay annotates against, and a monitored one behind
        # a transport-free QueryService (the service chain's reference).
        self.plain = EngineSession()
        self.monitored = EngineSession(monitor=True)
        self.plain_prepared = {}
        self.monitored_prepared = {}
        for query in workload.queries:
            for session, prepared in ((self.plain, self.plain_prepared),
                                      (self.monitored, self.monitored_prepared)):
                prepared[query.name] = session.prepare(query.database, query.outputs)
                prepared[query.name].execute(query.database)

        self.local = None
        self.local_handles: Dict[str, str] = {}
        if entry.has("QueryService"):
            self.local = entry.QueryService(self.monitored)
            for query in workload.queries:
                self.local.add_database(query.name, query.database)
                _, envelope = self.local.handle(self._document(
                    "prepare", {"database": query.name, "outputs": list(query.outputs)}))
                self.local_handles[query.name] = envelope["result"]["query"]
        self.admission = entry.AdmissionController() if entry.AdmissionController else None
        self.pool = entry.ExecutionPool(max_workers=1) if entry.ExecutionPool else None

        # Last, so that nothing above can fail with a server child running.
        self.own_server: Optional[ServerChild] = None
        server = workload.server()
        if server is None:
            server = self.own_server = ServerChild(workload.name, seed, scale, server_cpu)
        self.client = ServiceClient(server.url, client_id="probe")
        try:
            self.handles = {query.name: self.client.prepare(query.name, outputs=query.outputs)
                            for query in workload.queries}
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.client.close()
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        if self.local is not None:
            self.local.pool.shutdown(wait=True)
        if self.own_server is not None:
            self.own_server.stop()

    @staticmethod
    def _document(method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"version": 1, "method": method, "client": "probe", "id": "probe-1",
                "params": params}

    def _note(self, name: str, klass: str, value: float) -> None:
        self.values[name][klass].append(value)

    # ------------------------------------------------------------------ #
    # Rounds
    # ------------------------------------------------------------------ #
    def run(self, operations: int, rounds: int) -> None:
        """Warm-up (traced, discarded), an untraced reference round, the traced rounds."""
        warm_up = self.workload.warm_up(operations)
        self.run_round(0, warm_up, traced=True)
        self.spans.records.clear()
        self.values.clear()
        self.run_round(warm_up, operations, traced=False)
        for index in range(rounds):
            self.run_round(warm_up + (index + 1) * operations, operations, traced=True)

    def run_round(self, first: int, operations: int, *, traced: bool) -> None:
        gc.collect()
        self.spans.enabled = traced
        for index in range(first, first + operations):
            query = self.workload.query_at(index)
            self.spans.op = index
            self.klass_of[index] = query.klass
            self._operation(index, query, traced)

    def _operation(self, index: int, query: Query, traced: bool) -> None:
        workload, spans = self.workload, self.spans
        database = workload.database_for(query)
        call = workload.operation(query, database)
        in_process = workload.in_process
        if in_process:
            counters = self._counters()
        self.attempted += 1
        started = perf_counter()
        try:
            with spans.span("op"):
                outcome = call()
            elapsed_ms = (perf_counter() - started) * 1e3
            correct = workload.matches(query, outcome)
        except Exception as error:  # noqa: BLE001 - a failed operation, counted
            print(f"operation {index} failed: {type(error).__name__}: {error}",
                  file=sys.stderr)
            correct = False
        if not correct:
            self.failed += 1
            return
        if not traced:
            self.untraced_ms[query.klass].append(elapsed_ms)
            return
        if in_process:
            result = outcome
        else:
            # The engine behind the service is hot; its in-process twin is an
            # execute on the plain session's prepared query.
            counters = self._counters()
            with spans.span("engine.session.execute"):
                result = self.plain_prepared[query.name].execute(database)
        self._note_counters(query, database, counters, result)
        answer = result.relation
        if self.engine_replay:
            replayed = self._replay(query, workload.database_for(query))
            self.attempted += 1
            if replayed != answer:
                self.failed += 1
        if self.kernels:
            self._kernel_probe(query)
        self._engine_probes(query)
        self._service_chain(query, outcome if not in_process else None)

    def _counters(self) -> Tuple[int, Dict[str, int]]:
        info = self.entry.column_cache_info() if self.entry.column_cache_info else {}
        return self.workload.planner_misses(), info

    def _note_counters(self, query: Query, database, counters, result) -> None:
        klass = query.klass
        misses_before, before = counters
        self._note("engine.planner.cache_hit_ratio", klass,
                   1.0 if self.workload.planner_misses() == misses_before else 0.0)
        seen = self._seen[query.name]
        self._note("engine.session.binding_miss_ratio", klass,
                   0.0 if database in seen else 1.0)
        seen.add(database)
        if self.entry.column_cache_info:
            after = self.entry.column_cache_info()
            for name, hit, miss in (("block.cache_hit_ratio", "hits", "misses"),
                                    ("block.keyset_hit_ratio", "keyset_hits", "keyset_misses")):
                hits = after[hit] - before[hit]
                lookups = hits + after[miss] - before[miss]
                self._note(f"engine.columnar.{name}", klass,
                           hits / lookups if lookups else 1.0)
        statistics = result.statistics
        examined = sum(statistics.input_sizes) + statistics.total_intermediate
        self._note("engine.yannakakis.rows_examined_per_result", klass,
                   examined / max(1, statistics.output_size))

    # ------------------------------------------------------------------ #
    # The staged replay
    # ------------------------------------------------------------------ #
    def _replay(self, query: Query, database) -> Relation:
        entry, spans, klass = self.entry, self.spans, query.klass
        relations = database.relations()
        hypergraph = database.schema.to_hypergraph()
        wanted = frozenset(query.outputs)
        cold = self.tier == "cold"
        with spans.span("replay"):
            with spans.span("engine.session.prepare"):
                EngineSession().prepare(database, query.outputs)
            with spans.span("engine.catalog.measure"):
                catalog = database.statistics_catalog()
            self._note("engine.catalog.rows_scanned", klass, database.total_rows())
            fresh = entry.QueryPlanner()
            planner = fresh if cold else self.plain.planner
            trace = entry.ReductionTrace()
            with entry.use_column_backend(entry.resolve_column_backend(None)):
                if klass == "acyclic":
                    with spans.span("engine.planner.plan_for"):
                        fresh.plan_for(hypergraph)
                    with spans.span("engine.planner.annotate"):
                        annotated = planner.annotate(hypergraph, catalog,
                                                     output_attributes=wanted)
                    structure = annotated.structure
                    with spans.span("engine.columnar.block.encode"):
                        blocks = entry.vertex_blocks(relations, structure.vertices)
                else:
                    with spans.span("engine.planner.plan_for"):
                        fresh.cyclic_plan_for(hypergraph)
                    with spans.span("engine.planner.annotate"):
                        plan = planner.cyclic_plan_for(hypergraph, catalog=catalog)
                    with spans.span("engine.columnar.block.encode"):
                        for relation in relations:
                            entry.block_for(relation)
                    with spans.span("engine.cyclic.quotient.materialise"):
                        materialised = entry.materialise_cluster_blocks(
                            plan.cover, relations, catalog=catalog)
                    self._note("engine.cyclic.quotient.cluster_rows", klass,
                               sum(materialised.cluster_sizes))
                    structure = plan.inner
                    with spans.span("engine.planner.annotate"):
                        annotated = entry.annotate_plan(
                            structure, entry.catalog_from_blocks(materialised.blocks),
                            output_attributes=wanted)
                    with spans.span("engine.columnar.block.encode"):
                        blocks = entry.vertex_blocks(materialised.blocks, structure.vertices)
                with spans.span("engine.reducer.reduce"):
                    annotated.reducer.run_blocks(blocks, trace=trace,
                                                 check_hook=lambda blocks, rooted: True)
                self._note("engine.reducer.semijoin_steps", klass, trace.steps_run)
                self._note("engine.reducer.rows_removed", klass, trace.rows_removed)
                # The reduction above left its keep-vectors on the block
                # storages, so this call's own reduce is a cache hit and is
                # taken off the span: what remains is the bottom-up join fold.
                started = perf_counter()
                block, _, phases = entry.run_columnar_plan(structure, annotated,
                                                           blocks, wanted)
                spans.add("engine.yannakakis.fold", started,
                          perf_counter() - phases["reduce"])
                with spans.span("engine.yannakakis.decode"):
                    answer = block.to_relation("replay")
                self._note("engine.yannakakis.decode_rows", klass, len(answer))
        return answer

    def _kernel_probe(self, query: Query) -> None:
        """Semijoin and natural join on the query's largest joinable relation pair."""
        entry, spans = self.entry, self.spans
        if query.name not in self._kernel_pairs:
            relations = sorted(query.database.relations(), key=len, reverse=True)
            self._kernel_pairs[query.name] = next(
                ((left, right) for i, left in enumerate(relations)
                 for right in relations[i + 1:]
                 if left.schema.attribute_set & right.schema.attribute_set), None)
        pair = self._kernel_pairs[query.name]
        if pair is None:
            return
        with entry.use_column_backend(entry.resolve_column_backend(None)):
            left, right = (entry.block_for(fresh_relation(r)) for r in pair)
            with spans.span("engine.columnar.kernels.semijoin"):
                entry.semijoin_blocks(left, right)
            with spans.span("engine.columnar.kernels.natural_join"):
                entry.natural_join_blocks(left, right)

    def _engine_probes(self, query: Query) -> None:
        entry, spans = self.entry, self.spans
        if query.klass == "cyclic" and entry.enumerate_covers:
            hypergraph = query.database.schema.to_hypergraph()
            with spans.span("engine.cyclic.covers.search"):
                covers = entry.enumerate_covers(hypergraph)
            self._note("engine.cyclic.covers.candidates", query.klass, len(covers))
        # The same hot execute on a monitored and on a monitor-less session
        # (re-warmed first on the cold tier, whose operations clear the caches).
        pair = [("telemetry.monitor.without", self.plain_prepared[query.name]),
                ("telemetry.monitor.with", self.monitored_prepared[query.name])]
        if self.tier == "cold":
            for _, prepared in pair:
                prepared.execute(query.database)
        if (spans.op // 2) % 2:
            pair.reverse()      # whichever runs second finds warmer CPU caches
        for name, prepared in pair:
            with spans.span(name):
                prepared.execute(query.database)

    # ------------------------------------------------------------------ #
    # The service chain
    # ------------------------------------------------------------------ #
    def _service_chain(self, query: Query, response: Optional[Dict[str, Any]]) -> None:
        entry, spans, klass = self.entry, self.spans, query.klass
        params = {"query": self.local_handles.get(query.name, "q-1"),
                  "database": query.name, "include_rows": True}
        document = self._document("execute", params)
        if entry.parse_request:
            with spans.span("service.protocol.parse"):
                entry.parse_request(document)
        if self.admission is not None:
            with spans.span("service.admission.admit"):
                with self.admission.admit("probe"):
                    pass
        if self.pool is not None:
            with spans.span("service.pool.hop"):
                self.pool.submit(_noop).result()
        if self.local is not None:
            with spans.span("service.server.handle_rows"):
                status, envelope = self.local.handle(document)
            with spans.span("service.server.handle_norows"):
                self.local.handle(self._document(
                    "execute", dict(params, include_rows=False)))
            # The execute inside that handle, repeated next to it so the two
            # see the same cache warmth: handle minus this is the server's own.
            with spans.span("service.server.engine"):
                self.monitored_prepared[query.name].execute(query.database)
            with spans.span("service.server.wire_encode"):
                wire = json.dumps(envelope, default=str).encode("utf-8")
            self._note("service.server.response_bytes", klass, len(wire))
            self.attempted += 1
            if status != 200 or not wire_matches(query, envelope["result"]):
                self.failed += 1
        if response is None:
            with spans.span("service.client.execute"):
                response = self.client.execute(self.handles[query.name], query.name,
                                               include_rows=True)
            self.attempted += 1
            if not wire_matches(query, response):
                self.failed += 1

    # ------------------------------------------------------------------ #
    # Per-layer metrics
    # ------------------------------------------------------------------ #
    def layer_metrics(self) -> Dict[str, float]:
        """Every declared per-layer metric.

        A span is named like its metric without the ``_ms``; per operation its
        self times are summed, per class the operations' median is taken, and
        the metric is the mean over the classes that have the layer.
        """
        per_op: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        by_op: Dict[int, Dict[str, float]] = defaultdict(dict)
        for (op, name), value in self.spans.self_ms().items():
            by_op[op][name] = value
        in_process = self.workload.in_process
        explained_by = EXPLAINED_BY[self.tier]
        for op, spans in by_op.items():
            klass = self.klass_of[op]
            derived = {}
            engine_ms = spans.get("op" if in_process else "engine.session.execute")
            if engine_ms is not None and "replay" in spans:
                unexplained = engine_ms - sum(spans.get(name, 0.0) for name in explained_by)
                derived["engine.session.execute_self_ms"] = unexplained
                derived["engine.session.unattributed_pct"] = 100.0 * unexplained / engine_ms
            client_ms = spans.get("service.client.execute" if in_process else "op")
            rows_ms = spans.get("service.server.handle_rows")
            if client_ms is not None and rows_ms is not None:
                norows_ms = spans["service.server.handle_norows"]
                derived["service.client.transport_ms"] = client_ms - rows_ms
                derived["service.server.rows_payload_ms"] = rows_ms - norows_ms
                derived["service.server.handle_self_ms"] = \
                    norows_ms - spans["service.server.engine"]
            if "telemetry.monitor.with" in spans:
                derived["telemetry.monitor.observe_ms"] = \
                    spans["telemetry.monitor.with"] - spans["telemetry.monitor.without"]
            for name, value in {**spans, **derived}.items():
                per_op[name][klass].append(value)
        for name, samples in self.values.items():
            per_op[name].update(samples)

        def per_operation(name: str) -> float:
            samples = per_op.get(name) or per_op.get(name[:-len("_ms")], {})
            medians = [median(values) for values in samples.values() if values]
            return sum(medians) / len(medians) if medians else MISSING

        metrics = {name: per_operation(name) for name in PER_LAYER}
        metrics["engine.columnar.buffers.interned_values"] = float(
            len(self.entry.current_interner())) if self.entry.current_interner else MISSING
        admission = self.client.stats().get("admission", {})
        metrics["service.admission.rejected"] = float(
            admission.get("rejected_queue_full", 0) + admission.get("rejected_timeout", 0))
        overheads = [100.0 * (median(per_op["op"][klass]) / median(self.untraced_ms[klass]) - 1.0)
                     for klass in CLASSES if per_op["op"][klass] and self.untraced_ms[klass]]
        metrics["harness.trace_overhead_pct"] = \
            sum(overheads) / len(overheads) if overheads else MISSING
        return metrics


def _noop() -> None:
    return None
