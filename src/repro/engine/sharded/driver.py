"""The shard-parallel run: fan out per-shard engine runs, merge, account.

One entry point, :func:`run_sharded`, called by
:class:`~repro.engine.session.PreparedQuery` when its binding carries a
shard partition.  Each shard runs the *full* reducer + join fold through the
existing drivers (acyclic or cyclic engine), so sharding adds exactly one
seam: partition before, merge after.

Merging always deduplicates.  When the shard key is projected out of the
output, the same output tuple can be witnessed by several shards (distinct
key values proving the same projected row) — a plain concatenation would
over-count.  In-process merges concatenate the shard blocks' id columns
(they share one interner) and run the columnar ``distinct`` kernel;
cross-process and 0-ary merges union the decoded row sets.

The final result is byte-identical to the unsharded engine on every leg:
both sides canonicalise result column order to the sorted attribute order
at the decode boundary, and relation/row equality is order-insensitive.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Sequence

from ...relational.relation import Relation
from ...relational.schema import RelationSchema
from ..columnar.block import ColumnBlock, block_for
from ..deadline import check_deadline, remaining_seconds
from ..planner import AnnotatedPlan, EngineStatistics
from ...telemetry.tracing import current_tracer
from .. import yannakakis as _yannakakis
from ..cyclic import executor as _cyclic
from ..cyclic.plans import CyclicEngineStatistics
from .executor import ShardTask, shard_executor_for
from .serial import dump_blocks

__all__ = ["run_sharded"]


def run_sharded(prepared, binding):
    """Execute one prepared query over its shard partition; merge the results."""
    options = prepared._options
    partition = binding.partition
    shard_count = partition.shard_count
    executor_name = binding.executor_name
    decode_mode = _yannakakis.resolve_decode_mode(options.decode)
    kind = prepared._kind
    name = prepared._name
    tracer = current_tracer()

    # In-process shards hand back blocks (they share one interner, so the
    # merge is an id concatenation); everything that crosses a process
    # boundary merges decoded rows.  Zero-ary (boolean) results always
    # merge as rows: a block with no key columns has nothing for the
    # distinct kernel to group on.
    blocks_merge = (executor_name == "thread"
                    and (prepared._output is None or len(prepared._output) > 0))
    shard_decode = "block" if blocks_merge else "rows"

    prepare_started = perf_counter()
    tasks = []
    for piece in partition.slices:
        tasks.append(_shard_task(prepared, binding, piece,
                                 shard_decode=shard_decode, tracer=tracer))
    executor = shard_executor_for(executor_name, shard_count)
    prepare_seconds = perf_counter() - prepare_started
    check_deadline("shard-dispatch")

    execute_started = perf_counter()
    outcomes = executor.run(tasks)
    execute_seconds = perf_counter() - execute_started
    check_deadline("merge")

    merge_span = tracer.span("merge")
    merge_started = perf_counter()
    with merge_span:
        shard_statistics = tuple(statistics for _, statistics in outcomes)
        if blocks_merge:
            merged_block = _merge_blocks([block for block, _ in outcomes], name)
            merged_relation = None
        else:
            merged_block = None
            merged_relation = _merge_relations(
                [relation for relation, _ in outcomes], name)
        if merge_span.is_recording:
            merge_span.set("shards", shard_count)
            merge_span.set("strategy", "blocks" if blocks_merge else "rows")
    merge_seconds = perf_counter() - merge_started
    check_deadline("decode")

    # A rows merge already holds the answer as a relation: under
    # decode="block" the result carries it as is (``block=None``,
    # ``decoded()`` returns it) — re-encoding it to fill ``.block`` would be
    # a whole extra pass nobody reads.
    decode_started = perf_counter()
    if blocks_merge and decode_mode == "rows":
        relation = merged_block.to_relation(name)
    else:
        relation = merged_relation
    decode_seconds = perf_counter() - decode_started

    output_size = len(relation) if relation is not None else len(merged_block)
    statistics = _sharded_statistics(
        prepared, binding, shard_statistics, kind=kind,
        output_size=output_size,
        phase_times=(("prepare", prepare_seconds),
                     ("execute", execute_seconds),
                     ("merge", merge_seconds),
                     ("decode", decode_seconds)))
    if kind == "acyclic":
        annotated = binding.plan if isinstance(binding.plan, AnnotatedPlan) \
            else None
        return _yannakakis.EngineResult(
            relation=relation, plan=binding.plan, statistics=statistics,
            annotated=annotated, block=merged_block, result_name=name)
    return _cyclic.CyclicEngineResult(
        relation=relation, plan=binding.plan, statistics=statistics,
        block=merged_block, result_name=name)


# --------------------------------------------------------------------------- #
# Per-shard tasks
# --------------------------------------------------------------------------- #
def _shard_task(prepared, binding, piece, *, shard_decode: str,
                tracer) -> ShardTask:
    options = prepared._options
    index = piece.index
    shard_plan = binding.shard_plans[index]
    shard_catalog = binding.shard_catalogs[index]
    shard_relations = piece.relations
    token = f"{binding.token}:{index}"

    def run_local():
        span = tracer.span(f"shard:{index}")
        with span:
            if prepared._kind == "acyclic":
                result = _yannakakis.evaluate(
                    shard_relations, prepared._output, name=prepared._name,
                    check_reduction=options.check_reduction, plan=shard_plan,
                    column_backend=options.column_backend,
                    decode=shard_decode)
            else:
                result = _cyclic.evaluate_cyclic(
                    shard_relations, prepared._output, name=prepared._name,
                    check_reduction=options.check_reduction,
                    cluster_row_bound=options.cluster_row_bound,
                    plan=shard_plan, catalog=shard_catalog,
                    planner=prepared._session.planner,
                    column_backend=options.column_backend,
                    decode=shard_decode)
            if span.is_recording:
                span.set("shard", index)
                span.set("input_rows", piece.partitioned_rows)
                span.set("output_rows", result.statistics.output_size)
        if shard_decode == "block":
            return result.block, result.statistics
        return result.relation, result.statistics

    def payload_factory():
        return dump_blocks(token, tuple(block_for(relation)
                                        for relation in shard_relations))

    spec = {"name": prepared._name,
            "output_attributes": prepared._output,
            "adaptive": options.adaptive,
            "root": options.root,
            "check_reduction": options.check_reduction,
            "cluster_row_bound": options.cluster_row_bound,
            "sample_limit": options.sample_limit,
            "force_cyclic": prepared._kind == "cyclic",
            "column_backend": options.column_backend,
            "deadline_remaining": remaining_seconds()}
    return ShardTask(index, run_local, token=token,
                     payload_factory=payload_factory, spec=spec)


# --------------------------------------------------------------------------- #
# Merging
# --------------------------------------------------------------------------- #
def _merge_blocks(blocks: Sequence[ColumnBlock], name: str) -> ColumnBlock:
    """Union shard blocks by id concatenation + the distinct kernel.

    Every shard block left the engine in canonical (sorted) column order
    over the shared process interner, so the concatenation is positional and
    ``distinct`` removes the cross-shard duplicate witnesses.
    """
    if len(blocks) == 1:
        return blocks[0]
    first = blocks[0]
    attributes = first.attributes
    interner = first.interner
    if any(block.interner is not interner or block.attributes != attributes
           for block in blocks[1:]):
        # Mixed interner generations (a cache clear raced the run) — fall
        # back to the always-correct row merge.
        merged = _merge_relations([block.to_relation(name)
                                   for block in blocks], name)
        return ColumnBlock.from_relation(merged)
    length = sum(len(block) for block in blocks)
    columns = {}
    for attribute in attributes:
        merged_column = array("q")
        for block in blocks:
            column = block.column(attribute)
            if len(block) == len(column):
                merged_column.extend(column)
            else:
                merged_column.extend(column[position]
                                     for position in block.positions)
        columns[attribute] = merged_column
    merged = ColumnBlock._from_ids(name, attributes, columns, length, interner)
    return merged.distinct()


def _merge_relations(relations: Sequence[Relation], name: str) -> Relation:
    """Union shard relations (set semantics dedupes cross-shard witnesses)."""
    first = relations[0]
    schema = first.schema if first.name == name \
        else RelationSchema.of(name, first.schema.attributes)
    if len(relations) == 1:
        return first if first.schema is schema else \
            Relation.from_valid_rows(schema, first.rows)
    rows = frozenset().union(*(relation.rows for relation in relations))
    return Relation.from_valid_rows(schema, rows)


# --------------------------------------------------------------------------- #
# Accounting
# --------------------------------------------------------------------------- #
def _sharded_statistics(prepared, binding, shard_statistics, *, kind: str,
                        output_size: int,
                        phase_times) -> EngineStatistics:
    options = prepared._options
    partition = binding.partition
    adaptive = binding.catalog is not None
    plan_name = f"engine-sharded-{kind}" + ("-adaptive" if adaptive else "")
    estimated_outputs = [statistics.estimated_output_size
                         for statistics in shard_statistics]
    estimated_output = sum(estimated_outputs) \
        if estimated_outputs and all(e is not None for e in estimated_outputs) \
        else None
    backend = next((statistics.column_backend
                    for statistics in shard_statistics
                    if statistics.column_backend is not None), None)
    common = dict(
        plan_name=plan_name,
        input_sizes=tuple(len(relation) for relation in binding.relations),
        intermediate_sizes=tuple(
            size for statistics in shard_statistics
            for size in statistics.intermediate_sizes),
        output_size=output_size,
        semijoin_steps=sum(statistics.semijoin_steps
                           for statistics in shard_statistics),
        rows_removed_by_reduction=sum(statistics.rows_removed_by_reduction
                                      for statistics in shard_statistics),
        reduced_sizes=tuple(size for statistics in shard_statistics
                            for size in statistics.reduced_sizes),
        plan_cache_hit=all(statistics.plan_cache_hit
                           for statistics in shard_statistics),
        index_cache_hits=sum(statistics.index_cache_hits
                             for statistics in shard_statistics),
        index_cache_misses=sum(statistics.index_cache_misses
                               for statistics in shard_statistics),
        column_backend=backend,
        adaptive=adaptive,
        estimated_intermediate_sizes=tuple(
            size for statistics in shard_statistics
            for size in statistics.estimated_intermediate_sizes),
        estimated_output_size=estimated_output,
        phase_times=tuple(phase_times),
        shards=partition.shard_count,
        shard_executor=binding.executor_name,
        shard_key=None if partition.key is None else str(partition.key),
        shard_row_counts=partition.row_counts,
        shard_skew=partition.skew,
        shard_statistics=tuple(shard_statistics),
    )
    if kind == "acyclic":
        return EngineStatistics(**common)
    return CyclicEngineStatistics(
        cluster_sizes=tuple(size for statistics in shard_statistics
                            for size in getattr(statistics, "cluster_sizes", ())),
        cluster_widths=tuple(
            width for statistics in shard_statistics
            for width in getattr(statistics, "cluster_widths", ())),
        estimated_cluster_sizes=tuple(
            size for statistics in shard_statistics
            for size in getattr(statistics, "estimated_cluster_sizes", ())),
        **common)
