"""Plain-text report rendering shared by the examples and the benchmark harness.

The benchmark modules print small tables (one per figure/experiment) in the
same spirit as the paper's worked examples; this module centralises the
formatting so every experiment's output looks the same.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_mapping", "banner", "statistics_table",
           "trace_tree", "query_log_table", "plan_quality_table"]


def format_table(rows: Sequence[Mapping[str, object]], *,
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table.

    ``columns`` fixes the column order (default: keys of the first row, in
    insertion order).  Values are rendered with ``str``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    ordered_columns: List[str] = list(columns) if columns is not None else list(rows[0].keys())
    widths = {column: len(str(column)) for column in ordered_columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [str(row.get(column, "")) for column in ordered_columns]
        rendered_rows.append(rendered)
        for column, value in zip(ordered_columns, rendered):
            widths[column] = max(widths[column], len(value))
    header = "  ".join(str(column).ljust(widths[column]) for column in ordered_columns)
    rule = "-" * len(header)
    lines = []
    if title:
        lines.extend([title, "=" * len(title)])
    lines.extend([header, rule])
    for rendered in rendered_rows:
        lines.append("  ".join(value.ljust(widths[column])
                               for column, value in zip(ordered_columns, rendered)))
    return "\n".join(lines)


def format_mapping(mapping: Mapping[str, object], *, title: Optional[str] = None) -> str:
    """Render a flat mapping as ``key: value`` lines."""
    lines = []
    if title:
        lines.extend([title, "-" * len(title)])
    width = max((len(str(key)) for key in mapping), default=0)
    for key, value in mapping.items():
        lines.append(f"{str(key).ljust(width)} : {value}")
    return "\n".join(lines)


#: Column order of :func:`statistics_table`; engine-only columns render "-"
#: for plans that do not carry the counter.
_STATISTICS_COLUMNS = ("plan", "inputs", "max intermediate", "est max",
                       "total intermediate", "output", "est output",
                       "semijoins", "removed", "clusters", "plan cache",
                       "index cache", "wall ms")


def _statistics_row(stats: object, *, plan: Optional[str] = None) -> Dict[str, object]:
    """One table row from one statistics object (duck-typed counters)."""
    semijoins = getattr(stats, "semijoin_steps", None)
    removed = getattr(stats, "rows_removed_by_reduction", None)
    clusters = getattr(stats, "cluster_sizes", None)
    cache_hit = getattr(stats, "plan_cache_hit", None)
    adaptive = getattr(stats, "adaptive", False)
    estimated_max = getattr(stats, "estimated_max_intermediate", None)
    estimated_output = getattr(stats, "estimated_output_size", None)
    index_hits = getattr(stats, "index_cache_hits", None)
    index_misses = getattr(stats, "index_cache_misses", None)
    elapsed = getattr(stats, "elapsed_seconds", None)
    return {
        "plan": plan if plan is not None else stats.plan_name,
        "inputs": sum(stats.input_sizes),
        "max intermediate": stats.max_intermediate,
        "est max": estimated_max if adaptive and estimated_max is not None else "-",
        "total intermediate": stats.total_intermediate,
        "output": stats.output_size,
        "est output": estimated_output
        if adaptive and estimated_output is not None else "-",
        "semijoins": "-" if semijoins is None else semijoins,
        "removed": "-" if removed is None else removed,
        "clusters": "-" if clusters is None else (list(clusters) or "-"),
        "plan cache": "-" if cache_hit is None else ("hit" if cache_hit else "miss"),
        # Block reuse, e.g. "6h/0m": a warm run is all hits — the
        # observable payoff of the per-relation block cache.
        "index cache": "-" if index_hits is None else f"{index_hits}h/{index_misses}m",
        "wall ms": "-" if elapsed is None else f"{elapsed * 1000:.2f}",
    }


def statistics_table(statistics: Sequence[object], *,
                     title: Optional[str] = None) -> str:
    """Render join-plan statistics uniformly, whatever the plan that produced them.

    Accepts any mix of :class:`~repro.relational.join_plans.JoinStatistics`,
    :class:`~repro.engine.planner.EngineStatistics` and
    :class:`~repro.engine.cyclic.plans.CyclicEngineStatistics` (duck-typed, so
    this module stays import-light); counters a plan does not track render as
    ``-``.  Adaptive runs additionally fill the estimated-vs-actual columns
    (``est max`` / ``est output`` next to their measured counterparts), so a
    glance shows both how much smaller the adaptive intermediates are and how
    well the catalog predicted them.  This is the one table every benchmark
    module uses to compare naive / join-tree / engine / cyclic-engine runs
    side by side.

    Batched statistics — anything exposing ``runs`` and ``labels``, i.e. the
    :class:`~repro.engine.session.BatchStatistics` an
    ``execute_many`` produces — expand into one row per database (the run's
    plan name suffixed with its label) followed by a totals row aggregating
    the whole batch.
    """
    rows: List[Dict[str, object]] = []
    for stats in statistics:
        runs = getattr(stats, "runs", None)
        labels = getattr(stats, "labels", None)
        if runs is not None and labels is not None:
            for label, run in zip(labels, runs):
                rows.append(_statistics_row(run, plan=f"{run.plan_name}[{label}]"))
            rows.append(_statistics_row(stats, plan=f"{stats.plan_name} (total)"))
            continue
        rows.append(_statistics_row(stats))
    return format_table(rows, columns=_STATISTICS_COLUMNS, title=title)


def banner(text: str) -> str:
    """A one-line banner used to separate experiment sections in benchmark output."""
    rule = "=" * max(len(text), 8)
    return f"\n{rule}\n{text}\n{rule}"


def _interesting_attributes(attributes: Mapping[str, object]) -> str:
    """The cardinality/context attributes of a span, compactly rendered."""
    parts = []
    for key in ("kind", "left_rows", "right_rows", "output_rows",
                "rows_removed", "plan_cache_hit", "core_edges",
                "partitions_examined", "candidates"):
        if key in attributes:
            parts.append(f"{key}={attributes[key]}")
    return " ".join(parts)


def trace_tree(records: Sequence[Mapping[str, object]]) -> str:
    """Render trace records as an indented span tree (children under parents).

    Roots keep their relative completion order; each line shows the span
    name, its wall-time and the common cardinality attributes.
    """
    if not records:
        return "(empty trace)"
    children: Dict[object, List[Mapping[str, object]]] = {}
    ids = {record.get("span_id") for record in records}
    roots: List[Mapping[str, object]] = []
    for record in records:
        parent = record.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)

    # Children complete before their parent, so render them start-ordered.
    def start_of(record: Mapping[str, object]) -> float:
        return float(record.get("start", 0.0))

    lines: List[str] = []

    def render(record: Mapping[str, object], depth: int) -> None:
        duration = float(record.get("duration", 0.0)) * 1000
        attributes = _interesting_attributes(record.get("attributes", {}) or {})
        suffix = f"  [{attributes}]" if attributes else ""
        lines.append(f"{'  ' * depth}{record.get('name', '-')} "
                     f"({duration:.3f}ms){suffix}")
        for child in sorted(children.get(record.get("span_id"), []),
                            key=start_of):
            render(child, depth + 1)

    for root in sorted(roots, key=start_of):
        render(root, 0)
    return "\n".join(lines)


def query_log_table(entries: Sequence[object], *,
                    title: Optional[str] = None) -> str:
    """Render query-log entries (one row per recorded execution) as a table.

    Accepts :class:`~repro.telemetry.monitor.QueryLogEntry` objects or the
    ``/querylog`` endpoint's JSON dicts (duck-typed via ``getattr``-or-key
    access, so this module keeps its import-light contract).  Errored runs
    show the error in place of their cardinalities; slow runs are marked,
    with ``*`` when their span trace was retained.
    """
    def pick(entry: object, name: str, default: object = None) -> object:
        if isinstance(entry, Mapping):
            return entry.get(name, default)
        return getattr(entry, name, default)

    rows: List[Dict[str, object]] = []
    for entry in entries:
        error = pick(entry, "error")
        traced = pick(entry, "trace") is not None or bool(pick(entry, "traced"))
        slow = bool(pick(entry, "slow"))
        elapsed = pick(entry, "elapsed_seconds", 0.0) or 0.0
        rows.append({
            "seq": pick(entry, "seq", "-"),
            "query": pick(entry, "query", "-"),
            "kind": pick(entry, "kind", "-"),
            "db": pick(entry, "database", "-"),
            "ms": f"{float(elapsed) * 1000:.2f}",
            "rows": "-" if error else pick(entry, "output_rows", "-"),
            "plan cache": "-" if error else
            ("hit" if pick(entry, "plan_cache_hit") else "miss"),
            "slow": ("slow*" if traced else "slow") if slow else "-",
            "error": error or "-",
        })
    return format_table(rows, columns=("seq", "query", "kind", "db", "ms",
                                       "rows", "plan cache", "slow", "error"),
                        title=title)


def plan_quality_table(quality: object, *, title: Optional[str] = None) -> str:
    """Render per-fingerprint plan-quality records (q-error accounting).

    Accepts a :class:`~repro.telemetry.qualitylog.PlanQualityTracker`, a
    sequence of its records, or the ``/quality`` endpoint's JSON document.
    One row per fingerprint: runs, estimate count, mean/recent/max q-error,
    the q-error histogram (``le=count`` pairs, zero buckets elided) and the
    drift flag.
    """
    tracker = None
    if hasattr(quality, "records") and hasattr(quality, "is_drifted"):
        tracker = quality
        records: Sequence[object] = quality.records()
    elif isinstance(quality, Mapping):
        records = quality.get("fingerprints", ())
    else:
        records = quality  # already a record sequence

    def pick(record: object, name: str, default: object = None) -> object:
        if isinstance(record, Mapping):
            return record.get(name, default)
        return getattr(record, name, default)

    rows: List[Dict[str, object]] = []
    for record in records:
        histogram = pick(record, "histogram", None)
        if callable(histogram):  # a QualityRecord method, not the JSON dict
            histogram = dict(histogram())
        histogram = histogram or {}
        drifted = pick(record, "drifted", None)
        if drifted is None and tracker is not None:
            drifted = tracker.is_drifted(record)
        rendered_histogram = " ".join(
            f"≤{le}={count}" for le, count in histogram.items() if count) or "-"
        rows.append({
            "fingerprint": pick(record, "fingerprint", "-"),
            "queries": ",".join(pick(record, "queries", ()) or ()) or "-",
            "runs": pick(record, "runs", 0),
            "estimates": pick(record, "observations", 0),
            "mean q": f"{float(pick(record, 'mean_q', 1.0)):.2f}",
            "recent q": f"{float(pick(record, 'recent_mean_q', 1.0)):.2f}",
            "max q": f"{float(pick(record, 'max_q', 1.0)):.2f}",
            "q histogram": rendered_histogram,
            "drift": "DRIFTED" if drifted else "-",
        })
    return format_table(rows, columns=("fingerprint", "queries", "runs",
                                       "estimates", "mean q", "recent q",
                                       "max q", "q histogram", "drift"),
                        title=title)
