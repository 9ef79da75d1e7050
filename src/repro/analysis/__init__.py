"""Hypergraph statistics, cyclicity diagnostics, and report formatting."""

from .reports import (
    banner,
    format_mapping,
    format_table,
    plan_quality_table,
    query_log_table,
    statistics_table,
    trace_tree,
)
from .statistics import HypergraphStatistics, cyclicity_diagnostics, describe_hypergraph

__all__ = [
    "HypergraphStatistics",
    "describe_hypergraph",
    "cyclicity_diagnostics",
    "format_table",
    "format_mapping",
    "banner",
    "statistics_table",
    "trace_tree",
    "query_log_table",
    "plan_quality_table",
]
