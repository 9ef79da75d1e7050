"""EXPLAIN ANALYZE: estimated-vs-actual plan accounting built from a trace.

``PreparedQuery.explain(analyze=True)`` executes the query under a fresh
recording :class:`~repro.telemetry.tracing.Tracer` and hands the records —
plus the run's statistics and the annotation's estimates — to
:func:`build_explain_analysis`.  The *actual* numbers here are deliberately
sourced from span attributes, not copied out of ``EngineStatistics``: the
reduce span's per-vertex sizes, the materialise/fold spans' intermediates
and the decode span's output count.  The property suite asserts they match
``EngineStatistics`` exactly, which makes the trace a genuine independent
witness of the engine's accounting (and the estimated column the feedback
signal re-optimisation needs).  A run served from its binding's memo opens
no phase span; its caller passes the attributes the stored run's phases
recorded as ``phase_attributes`` instead.

This module is duck-typed on purpose — it never imports the engine, so the
telemetry package stays dependency-free and import-cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ExplainEntry", "ExplainAnalysis", "build_explain_analysis"]


@dataclass(frozen=True)
class ExplainEntry:
    """One plan element's estimated-vs-actual cardinality (``None`` = unknown)."""

    label: str
    estimated: Optional[float]
    actual: Optional[int]
    #: Free-text detail appended to the rendered line (a projected cluster's
    #: ``scheme → keeps …`` account); empty for everything else.
    note: str = ""

    def render(self) -> str:
        est = "-" if self.estimated is None else f"{self.estimated:g}"
        actual = "-" if self.actual is None else str(self.actual)
        line = f"{self.label}  est={est}  actual={actual}"
        return f"{line}  {self.note}" if self.note else line


#: Span name → that span's attributes (the last such span's: one engine run
#: emits each phase once).
_PhaseAttributes = Mapping[str, Mapping[str, object]]


def _attr(phases: _PhaseAttributes, name: str, attribute: str) -> object:
    return phases.get(name, {}).get(attribute)


def _paired(labels: Sequence[str], estimates: Sequence[Optional[float]],
            actuals: Sequence[Optional[int]]) -> Tuple[ExplainEntry, ...]:
    """Zip label/estimate/actual columns defensively (shorter columns pad)."""
    length = max(len(labels), len(estimates), len(actuals))
    entries: List[ExplainEntry] = []
    for index in range(length):
        label = labels[index] if index < len(labels) else f"#{index}"
        estimated = estimates[index] if index < len(estimates) else None
        actual = actuals[index] if index < len(actuals) else None
        entries.append(ExplainEntry(label=label, estimated=estimated,
                                    actual=actual))
    return tuple(entries)


def _braced(attributes: Sequence[object]) -> str:
    return "{" + ", ".join(str(attribute) for attribute in attributes) + "}"


def _cluster_notes(phases: _PhaseAttributes,
                   cluster_actuals: Sequence[int]) -> List[str]:
    """Per cluster, what a projected cluster kept of its scheme and what it probed.

    ``{C0, T1, T2} → keeps {C0}: 40 rows (32538 probed)`` — the scheme, the
    attributes the cluster exports, the rows that survived, and the largest
    join inside the cluster before duplicate elimination (the number
    ``cluster_row_bound`` guards).  Empty for a cluster materialised over its
    whole scheme, and for runs whose ``materialise`` span carries no
    ``kept`` / ``probe_rows``.
    """
    schemes = _attr(phases, "materialise", "schemes") or ()
    kept = _attr(phases, "materialise", "kept") or ()
    steps = iter(_attr(phases, "materialise", "probe_rows") or ())
    fan_out = _attr(phases, "materialise", "fan_out") or ()
    notes: List[str] = []
    for scheme, keeps, members, rows in zip(schemes, kept, fan_out, cluster_actuals):
        probed = max((int(step) for step in islice(steps, members - 1)), default=rows)
        notes.append("" if len(keeps) == len(scheme) else
                     f"{_braced(scheme)} → keeps {_braced(keeps)}: "
                     f"{rows} rows ({probed} probed)")
    return notes


@dataclass(frozen=True)
class ExplainAnalysis:
    """The annotated plan tree of one executed query, ready to render.

    ``vertices`` are the join-tree vertices with their reduced sizes,
    ``steps`` the intermediate-producing join steps (cluster materialisation
    first on the cyclic path, then the bottom-up fold), ``clusters`` the
    cyclic plan's materialised cluster relations (empty for acyclic runs).
    """

    name: str
    kind: str
    adaptive: bool
    phase_seconds: Tuple[Tuple[str, float], ...]
    vertices: Tuple[ExplainEntry, ...]
    steps: Tuple[ExplainEntry, ...]
    clusters: Tuple[ExplainEntry, ...]
    output: ExplainEntry
    statistics: object
    records: Tuple[Mapping[str, object], ...]
    plan_description: str = ""

    def render(self) -> str:
        """The multi-line EXPLAIN ANALYZE report."""
        adaptive = "adaptive" if self.adaptive else "static"
        lines = [f"EXPLAIN ANALYZE {self.name!r} "
                 f"({self.kind} dispatch, {adaptive})"]
        if self.phase_seconds:
            rendered = " | ".join(f"{phase} {seconds * 1000.0:.3f}ms"
                                  for phase, seconds in self.phase_seconds)
            lines.append(f"  phases: {rendered}")
        if self.clusters:
            lines.append("  clusters (materialised rows):")
            lines.extend(f"    {entry.render()}" for entry in self.clusters)
        if self.vertices:
            lines.append("  vertices (reduced rows):")
            lines.extend(f"    {entry.render()}" for entry in self.vertices)
        if self.steps:
            lines.append("  join steps (intermediate rows):")
            lines.extend(f"    {entry.render()}" for entry in self.steps)
        lines.append(f"  output: {self.output.render()}")
        if self.plan_description:
            lines.append("  plan:")
            lines.extend(f"    {line}"
                         for line in self.plan_description.splitlines())
        return "\n".join(lines)


def build_explain_analysis(*, name: str, kind: str, statistics: object,
                           records: Sequence[Mapping[str, object]],
                           vertex_estimates: Optional[Mapping[str, float]] = None,
                           plan_description: str = "",
                           phase_attributes: Optional[_PhaseAttributes] = None
                           ) -> ExplainAnalysis:
    """Assemble an :class:`ExplainAnalysis` from one traced execution.

    ``statistics`` is the run's (duck-typed) ``EngineStatistics`` — it
    supplies the *estimates*; every *actual* comes out of ``records``:

    * per-vertex reduced sizes — the ``reduce`` span's ``vertices`` /
      ``sizes_after`` attributes;
    * intermediate sizes — the ``materialise`` span's ``intermediates``
      (cyclic runs) followed by the ``fold`` span's ``intermediates``;
    * cluster sizes — the ``materialise`` span's ``cluster_sizes``, annotated
      from its ``schemes`` / ``kept`` / ``probe_rows`` where a cluster was
      projected onto what it exports (see :func:`_cluster_notes`);
    * the output count — the ``decode`` span's ``output_rows``.

    ``vertex_estimates`` maps vertex labels (as the reduce span records
    them) to estimated reduced cardinalities; omitted labels render "-".
    ``phase_attributes`` (span name → attributes) stands in for the phase
    spans of a run that opened none: one served from its binding's memo,
    described by the run that stored it.
    """
    records = tuple(records)
    phases: Dict[str, Mapping[str, object]] = {
        record.get("name"): record.get("attributes", {}) for record in records}
    phases.update(phase_attributes or {})
    vertex_labels = [str(label) for label
                     in (_attr(phases, "reduce", "vertices") or ())]
    vertex_actuals = [int(size) for size
                      in (_attr(phases, "reduce", "sizes_after") or ())]
    estimates_by_label = dict(vertex_estimates or {})
    vertices = _paired(
        vertex_labels,
        [estimates_by_label.get(label) for label in vertex_labels],
        vertex_actuals)

    cluster_actuals = [int(size) for size
                       in (_attr(phases, "materialise", "cluster_sizes") or ())]
    cluster_estimates = list(getattr(statistics, "estimated_cluster_sizes",
                                     ()) or ())
    clusters = _paired(
        [f"cluster[{index}]" for index in range(
            max(len(cluster_actuals), len(cluster_estimates)))],
        cluster_estimates, cluster_actuals)
    notes = _cluster_notes(phases, cluster_actuals)
    clusters = tuple(replace(entry, note=note)
                     for entry, note in zip(clusters, notes)) + clusters[len(notes):]

    step_actuals = ([int(size) for size
                     in (_attr(phases, "materialise", "intermediates") or ())]
                    + [int(size) for size
                       in (_attr(phases, "fold", "intermediates") or ())])
    adaptive = bool(getattr(statistics, "adaptive", False))
    step_estimates = list(getattr(statistics, "estimated_intermediate_sizes",
                                  ()) or ()) if adaptive else []
    steps = _paired(
        [f"step[{index}]" for index in range(
            max(len(step_actuals), len(step_estimates)))],
        step_estimates, step_actuals)

    output_actual = _attr(phases, "decode", "output_rows")
    estimated_output = getattr(statistics, "estimated_output_size", None) \
        if adaptive else None
    output = ExplainEntry(
        label="output",
        estimated=None if estimated_output is None else float(estimated_output),
        actual=None if output_actual is None else int(output_actual))

    return ExplainAnalysis(
        name=name, kind=kind, adaptive=adaptive,
        phase_seconds=tuple(getattr(statistics, "phase_times", ()) or ()),
        vertices=vertices, steps=steps, clusters=clusters, output=output,
        statistics=statistics, records=records,
        plan_description=plan_description)
