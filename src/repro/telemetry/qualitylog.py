"""Plan-quality accounting: per-fingerprint q-error histograms and drift flags.

The adaptive planner predicts cardinalities (``estimated_intermediate_sizes``,
``estimated_output_size``) and the engine measures them
(``intermediate_sizes``, ``output_size``); EXPLAIN ANALYZE already renders
the two side by side for *one* run.  This module folds the comparison over
*every* run: each execution that ran its plan contributes the **q-error**
of its estimates — the standard symmetric ratio ``max(est/actual,
actual/est)`` (with +1 smoothing so empty relations stay finite; a perfect
estimate scores 1.0) — into a per-fingerprint :class:`QualityRecord`
holding a power-of-two q-error histogram, the running mean/max and a
bounded window of recent values.

A fingerprint whose *recent* mean q-error exceeds the drift threshold is
flagged by :meth:`PlanQualityTracker.drifted_fingerprints` — the signal the
ROADMAP's estimate-feedback item needs: "this plan's cost model has stopped
describing the data it runs against; re-measure the catalog and re-annotate".

Like the rest of the telemetry package this module is duck-typed and never
imports the engine: any statistics object carrying the adaptive estimate
fields feeds it.  A run served from its binding's memo (``served``) feeds
nothing: it repeats the stored run's estimates and actuals.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["q_error", "QualityObservation", "QualityRecord",
           "PlanQualityTracker"]

#: Upper bounds of the q-error histogram buckets (the last bucket is +Inf).
#: Q-errors are >= 1 by construction, so the buckets are powers of two.
Q_ERROR_BUCKETS: Tuple[float, ...] = (1.5, 2.0, 4.0, 8.0, 16.0, 64.0)


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimation error ``max(est/actual, actual/est)``.

    Both sides are +1-smoothed so zero-row estimates and zero-row actuals
    stay finite and comparable (``q_error(0, 0) == 1.0`` — a perfect
    prediction of emptiness).  Negative inputs are clamped to zero.
    """
    est = max(float(estimated), 0.0) + 1.0
    act = max(float(actual), 0.0) + 1.0
    return max(est / act, act / est)


@dataclass(slots=True)
class QualityObservation:
    """One run's worth of estimate-vs-actual pairs, already reduced to q-errors.

    Treat instances as immutable (``slots`` without ``frozen`` keeps the
    per-run construction cost off the warm path, as with
    :class:`~repro.telemetry.monitor.QueryLogEntry`).
    """

    fingerprint: str
    query: str
    q_errors: Tuple[float, ...]

    @property
    def worst(self) -> float:
        return max(self.q_errors, default=1.0)


class QualityRecord:
    """The accumulated q-error distribution of one plan fingerprint."""

    __slots__ = ("fingerprint", "queries", "runs", "observations", "_sum",
                 "max_q", "last_q", "bucket_counts", "recent")

    def __init__(self, fingerprint: str, window: int) -> None:
        self.fingerprint = fingerprint
        self.queries: List[str] = []
        self.runs = 0
        self.observations = 0
        self._sum = 0.0
        self.max_q = 1.0
        self.last_q = 1.0
        self.bucket_counts = [0] * (len(Q_ERROR_BUCKETS) + 1)
        self.recent: Deque[float] = deque(maxlen=window)

    def fold(self, observation: QualityObservation) -> None:
        self.fold_values(observation.query, observation.q_errors)

    def fold_values(self, query: str, values: Sequence[float]) -> None:
        """Fold one run's q-errors directly (the allocation-free hot path)."""
        if query not in self.queries:
            self.queries.append(query)
        self.runs += 1
        self.observations += len(values)
        self._sum += sum(values)
        counts = self.bucket_counts
        worst = 1.0
        for value in values:
            # First bound >= value is the ``<= bound`` bucket; values past
            # the last bound land in the +Inf slot (index len(buckets)).
            counts[bisect_left(Q_ERROR_BUCKETS, value)] += 1
            if value > worst:
                worst = value
        if worst > self.max_q:
            self.max_q = worst
        self.last_q = worst
        self.recent.append(worst)

    @property
    def mean_q(self) -> float:
        """The mean q-error over every observation (1.0 when empty)."""
        return (self._sum / self.observations) if self.observations else 1.0

    @property
    def recent_mean_q(self) -> float:
        """The mean of the recent window's per-run worst q-errors."""
        return (sum(self.recent) / len(self.recent)) if self.recent else 1.0

    def histogram(self) -> Tuple[Tuple[str, int], ...]:
        """``(le, count)`` pairs over the q-error buckets, ``+Inf`` last."""
        labels = [f"{bound:g}" for bound in Q_ERROR_BUCKETS] + ["+Inf"]
        return tuple(zip(labels, self.bucket_counts))

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "queries": list(self.queries),
            "runs": self.runs,
            "observations": self.observations,
            "mean_q": self.mean_q,
            "recent_mean_q": self.recent_mean_q,
            "max_q": self.max_q,
            "last_q": self.last_q,
            "histogram": {le: count for le, count in self.histogram()},
        }


class PlanQualityTracker:
    """Fold adaptive runs' estimated-vs-actual cardinalities per fingerprint.

    :meth:`observe` extracts the estimate/actual pairs from a (duck-typed)
    statistics object — per-step ``estimated_intermediate_sizes`` against
    ``intermediate_sizes`` and ``estimated_output_size`` against
    ``output_size`` — and folds their q-errors into the fingerprint's
    :class:`QualityRecord`.  Non-adaptive runs carry no estimates and are
    ignored.  A fingerprint drifts when its recent mean q-error exceeds
    ``drift_threshold`` over at least ``drift_min_runs`` recent runs.
    """

    def __init__(self, *, drift_threshold: float = 2.0,
                 drift_min_runs: int = 3, window: int = 32) -> None:
        if drift_threshold < 1.0:
            raise ValueError("q-errors are >= 1, so a drift threshold below "
                             "1.0 would flag every plan")
        self.drift_threshold = drift_threshold
        self.drift_min_runs = max(1, drift_min_runs)
        self.window = max(1, window)
        self._lock = threading.Lock()
        self._records: Dict[str, QualityRecord] = {}

    @staticmethod
    def _q_errors_from(statistics: object) -> Optional[List[float]]:
        """One run's q-errors as a plain list (``None`` when static/empty/served)."""
        if not getattr(statistics, "adaptive", False) \
                or getattr(statistics, "served", False):
            return None
        estimates = getattr(statistics, "estimated_intermediate_sizes",
                            None) or ()
        actuals = getattr(statistics, "intermediate_sizes", None) or ()
        values: List[float] = []
        append = values.append
        for estimated, actual in zip(estimates, actuals):
            # q_error() inlined — this runs once per join step per query
            # on the warm path, and the call overhead is measurable there.
            est = float(estimated) + 1.0 if estimated > 0 else 1.0
            act = float(actual) + 1.0 if actual > 0 else 1.0
            append(est / act if est >= act else act / est)
        estimated_output = getattr(statistics, "estimated_output_size", None)
        if estimated_output is not None:
            append(q_error(estimated_output,
                           getattr(statistics, "output_size", 0) or 0))
        if not values:
            return None
        return values

    @staticmethod
    def observation_from(fingerprint: str, query: str, statistics: object
                         ) -> Optional[QualityObservation]:
        """Reduce one statistics object to q-errors (``None`` when static)."""
        values = PlanQualityTracker._q_errors_from(statistics)
        if values is None:
            return None
        return QualityObservation(fingerprint=fingerprint, query=query,
                                  q_errors=tuple(values))

    def observe(self, *, fingerprint: str, query: str,
                statistics: object) -> Optional[QualityObservation]:
        """Fold one run; returns the observation (``None`` for static runs)."""
        observation = self.observation_from(fingerprint, query, statistics)
        if observation is None:
            return None
        with self._lock:
            record = self._records.get(fingerprint)
            if record is None:
                record = self._records[fingerprint] = \
                    QualityRecord(fingerprint, self.window)
            record.fold(observation)
        return observation

    def fold_run(self, *, fingerprint: str, query: str,
                 statistics: object) -> None:
        """:meth:`observe` minus the observation object — the warm path."""
        values = self._q_errors_from(statistics)
        if values is None:
            return
        with self._lock:
            record = self._records.get(fingerprint)
            if record is None:
                record = self._records[fingerprint] = \
                    QualityRecord(fingerprint, self.window)
            record.fold_values(query, values)

    def record(self, fingerprint: str) -> Optional[QualityRecord]:
        """The accumulated record of one fingerprint (``None`` when unseen)."""
        with self._lock:
            return self._records.get(fingerprint)

    def records(self) -> Tuple[QualityRecord, ...]:
        """Every fingerprint's record, fingerprint-sorted."""
        with self._lock:
            return tuple(self._records[key] for key in sorted(self._records))

    def is_drifted(self, record: QualityRecord) -> bool:
        """The drift predicate (recent mean above threshold, enough runs)."""
        return (len(record.recent) >= self.drift_min_runs
                and record.recent_mean_q > self.drift_threshold)

    def drifted_fingerprints(self) -> Tuple[str, ...]:
        """Fingerprints whose recent estimates have drifted, sorted."""
        return tuple(record.fingerprint for record in self.records()
                     if self.is_drifted(record))

    def to_dict(self) -> Dict[str, object]:
        """The ``/quality`` JSON document."""
        records = self.records()
        return {
            "drift_threshold": self.drift_threshold,
            "drift_min_runs": self.drift_min_runs,
            "fingerprints": [dict(record.to_dict(),
                                  drifted=self.is_drifted(record))
                             for record in records],
            "drifted": list(self.drifted_fingerprints()),
        }

    def clear(self) -> None:
        """Drop every record (tests)."""
        with self._lock:
            self._records.clear()
