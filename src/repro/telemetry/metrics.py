"""Counters, gauges and histograms with a Prometheus text exposition.

Each :class:`~repro.engine.session.EngineSession` owns one registry, and it
is the only place an execution is counted: the session writes an
execution's counters and histograms with one :meth:`MetricsRegistry.record`
call, and everything polled from live state (counts as counters, sizes as
gauges) is published at scrape time by
:meth:`~repro.telemetry.monitor.SessionMonitor.collect` through
:meth:`MetricsRegistry.publish`.

Everything is plain stdlib: families are created on first use
(``registry.counter("engine_queries_total", labels={"kind": "acyclic"})``),
label sets address independent series within a family, and every series of
one registry shares one lock, so :meth:`MetricsRegistry.record` applies an
execution's counter increments and histogram observations under a single
acquisition.  A NaN or infinite amount, or a negative increment, raises
``ValueError`` and is never applied: either would poison its series for
good.  Two read-outs exist — :meth:`MetricsRegistry.snapshot` (a flat dict
for tests and JSON payloads) and :meth:`MetricsRegistry.render_prometheus`
(the ``# HELP`` / ``# TYPE`` text format with cumulative histogram buckets)
— and each reads every series under one acquisition of the same lock, so a
scrape never sees half of an execution.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Fixed latency buckets (seconds) for the per-phase/per-query histograms:
#: 100µs to 5s, roughly logarithmic — the engine's in-process range.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

LabelValues = Tuple[Tuple[str, str], ...]

#: Integral floats below this magnitude print exactly as integers; larger
#: ones keep ``repr``'s exponent form (``1e+300``, not 301 digits).
_EXACT_INTEGERS = 2.0 ** 53

#: Amounts are recorded only strictly inside ``(-_INF, _INF)``, which
#: refuses NaN too.
_INF = math.inf


def _label_key(labels: Optional[Mapping[str, object]]) -> LabelValues:
    """Canonical hashable form of a label mapping (values coerced to str)."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Backslash must go first (escaping an escape would otherwise double up),
    then the double quote that delimits the value, then the newline that
    delimits the line.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` string (backslash and newline only, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: LabelValues) -> str:
    """The ``{k="v",…}`` suffix of an exposition line ("" when unlabelled)."""
    if not labels:
        return ""
    escaped = [f'{key}="{_escape_label_value(value)}"' for key, value in labels]
    return "{" + ",".join(escaped) + "}"


def _format_value(value: float) -> str:
    """A sample value, sum or bucket bound in the text format, losslessly.

    Integral values print as integers (``1234567``, not ``1.23457e+06``),
    others as the shortest string that round-trips through ``float()``
    (``0.001``, ``1234.5678``); infinities and NaN as the format spells them.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < _EXACT_INTEGERS:
        return str(int(value))
    return repr(value)


def _cumulative(buckets: Sequence[float],
                counts: Sequence[int]) -> Tuple[Tuple[str, int], ...]:
    """Prometheus-style cumulative ``(le, count)`` pairs, ``+Inf`` last."""
    out: List[Tuple[str, int]] = []
    running = 0
    for bound, count in zip(buckets, counts):
        running += count
        out.append((_format_value(bound), running))
    out.append(("+Inf", running + counts[-1]))
    return tuple(out)


def _increment_error(amount: float) -> ValueError:
    """Why ``amount`` cannot be added to a counter (negative, NaN or infinite)."""
    if amount < 0:
        return ValueError("counters only go up")
    return ValueError(f"a counter cannot count {amount!r}")


def _observation_error(value: float) -> ValueError:
    """Why ``value`` (NaN or infinite: it would poison the sum) cannot be observed."""
    return ValueError(f"a histogram cannot observe {value!r}")


def _foreign_series_error() -> ValueError:
    """Why a batch refuses a series: another lock than its registry's guards it."""
    return ValueError("a batch records only its own registry's series")


class Counter:
    """A monotonically increasing count (also what a published series holds).

    ``lock`` is the series lock it is updated under: its registry's, shared
    by every series there; a counter built alone gets its own.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0.0,
                 lock: Optional[threading.Lock] = None) -> None:
        self._lock = lock if lock is not None else threading.Lock()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative and finite)."""
        if not 0 <= amount < _INF:
            raise _increment_error(amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> float:
        """The value, for a caller that holds the series lock."""
        return self._value


class _HistogramTimer:
    """``with histogram.time():`` — observe the block's wall-time on exit.

    The elapsed seconds are observed even when the body raises (the failure
    path's latency is still latency); the exception propagates.  The last
    measurement is kept on :attr:`elapsed_seconds` for callers that want the
    number as well as the observation.
    """

    __slots__ = ("_histogram", "_started", "elapsed_seconds")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._started = 0.0
        self.elapsed_seconds: Optional[float] = None

    def __enter__(self) -> "_HistogramTimer":
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_seconds = perf_counter() - self._started
        self._histogram.observe(self.elapsed_seconds)
        return False


class Histogram:
    """Fixed-bucket distribution (``lock`` as for :class:`Counter`)."""

    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float],
                 lock: Optional[threading.Lock] = None) -> None:
        self._lock = lock if lock is not None else threading.Lock()
        self._buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self._buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def time(self) -> _HistogramTimer:
        """A context manager observing the ``with`` block's wall-time."""
        return _HistogramTimer(self)

    def observe(self, value: float) -> None:
        """Record one observation (NaN or an infinity raises ``ValueError``)."""
        if not -_INF < value < _INF:
            raise _observation_error(value)
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def buckets(self) -> Tuple[float, ...]:
        return self._buckets

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _state(self) -> Tuple[Tuple[int, ...], float, int]:
        """``(bucket counts, sum, count)``, for a caller that holds the series lock."""
        return tuple(self._counts), self._sum, self._count


class _Family:
    """One metric family: a kind, a help string and its labelled series."""

    __slots__ = ("kind", "help", "buckets", "series")

    def __init__(self, kind: str, help: str,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: "Dict[LabelValues, object]" = {}


class MetricsRegistry:
    """Get-or-create metric families keyed by name.

    A name keeps the kind it was first created with; re-requesting it as a
    different kind raises ``ValueError``.  ``_lock`` guards the families;
    every series is updated and read under the one ``_series_lock``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series_lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(f"metric {name!r} already registered as a "
                                 f"{family.kind}, not a {kind}")
            return family

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        """The counter series for ``(name, labels)``, created on first use."""
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Counter(lock=self._series_lock)
        return series  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, object]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram series for ``(name, labels)``; buckets fix on first use."""
        chosen = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        family = self._family(name, "histogram", help, chosen)
        key = _label_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Histogram(family.buckets,
                                                        self._series_lock)
        return series  # type: ignore[return-value]

    def publish(self, name: str, kind: str, help: str,
                series: Iterable[Tuple[Mapping[str, object], float]]) -> None:
        """Make the family ``name`` hold exactly ``series`` (labels, value).

        ``kind`` is ``"counter"`` for a count that never goes down or
        ``"gauge"`` for a size.  A label set missing from ``series`` drops
        out of the family.  The swap is one assignment under the registry
        lock, so a concurrent read-out sees the old series or the new ones,
        never a half-built family.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"a published family is a counter or a gauge, not {kind!r}")
        family = self._family(name, kind, help)
        replacement: "Dict[LabelValues, object]" = {
            _label_key(labels): Counter(value, self._series_lock)
            for labels, value in series}
        with self._lock:
            family.series = replacement

    def record(self, increments: Sequence[Tuple[Counter, float]] = (),
               observations: Sequence[Tuple[Histogram, float]] = ()) -> None:
        """Apply ``(counter, amount)`` increments and ``(histogram, value)``
        observations under one acquisition of the series lock.

        The values are those :meth:`Counter.inc` and :meth:`Histogram.observe`
        would record.  Every amount, and every series' registry, is checked
        before any is applied: a failing batch raises ``ValueError`` and
        changes nothing.
        """
        lock = self._series_lock
        for counter, amount in increments:
            if not 0 <= amount < _INF:
                raise _increment_error(amount)
            if counter._lock is not lock:
                raise _foreign_series_error()
        for histogram, value in observations:
            if not -_INF < value < _INF:
                raise _observation_error(value)
            if histogram._lock is not lock:
                raise _foreign_series_error()
        with lock:
            for counter, amount in increments:
                counter._value += amount
            for histogram, value in observations:
                histogram._counts[bisect_left(histogram._buckets, value)] += 1
                histogram._sum += value
                histogram._count += 1

    def snapshot(self) -> Dict[str, object]:
        """A flat dict of every series: scalars for counters/gauges, dicts for histograms.

        Keys are ``name`` or ``name{k=v,…}``; histogram values carry
        ``count``/``sum`` plus cumulative ``buckets``.
        """
        out: Dict[str, object] = {}
        for name, family, states in self._read_out():
            for key, series, state in states:
                label_text = ",".join(f"{k}={v}" for k, v in key)
                full = f"{name}{{{label_text}}}" if label_text else name
                if family.kind == "histogram":
                    counts, total, count = state
                    out[full] = {
                        "count": count,
                        "sum": total,
                        "buckets": dict(_cumulative(series.buckets, counts)),
                    }
                else:
                    out[full] = state
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family, name-sorted."""
        lines: List[str] = []
        for name, family, states in self._read_out():
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, series, state in states:
                suffix = _format_labels(key)
                if family.kind == "histogram":
                    counts, total, count = state
                    for le, running in _cumulative(series.buckets, counts):
                        bucket_labels = key + (("le", le),)
                        lines.append(f"{name}_bucket"
                                     f"{_format_labels(bucket_labels)} {running}")
                    lines.append(f"{name}_sum{suffix} {_format_value(total)}")
                    lines.append(f"{name}_count{suffix} {count}")
                else:
                    lines.append(f"{name}{suffix} {_format_value(state)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def _read_out(self) -> List[Tuple[str, _Family, List[Tuple[LabelValues,
                                                              object, object]]]]:
        """Every family, name-sorted, with its label-sorted ``(labels, series, state)``.

        A state is what the series' ``_state()`` returns.  All of them are
        read under one acquisition of the series lock, so a read-out is one
        cut through the recorded executions: none is half-counted, and a
        histogram's count equals its ``+Inf`` bucket.
        """
        with self._lock:
            families = [(name, family, sorted(family.series.items()))
                        for name, family in sorted(self._families.items())]
        with self._series_lock:
            return [(name, family, [(key, series, series._state())
                                    for key, series in items])
                    for name, family, items in families]

    def clear(self) -> None:
        """Drop every family and series (tests)."""
        with self._lock:
            self._families.clear()
