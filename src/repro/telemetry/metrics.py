"""Counters, gauges and histograms with a Prometheus text exposition.

Each :class:`~repro.engine.session.EngineSession` owns one registry, and it
is the only place an execution is counted: the session writes its counters
and histograms once per execution, and everything polled from live state
(counts as counters, sizes as gauges) is published at scrape time by
:meth:`~repro.telemetry.monitor.SessionMonitor.collect` through
:meth:`MetricsRegistry.publish`.

Everything is plain stdlib: families are created on first use
(``registry.counter("engine_queries_total", labels={"kind": "acyclic"})``),
label sets address independent series within a family, and two read-outs
exist — :meth:`MetricsRegistry.snapshot` (a flat dict for tests and JSON
payloads) and :meth:`MetricsRegistry.render_prometheus` (the ``# HELP`` /
``# TYPE`` text format with cumulative histogram buckets).
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


class Counter:
    """A monotonically increasing count (also what a published series holds)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
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
    """Fixed-bucket distribution."""

    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self._buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self._buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def time(self) -> _HistogramTimer:
        """A context manager observing the ``with`` block's wall-time."""
        return _HistogramTimer(self)

    def observe(self, value: float) -> None:
        """Record one observation."""
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

    def cumulative_counts(self) -> Tuple[Tuple[str, int], ...]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self._buckets, counts):
            running += count
            out.append((_format_value(bound), running))
        out.append(("+Inf", running + counts[-1]))
        return tuple(out)


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
    different kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
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
                series = family.series[key] = Counter()
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
                series = family.series[key] = Histogram(family.buckets)
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
            _label_key(labels): Counter(value) for labels, value in series}
        with self._lock:
            family.series = replacement

    def snapshot(self) -> Dict[str, object]:
        """A flat dict of every series: scalars for counters/gauges, dicts for histograms.

        Keys are ``name`` or ``name{k=v,…}``; histogram values carry
        ``count``/``sum`` plus cumulative ``buckets``.
        """
        with self._lock:
            families = [(name, family, dict(family.series))
                        for name, family in sorted(self._families.items())]
        out: Dict[str, object] = {}
        for name, family, series_map in families:
            for key, series in sorted(series_map.items()):
                label_text = ",".join(f"{k}={v}" for k, v in key)
                full = f"{name}{{{label_text}}}" if label_text else name
                if family.kind == "histogram":
                    out[full] = {
                        "count": series.count,
                        "sum": series.sum,
                        "buckets": dict(series.cumulative_counts()),
                    }
                else:
                    out[full] = series.value
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family, name-sorted."""
        with self._lock:
            families = [(name, family, dict(family.series))
                        for name, family in sorted(self._families.items())]
        lines: List[str] = []
        for name, family, series_map in families:
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, series in sorted(series_map.items()):
                suffix = _format_labels(key)
                if family.kind == "histogram":
                    for le, count in series.cumulative_counts():
                        bucket_labels = key + (("le", le),)
                        lines.append(f"{name}_bucket"
                                     f"{_format_labels(bucket_labels)} {count}")
                    lines.append(f"{name}_sum{suffix} "
                                 f"{_format_value(series.sum)}")
                    lines.append(f"{name}_count{suffix} {series.count}")
                else:
                    lines.append(f"{name}{suffix} "
                                 f"{_format_value(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every family and series (tests)."""
        with self._lock:
            self._families.clear()
