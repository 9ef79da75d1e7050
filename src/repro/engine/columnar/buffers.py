"""Typed column buffers: the id interner and the batched compute backends.

The columnar layer stores every column as a compact ``array('q')`` of
**value ids**: a process-generation :class:`ValueInterner` maps each distinct
value to a dense integer, so equal values in *different* blocks encode to
equal ids and every kernel compares machine integers instead of Python
objects.  Decoding happens only at the result boundary, through the
interner's reverse table.

A **multi-attribute key** is not interned: its code is a pure function of
its component ids — the Horner pack ``((c1·P + c2)·P + c3)…`` over the fixed
per-width radix of :func:`key_radix` — computed for a whole block in one
arithmetic pass by the backends' ``pack_keys``.  Only a row with a component
the radix cannot hold falls back to the interner (see
:meth:`ValueInterner.combine`), and that decision is taken **per row**, so a
tuple's code never depends on which block, backend or thread computed it.

On top of the id arrays sits a small **column-buffer backend** interface —
the batched counterparts of "probe one key": pack a multi-attribute key,
build a membership structure from a code column and filter a whole position
vector by it, count a column's distinct codes, probe a join table
with a whole code array, gather a column by a position vector, keep first
occurrences.  Two implementations ship:

* :class:`ArrayColumnBackend` — pure Python over ``array('q')``; always
  available, and the reference the property suite holds numpy to;
* :class:`NumpyColumnBackend` — the same operations vectorized with
  ``numpy`` (``frombuffer`` gives zero-copy int64 views of the id arrays);
  registered only when numpy imports.

The active backend resolves per call site: an execution-scoped override
(:func:`use_column_backend`, installed by the evaluators from
``ExecutionOptions.column_backend``) wins over the process default, which is
seeded from ``REPRO_COLUMN_BACKEND`` or auto-detection (numpy when present).
Both backends consume and produce the same canonical ``array('q')``
selection vectors, so blocks built under one backend are probed by the
other without conversion — the backend changes *compute*, never *state*.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from contextlib import contextmanager
from itertools import compress
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ValueInterner",
    "key_radix",
    "ArrayColumnBackend",
    "NumpyColumnBackend",
    "COLUMN_BACKENDS",
    "available_column_backends",
    "default_column_backend",
    "set_default_column_backend",
    "resolve_column_backend",
    "active_column_backend",
    "use_column_backend",
]

try:  # pragma: no cover - exercised on both legs of the CI numpy matrix
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: The canonical positions type: a selection vector or a full ``range``.
Positions = Union[array, range]

IdArray = array


# --------------------------------------------------------------------------- #
# The interner
# --------------------------------------------------------------------------- #
class ValueInterner:
    """A dense value → id dictionary shared by every block of one generation.

    Ids are allocated from a single counter and index one reverse table.
    Reads never lock: :meth:`encode` resolves the values it already knows in
    one lock-free C-level pass and :meth:`decode` indexes the reverse table;
    only *storing* a value takes the lock, and stores the value before its id
    is published, so every id a reader can see already decodes.
    ``locked_cells`` counts the cells :meth:`encode` resolved under the lock
    (read by :func:`~repro.engine.columnar.column_cache_info`).
    Besides plain values the counter also serves the **overflow** key tuples
    — the rows of a multi-attribute key with a component id too large for
    that width's :func:`key_radix`, which cannot be packed arithmetically
    (:meth:`combine`; nothing else reaches ``_tuple_ids``).  They get a
    forward dictionary of their own so a tuple-*valued* column entry can
    never collide with a tuple-of-ids key.  A new
    interner is installed by :func:`~repro.engine.columnar.clear_column_caches`;
    storages keep a reference to the interner they were encoded under, so
    blocks that survive a cache clear still decode — they just cannot be
    combined with blocks of a newer generation (the kernels check).
    """

    __slots__ = ("_value_ids", "_tuple_ids", "values", "locked_cells", "_lock")

    def __init__(self) -> None:
        self._value_ids: Dict[Any, int] = {}
        self._tuple_ids: Dict[Tuple[int, ...], int] = {}
        #: id → original value (overflow key tuples are stored too, keeping
        #: indexes aligned; they are never decoded).
        self.values: List[Any] = []
        self.locked_cells = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, column: Iterable[Any]) -> IdArray:
        """Intern one column of values into an id array.

        Known values resolve **lock-free in one C-level pass**
        (``map(ids.get, column)``); a column of known values never takes the
        lock.  Only the cells that pass left unresolved go under the lock,
        in column order, where each is looked up again — an earlier cell of
        this column or another thread may have stored it since — and stored
        otherwise.  A column whose *first* value is unknown is taken to be
        mostly new (a first ingest) and sends every cell to the locked loop
        without the lookup pass, which would only add to its cost.  Either
        way the ids are those a per-cell loop assigns: dense, new values
        numbered in first-appearance order.
        """
        column = column if type(column) is list else list(column)
        ids = self._value_ids
        if column and ids.get(column[0]) is None:
            resolved: List[Any] = [None] * len(column)
            misses: Iterable[int] = range(len(column))
        else:
            resolved = list(map(ids.get, column))
            # ``list.index`` scans at C level: one pass, a call per miss.
            find = resolved.index
            try:
                position = find(None)
            except ValueError:  # every value known
                return array("q", resolved)
            misses = []
            try:
                while True:
                    misses.append(position)
                    position = find(None, position + 1)
            except ValueError:
                pass
        with self._lock:
            values = self.values
            for index in misses:
                value = column[index]
                encoded = ids.get(value)
                if encoded is None:
                    # Value before id: an id is never published while the
                    # lock-free readers could not yet resolve it.
                    encoded = len(values)
                    values.append(value)
                    ids[value] = encoded
                resolved[index] = encoded
            self.locked_cells += len(misses)
        return array("q", resolved)

    def combine(self, columns: Sequence[IdArray]) -> IdArray:
        """Intern per-position id tuples of a multi-attribute key into one id array.

        The overflow path of key packing, and only that: its one caller is
        ``_ColumnStorage.key_codes``, which hands it the rows ``pack_keys``
        could not pack (and stores ``-1 - id``, so an interned code can never
        equal a packed one).  A per-row loop under the interner lock — as
        slow as every multi-attribute key was before packing.
        """
        out = array("q")
        append = out.append
        ids = self._tuple_ids
        with self._lock:
            values = self.values
            for key in zip(*columns):
                encoded = ids.get(key)
                if encoded is None:
                    encoded = len(values)
                    values.append(key)
                    ids[key] = encoded
                append(encoded)
        return out

    def decode(self, column: IdArray) -> List[Any]:
        """The original values of one id column (lock-free, one C-level pass)."""
        return list(map(self.values.__getitem__, column))


# --------------------------------------------------------------------------- #
# Packed multi-attribute keys
# --------------------------------------------------------------------------- #
# Per key width k (from 2), the largest prime P with P**k < 2**63.  Odd on
# purpose: CPython hashes an int to itself, so with a power-of-two radix
# (``a << 31 | b``) every key sharing its last component would land on the
# same low bits of every set and dict the codes go into.
_KEY_RADIX = dict(enumerate((
    3037000493, 2097143, 55103, 6203, 1447, 509, 233, 127, 73, 47, 37, 23, 19,
    17, 13, 13, 11, 7, 7, 7, 7, 5, 5, 5, 5, 5, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3), start=2))


def key_radix(width: int) -> int:
    """The radix ``P`` keys of ``width`` attributes are packed over.

    A row whose every component id is below ``P`` packs to
    ``((c1·P + c2)·P + c3)…``, which is below ``P**width < 2**63`` and unique
    to the tuple; any other row overflows to the interner.  ``P`` depends on
    the width alone — never on the data — which is what makes a tuple's code
    the same in every block.  No odd prime fits from width 40 on: the radix
    is then 1, which only the all-zero tuple is below.
    """
    return _KEY_RADIX.get(width, 1)


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
#: The span rule of the numpy membership structure: codes spanning fewer than
#: this many slots per build row are addressed directly, wider ones sorted.
#: A property of the input — how dense the build side's ids are — and the
#: rule ``numpy.isin`` applies internally for the same choice: a table costs
#: a byte per slot of span, a sorted probe ~log2(rows) compares per probe.
DENSE_SPAN_FACTOR = 8


class ArrayColumnBackend:
    """The always-available pure-Python backend over ``array('q')`` buffers.

    Loops are written against C-level building blocks (``map`` +
    ``array.__init__``, list comprehensions over int membership, ``extend``
    of cached buckets) so even without numpy the kernels move whole position
    vectors per call instead of rebuilding Python tuples per row.
    """

    name = "array"

    def selection(self, positions: Iterable[int]) -> IdArray:
        """Canonicalise any position iterable into an ``array('q')`` vector."""
        if type(positions) is array:
            return positions
        return array("q", positions)

    def take(self, column: IdArray, positions: Positions) -> IdArray:
        """Gather ``column[p]`` for every selected position, as a new id array."""
        return array("q", map(column.__getitem__, positions))

    @staticmethod
    def _lanes(column: IdArray) -> int:
        """The column's bytes as one big integer: a 64-bit lane per row."""
        return int.from_bytes(column.tobytes(), sys.byteorder)

    @staticmethod
    def _from_lanes(lanes: int, count: int) -> IdArray:
        """The inverse of :meth:`_lanes`: ``count`` lanes back into an id array."""
        out = array("q")
        out.frombytes(lanes.to_bytes(8 * count, sys.byteorder))
        return out

    def pack_keys(self, columns: Sequence[IdArray]) -> Tuple[IdArray, IdArray]:
        """Horner-pack the id columns of a multi-attribute key over :func:`key_radix`.

        Returns ``(codes, overflow)``: one non-negative code per position,
        and the positions of the rows with a component the radix cannot hold
        (their code is a placeholder the caller replaces).

        The arithmetic runs on whole columns: a column read as one big
        integer holds a 64-bit lane per row, and as long as no lane reaches
        ``2**64`` nothing carries into its neighbour, so one big-integer
        operation *is* that operation on every row.  Ids are non-negative
        and every Horner intermediate of a fitting row stays below
        ``radix**width < 2**63``, so ``lanes·P + next lanes`` is the per-row
        multiply-add.  (Nested ``map(add, map(P.__mul__, …), …)`` computes
        the same codes three to six times slower — at width 4 slower than
        interning the tuples was.)
        """
        radix = key_radix(len(columns))
        count = len(columns[0])
        lanes = [self._lanes(column) for column in columns]
        ones = self._lanes(array("q", (1,)) * count)
        # Lifting an id by 2**63 - radix sets its lane's top bit exactly when
        # the id is at or above the radix.
        lift = ones * ((1 << 63) - radix)
        high = 0
        for column_lanes in lanes:
            high |= column_lanes + lift
        high &= ones << 63
        overflow = array("q")
        if high:
            overflow = array("q", compress(range(count),
                                           self._from_lanes(high, count)))
            # An overflow row's pack would spill out of its lane: zero the
            # row in every column before the multiply.
            fitting = ~((high >> 63) * ((1 << 64) - 1))
            lanes = [column_lanes & fitting for column_lanes in lanes]
        packed = 0
        for column_lanes in lanes:
            packed = packed * radix + column_lanes
        return self._from_lanes(packed, count), overflow

    @staticmethod
    def _gathered(codes: IdArray, positions: Positions) -> Iterable[int]:
        """``codes[p]`` for every selected position, as a C-level iterator."""
        if type(positions) is range and len(positions) == len(codes):
            return codes
        return map(codes.__getitem__, positions)

    def key_set(self, codes: IdArray, positions: Positions) -> FrozenSet[int]:
        """The membership structure :meth:`filter_membership` probes (cached upstream).

        Built from the id codes at the selected positions directly; here it
        is their ``frozenset`` — the reference every other backend's
        structure must answer like.
        """
        return frozenset(self._gathered(codes, positions))

    def distinct_count(self, codes: IdArray, positions: Positions) -> int:
        """How many distinct codes the selected positions hold: the set size."""
        return len(set(self._gathered(codes, positions)))

    def filter_membership(self, codes: IdArray, positions: Positions,
                          prepared: FrozenSet[int]) -> IdArray:
        """The positions whose code is in the :meth:`key_set` structure."""
        flags = map(prepared.__contains__, self._gathered(codes, positions))
        return array("q", compress(positions, flags))

    def build_table(self, codes: IdArray, positions: Positions) -> Dict[int, IdArray]:
        """Group the selected positions by code — the hash-join build side.

        Buckets are ``array('q')`` so probing can splice them into the output
        with a same-typecode ``extend`` (a straight memory copy).
        """
        table: Dict[int, IdArray] = {}
        get = table.get
        for p, code in zip(positions, self._gathered(codes, positions)):
            bucket = get(code)
            if bucket is None:
                table[code] = array("q", (p,))
            else:
                bucket.append(p)
        return table

    def probe_table(self, table: Dict[int, IdArray], codes: IdArray,
                    positions: Positions) -> Tuple[IdArray, IdArray]:
        """Probe the build table with a whole position vector.

        Returns ``(build positions, probe positions)`` — one matched pair per
        output row, probe-major, build buckets in position order.
        """
        build_out = array("q")
        probe_out = array("q")
        build_extend = build_out.extend
        probe_append = probe_out.append
        probe_extend = probe_out.extend
        get = table.get
        for p, code in zip(positions, self._gathered(codes, positions)):
            bucket = get(code)
            if bucket is not None:
                build_extend(bucket)
                if len(bucket) == 1:
                    probe_append(p)
                else:
                    probe_extend([p] * len(bucket))
        return build_out, probe_out

    def first_occurrence(self, columns: Sequence[IdArray],
                         positions: Positions) -> IdArray:
        """The selected positions whose visible id tuple appears for the first time."""
        keep = array("q")
        keep_append = keep.append
        seen: set = set()
        seen_add = seen.add
        if len(columns) == 1:
            column = columns[0]
            for p in positions:
                code = column[p]
                if code not in seen:
                    seen_add(code)
                    keep_append(p)
            return keep
        # Gather each column C-side first, then let zip build the key tuples
        # in C — an order of magnitude cheaper than a per-row genexpr.
        if type(positions) is range:
            gathered: Sequence[IdArray] = columns
        else:
            gathered = [array("q", map(column.__getitem__, positions))
                        for column in columns]
        index = 0
        for key in zip(*gathered):
            if key not in seen:
                seen_add(key)
                keep_append(positions[index])
            index += 1
        return keep


class NumpyColumnBackend:
    """The numpy backend: identical semantics, vectorized compute.

    Id arrays are viewed zero-copy via ``np.frombuffer``; membership and
    join probes run on sorted code tables with ``searchsorted`` (stable
    sorts preserve position order inside equal keys, so outputs match the
    array backend pair for pair); results are copied back into canonical
    ``array('q')`` vectors so downstream blocks stay backend-agnostic.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:  # pragma: no cover - registry never builds it then
            raise RuntimeError("numpy is not installed")

    @staticmethod
    def _view(buffer: IdArray) -> "Any":
        if len(buffer) == 0:
            return _np.empty(0, dtype=_np.int64)
        return _np.frombuffer(buffer, dtype=_np.int64)

    @classmethod
    def _positions(cls, positions: Positions) -> "Any":
        if type(positions) is range:
            return _np.arange(positions.start, positions.stop, dtype=_np.int64)
        if type(positions) is array:
            return cls._view(positions)
        return _np.asarray(positions, dtype=_np.int64)

    @staticmethod
    def _to_q(vector: "Any") -> IdArray:
        out = array("q")
        # ``frombytes`` reads the contiguous array's own buffer: one copy.
        out.frombytes(_np.ascontiguousarray(vector, dtype=_np.int64)
                      .view(_np.uint8))
        return out

    def selection(self, positions: Iterable[int]) -> IdArray:
        if type(positions) is array:
            return positions
        if _np is not None and isinstance(positions, _np.ndarray):
            return self._to_q(positions)
        return array("q", positions)

    def take(self, column: IdArray, positions: Positions) -> IdArray:
        return self._to_q(self._view(column)[self._positions(positions)])

    def pack_keys(self, columns: Sequence[IdArray]) -> Tuple[IdArray, IdArray]:
        """The array backend's pack, byte for byte, as int64 multiply-adds.

        The arithmetic runs over the zero-copy column views straight into the
        returned ``array('q')``'s buffer.
        """
        radix = key_radix(len(columns))
        codes = array("q", (0,)) * len(columns[0])
        overflow = array("q")
        if not codes:
            return codes, overflow
        views = [self._view(column) for column in columns]
        fits = views[0] < radix
        for view in views[1:]:
            fits &= view < radix
        if not fits.all():
            overflow = self._to_q(_np.flatnonzero(~fits))
            # int64 wraps silently, so the overflow rows are zeroed before
            # the multiply.
            views = [view * fits for view in views]
        packed = _np.frombuffer(codes, dtype=_np.int64)
        _np.multiply(views[0], radix, out=packed)
        _np.add(packed, views[1], out=packed)
        for view in views[2:]:
            _np.multiply(packed, radix, out=packed)
            _np.add(packed, view, out=packed)
        return codes, overflow

    def _gathered(self, codes: IdArray, positions: Positions) -> "Any":
        """``codes[p]`` for every selected position (the bare view for all of them)."""
        view = self._view(codes)
        if type(positions) is range and len(positions) == len(view):
            return view
        return view[self._positions(positions)]

    def key_set(self, codes: IdArray, positions: Positions) -> "Any":
        """The selected codes as a membership structure, built without boxing one.

        Ids are dense by construction — that is what the interner is for —
        so a column's codes normally span little more than its row count,
        and membership is then **direct addressing**: ``(floor, table)``, a
        boolean table over ``[min, max]`` with one ``False`` sentinel slot
        at each end (``floor = min - 1``), which :meth:`_member_mask` reads
        after clipping every probe into ``[floor, max + 1]``.  When the span
        exceeds :data:`DENSE_SPAN_FACTOR` times the build rows — every
        packed multi-attribute key — the structure is the sorted distinct
        codes, probed by ``searchsorted``.
        """
        values = self._gathered(codes, positions)
        if values.size == 0:
            return values
        low = int(values.min())
        high = int(values.max())
        # The sentinels' own codes must be int64s too, or clipping to them
        # would wrap.
        if high - low < DENSE_SPAN_FACTOR * values.size \
                and -(1 << 63) < low and high < (1 << 63) - 1:
            table = _np.zeros(high - low + 3, dtype=bool)
            table[values - (low - 1)] = True
            return low - 1, table
        ordered = _np.sort(values)
        head = _np.empty(ordered.size, dtype=bool)
        head[0] = True
        _np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        return ordered[head]

    def distinct_count(self, codes: IdArray, positions: Positions) -> int:
        """How many distinct codes the selected positions hold, none boxed.

        The size of the :meth:`key_set` structure: the ``True`` slots of the
        dense table, or the length of the sorted distinct codes.
        """
        prepared = self.key_set(codes, positions)
        if type(prepared) is tuple:
            return int(_np.count_nonzero(prepared[1]))
        return int(prepared.size)

    @staticmethod
    def _member_mask(prepared: "Any", values: "Any") -> "Any":
        if type(prepared) is tuple:
            floor, table = prepared
            # Clip first, subtract second: the difference of two clipped
            # codes always fits, so no int64 wrap can land on a True slot.
            slots = _np.clip(values, floor, floor + (table.size - 1))
            slots -= floor
            return table[slots]
        if prepared.size == 0:
            return _np.zeros(values.shape, dtype=bool)
        slots = _np.searchsorted(prepared, values)
        # A value greater than every key lands one past the end; clamping it
        # to slot 0 is safe — such a value can never equal prepared[0].
        slots[slots == prepared.size] = 0
        return prepared[slots] == values

    def filter_membership(self, codes: IdArray, positions: Positions,
                          prepared: "Any") -> IdArray:
        selected = self._positions(positions)
        mask = self._member_mask(prepared, self._view(codes)[selected])
        return self._to_q(selected[mask])

    def build_table(self, codes: IdArray, positions: Positions) -> Tuple["Any", "Any"]:
        selected = self._positions(positions)
        values = self._view(codes)[selected]
        order = _np.argsort(values, kind="stable")
        return values[order], selected[order]

    def probe_table(self, table: Tuple["Any", "Any"], codes: IdArray,
                    positions: Positions) -> Tuple[IdArray, IdArray]:
        sorted_codes, sorted_positions = table
        selected = self._positions(positions)
        values = self._view(codes)[selected]
        lower = _np.searchsorted(sorted_codes, values, side="left")
        upper = _np.searchsorted(sorted_codes, values, side="right")
        counts = upper - lower
        total = int(counts.sum())
        if total == 0:
            return array("q"), array("q")
        probe_out = _np.repeat(selected, counts)
        # Expand each probe's [lower, upper) match range: repeat the range
        # starts, then add a per-output offset that restarts at every probe.
        starts = _np.repeat(lower, counts)
        resets = _np.repeat(_np.cumsum(counts) - counts, counts)
        build_out = sorted_positions[starts + _np.arange(total) - resets]
        return self._to_q(build_out), self._to_q(probe_out)

    def first_occurrence(self, columns: Sequence[IdArray],
                         positions: Positions) -> IdArray:
        """First occurrences by one plain sort (see :meth:`_first_indexes`)."""
        selected = self._positions(positions)
        if selected.size == 0:
            return array("q")
        if len(columns) == 1:
            values = self._view(columns[0])[selected]
        else:
            # Pack the per-column ids into one int64 key (mixed-radix over
            # each column's id range).  Ids are dense and small, so the
            # packed range almost never overflows; when it would, fall back
            # to the scalar tuple loop.
            gathered = [self._view(column)[selected] for column in columns]
            values = self._pack(gathered)
            if values is None:
                seen: set = set()
                add = seen.add
                keep = array("q")
                append = keep.append
                for index, key in enumerate(zip(*gathered)):
                    if key not in seen:
                        add(key)
                        append(int(selected[index]))
                return keep
        first = self._first_indexes(values)
        if first.size == selected.size:
            return self._to_q(selected)
        return self._to_q(selected[first])

    @staticmethod
    def _first_indexes(values: "Any") -> "Any":
        """The index of every value's first occurrence, ascending (``values`` non-empty).

        Each value is tagged with its index — ``(value − min)·n + index`` in
        one int64 — so one plain ``sort`` groups equal values *and* orders
        each group by index: the head of every run is a first occurrence,
        found by one neighbour compare.  When the tag would not fit 63 bits
        the same run-head scan reads a stable argsort instead.
        """
        count = values.size
        low = int(values.min())
        head = _np.empty(count, dtype=bool)
        head[0] = True
        if (int(values.max()) - low + 1) * count < (1 << 63):
            tagged = (values - low) * count
            tagged += _np.arange(count)
            tagged.sort()
            keys = tagged // count
            _np.not_equal(keys[1:], keys[:-1], out=head[1:])
            first = tagged[head] - keys[head] * count
        else:
            order = _np.argsort(values, kind="stable")
            ordered = values[order]
            _np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
            first = order[head]
        first.sort()
        return first

    @staticmethod
    def _pack(gathered: Sequence["Any"]) -> Optional["Any"]:
        """Mixed-radix-pack gathered id columns into one int64 key array.

        Returns ``None`` when the packed range could overflow 63 bits.
        """
        if gathered[0].size == 0:
            return gathered[0]
        radix = 1
        for values in gathered:
            radix *= int(values.max()) + 1
            if radix >= (1 << 63):
                return None
        packed = gathered[0]
        for values in gathered[1:]:
            packed = packed * (int(values.max()) + 1) + values
        return packed


# --------------------------------------------------------------------------- #
# Registry, default, and execution-scoped override
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, object] = {"array": ArrayColumnBackend()}
if _np is not None:
    _BACKENDS["numpy"] = NumpyColumnBackend()

#: Every backend name the interface knows, installed or not (for validation).
COLUMN_BACKENDS = ("array", "numpy")


def available_column_backends() -> Tuple[str, ...]:
    """The backend names usable in this process (``numpy`` only when importable)."""
    return tuple(name for name in COLUMN_BACKENDS if name in _BACKENDS)


def _initial_default() -> str:
    forced = os.environ.get("REPRO_COLUMN_BACKEND")
    if forced:
        if forced not in COLUMN_BACKENDS:
            raise ValueError(f"REPRO_COLUMN_BACKEND={forced!r} is not one of "
                             f"{COLUMN_BACKENDS}")
        if forced not in _BACKENDS:
            raise ValueError(f"REPRO_COLUMN_BACKEND={forced!r} requested but "
                             f"that backend is not installed")
        return forced
    return "numpy" if "numpy" in _BACKENDS else "array"


_DEFAULT_BACKEND = _initial_default()


def default_column_backend() -> str:
    """The process-wide default backend name (auto-detected unless overridden)."""
    return _DEFAULT_BACKEND


def set_default_column_backend(name: str) -> str:
    """Set the process-wide default backend; return the previous name."""
    global _DEFAULT_BACKEND
    if name not in COLUMN_BACKENDS:
        raise ValueError(f"unknown column backend {name!r}; "
                         f"expected one of {COLUMN_BACKENDS}")
    if name not in _BACKENDS:
        raise ValueError(f"column backend {name!r} is not available "
                         f"(numpy is not installed)")
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


def resolve_column_backend(name: Optional[str]) -> object:
    """``None`` → the active (override or default) backend; a name is validated."""
    if name is None:
        return active_column_backend()
    if name not in COLUMN_BACKENDS:
        raise ValueError(f"unknown column backend {name!r}; "
                         f"expected one of {COLUMN_BACKENDS} or None")
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(f"column backend {name!r} is not available "
                         f"(numpy is not installed)")
    return backend


_ACTIVE = threading.local()


def active_column_backend() -> object:
    """The backend the kernels use right now: the innermost override, else the default."""
    override = getattr(_ACTIVE, "backend", None)
    if override is not None:
        return override
    return _BACKENDS[_DEFAULT_BACKEND]


@contextmanager
def use_column_backend(backend: object):
    """Install ``backend`` as this thread's active backend for the duration."""
    previous = getattr(_ACTIVE, "backend", None)
    _ACTIVE.backend = backend
    try:
        yield backend
    finally:
        _ACTIVE.backend = previous
