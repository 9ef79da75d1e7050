"""Columnar blocks: typed id arrays per attribute with positional selection vectors.

A :class:`ColumnBlock` is the columnar physical representation of a relation:
one ``array('q')`` of dictionary-encoded value ids per attribute plus an
optional *selection vector* of storage positions.  Filtering a block
(a semijoin) only replaces the selection vector; projecting or
renaming it only changes the visible column set — the underlying
:class:`_ColumnStorage` (and everything cached on it: grouped key encodings,
membership structures, join tables, memoised semijoin outcomes) is shared
zero-copy by every derived block.

Values are interned through the generation's
:class:`~repro.engine.columnar.buffers.ValueInterner`, so equal values in
*different* blocks encode to equal integer ids and every kernel compares
machine integers; a multi-attribute key is the arithmetic pack of its
component ids (:func:`~repro.engine.columnar.buffers.key_radix`), equal
across blocks for the same reason, and only a row the radix cannot hold
interns its id tuple.  Decoding back to values happens only at the result
boundary (or on the opt-in :meth:`ColumnBlock.value_at` accessors).

**Selection-aware derived caches** are what make re-executions over cached
relations cheap: membership structures and join tables are cached on the
storage keyed by ``(kind, attributes, selection key, backend)``, and the
kernels file whole semijoin outcomes and join results there under both
sides' selection keys.  A run over already-encoded relations (say, a second
database binding over the same relation objects) reproduces the same
selection vectors over the same cached base-block storages, so every reducer
step is answered from its memoised outcome and builds nothing, and the
answer's decode and wire document are served from the result storage's memo
— ``keyset_*``, ``relation_*`` and ``payload_*`` hits / misses in
:func:`column_cache_info` make that observable.  (A warm execute on the
*same* binding reaches none of this: the binding serves its memoised
outcome, counted as ``binding_outcome_hits``.)  No Python set of key ids
exists anywhere: a membership structure is built from the id codes by the
backend (``key_set``).

**A selection's key is hashed once.**  The key is the selection vector's
bytes (``None`` for an unselected block), so keys stay content-addressed:
two blocks with byte-identical selections share every entry.  Each block
materialises its key at most once (:meth:`ColumnBlock.selection_bytes`), the
zero-copy derivations hand it to the blocks they make, and a memoised
semijoin outcome stores its kept vector *with* its key — so a warm run meets
the very bytes objects its cache keys already hold: CPython has cached their
hash, and key equality short-circuits on identity.  A warm step is an O(1)
lookup, not an O(rows) copy, hash and compare (``selection_keys`` in
:func:`column_cache_info` counts the keys materialised: 0 on a warm run).

Blocks built from relations are cached per relation *object*, weakly
(:func:`block_for`: ``id(relation)`` → weakref + block), so repeated
executions over one database encode each stored relation exactly once, a hot
lookup is O(1) instead of a whole-relation comparison, and two value-equal
relations that differ in name or column order each get their own block.
Encoding is one transposed walk over the rows
(:meth:`ColumnBlock.from_relation`); the first thing that touches a
never-seen relation — normally its statistics catalog, which is counted from
the id columns — pays it, and everything after finds the block cached.

Blocks are the engine's only physical representation: the reducer, the join
fold and the cluster materialisation all run on them, and an answer becomes
a :class:`~repro.relational.relation.Relation` only at the result boundary.
:mod:`repro.relational` computes the same answers with no engine code at
all, which is what the differential tests compare against.
"""

from __future__ import annotations

import json
import threading
import weakref
from array import array
from functools import partial
from itertools import count, repeat
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ...core.nodes import sorted_nodes
from ...exceptions import SchemaError, UnknownAttributeError
from ...relational.relation import Relation, Row, _RowSchema
from ...relational.schema import Attribute, RelationSchema
from .buffers import ValueInterner, active_column_backend

__all__ = [
    "ColumnBlock",
    "WirePayload",
    "block_for",
    "peek_block",
    "column_cache_info",
    "column_cache_reports",
    "clear_column_caches",
    "current_interner",
]

KeyAttributes = Tuple[Attribute, ...]

#: How many derived structures (membership structures, join tables, …) one
#: storage retains before its cache is dropped wholesale — a crude bound that
#: keeps adversarial selection churn from accumulating unboundedly on
#: long-lived base blocks.
_DERIVED_CACHE_CAP = 512


class WirePayload(NamedTuple):
    """One answer's memoised wire document (:meth:`ColumnBlock.wire_payload`).

    ``text`` is the JSON of ``{"name": name, "columns": list(columns),
    "rows": rows, "row_count": len(rows)}``, so a caller that hands out
    that document can write ``text`` in its place instead of encoding the
    rows again.
    """

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    text: str


# --------------------------------------------------------------------------- #
# The encoding generation
# --------------------------------------------------------------------------- #
_INTERNER = ValueInterner()

# Process-wide traffic counters, so ``column_cache_info`` can report reuse
# across warm runs: semijoin membership structures built (``keyset_misses``)
# against semijoins answered without building one (``keyset_hits``), result
# relations decoded against ones served from their storage's memo
# (``relation_*``; ``payload_*`` for encoded wire documents), selection keys
# materialised (``selection_keys``), key rows that took the interner
# fallback instead of the arithmetic pack (``key_overflow_rows``), bound
# reduce-and-fold programs compiled (``fold_programs``), derived entries
# dropped at a storage's cap (``derived_evictions``) and bound runs served
# from, or stored into, their database binding's memo
# (``binding_outcome_*``).  They only grow.
# Guarded by ``_COUNTER_LOCK``: a bare ``+= 1`` compiles to a read-add-store
# sequence that loses updates when concurrent executes interleave, and these
# counters feed bench/test assertions that expect exact totals.
_COUNTERS: Dict[str, int] = dict.fromkeys(
    ("keyset_hits", "keyset_misses", "relation_hits", "relation_misses",
     "payload_hits", "payload_misses", "selection_keys", "key_overflow_rows",
     "fold_programs", "derived_evictions", "binding_outcome_hits",
     "binding_outcome_misses"), 0)
_COUNTER_LOCK = threading.Lock()
#: The ``locked_cells`` of every interner generation a clear has retired.
_RETIRED_LOCKED_CELLS = 0


def _count(counter: str, amount: int = 1) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[counter] += amount


def count_keyset(hit: bool, amount: int = 1) -> None:
    """Count ``amount`` semijoins: ``hit`` unless they built a membership structure."""
    if amount:
        _count("keyset_hits" if hit else "keyset_misses", amount)


def count_fold_program() -> None:
    """Count one bound reduce-and-fold program compiled (``fold_programs``)."""
    _count("fold_programs")


def count_binding_outcome(hit: bool) -> None:
    """Count one bound run: ``hit`` when its binding's memoised outcome served it."""
    _count("binding_outcome_hits" if hit else "binding_outcome_misses")


def selection_key(selection: array) -> bytes:
    """A selection vector's cache key — its bytes — counted as ``selection_keys``."""
    _count("selection_keys")
    return selection.tobytes()


def current_interner() -> ValueInterner:
    """The interner new encodings go through (swapped by :func:`clear_column_caches`)."""
    return _INTERNER


#: Where storages draw their ``token`` from: process-unique, never reused
#: (``next`` on a ``count`` is one C call, so concurrent builders cannot draw
#: the same serial).
_STORAGE_TOKENS = count()


class _ColumnStorage:
    """The shared, immutable id arrays one or more blocks view.

    ``key_codes`` memoises the grouped key encoding per key-attribute tuple
    (the bare id column for a single attribute, packed component ids
    otherwise); the ``_derived`` cache memoises everything computed *from*
    codes under a selection — backend membership structures, join tables,
    position groups, the kernels' semijoin outcomes and join results, the
    decoded result relation — keyed by the selection's key (its bytes, which
    the block hands in: :meth:`ColumnBlock.selection_bytes`), so every block
    with an equal selection over this storage (including the fresh but
    identical selections of a warm re-execution) reuses one build.

    **Concurrency contract** (concurrent executes share storages through the
    per-relation block cache): cached values are immutable once published and
    derivable only from immutable inputs, so *lookups* are lock-free — two
    threads racing on a cold key both build equivalent structures and the
    last insert wins, which wastes one build but never corrupts a result
    (CPython dict get/set are single bytecode operations).  The one compound
    mutation — the cap-eviction ``clear()`` followed by the insert in
    :meth:`_derived_put` — runs under the storage lock so an eviction cannot
    interleave halfway into another thread's insert.  Packing a key takes no
    lock at all — the code is arithmetic on immutable columns; interner
    stores (new values in encode, overflow rows in combine) are locked in
    :class:`~repro.engine.columnar.buffers.ValueInterner` itself; its
    lookups of known values and its decode are lock-free by the
    values-before-ids publication order there.

    ``token`` is what *other* storages' derived keys name this one by
    (:meth:`ColumnBlock.storage_token`): a serial, not the storage.  The
    reducer's two passes file each neighbour's result under the other, so a
    key holding the storage itself would tie every base storage of a
    database into a reference cycle only the cyclic collector can free, and
    let one live storage pin up to ``_DERIVED_CACHE_CAP`` dead ones.  A
    serial holds no reference (a dead database is freed by refcount) and is
    never reissued (a stale key can never match a later storage).
    """

    __slots__ = ("columns", "length", "interner", "token",
                 "_code_cache", "_derived", "_decoded", "_lock")

    def __init__(self, columns: Dict[Attribute, array], length: int,
                 interner: ValueInterner) -> None:
        self.columns = columns
        self.length = length
        self.interner = interner
        self.token = next(_STORAGE_TOKENS)
        self._code_cache: Dict[KeyAttributes, array] = {}
        self._derived: Dict[Tuple, Any] = {}
        self._decoded: Dict[Attribute, List[Any]] = {}
        self._lock = threading.Lock()

    # -- codes ----------------------------------------------------------- #
    def key_codes(self, attributes: KeyAttributes) -> array:
        """One encoded key id per storage position (cached per attribute tuple).

        A key of two or more attributes is packed by the active backend in
        one arithmetic pass (non-negative codes).  The rows it reports as
        overflowing — a component id at or above the width's radix — get
        ``-1 - interner.combine(their id tuple)`` instead: negative, so the
        two families cannot collide, and decided row by row, so equal tuples
        get equal codes whichever block, backend or thread computes them.
        ``key_overflow_rows`` counts the rows whose fallback code was
        actually *computed*: a ``_code_cache`` hit counts nothing, and two
        threads racing on one cold key both count.
        """
        if len(attributes) == 1:
            return self.columns[attributes[0]]
        cached = self._code_cache.get(attributes)
        if cached is None:
            backend = active_column_backend()
            columns = [self.columns[attribute] for attribute in attributes]
            cached, overflow = backend.pack_keys(columns)
            if overflow:
                _count("key_overflow_rows", len(overflow))
                interned = self.interner.combine(
                    [backend.take(column, overflow) for column in columns])
                for position, encoded in zip(overflow, interned):
                    cached[position] = -1 - encoded
            self._code_cache[attributes] = cached
        return cached

    # -- selection-aware derived structures ------------------------------ #
    def _derived_get(self, key: Tuple) -> Any:
        return self._derived.get(key)

    def _derived_put(self, key: Tuple, value: Any) -> Any:
        # Evict-then-insert is the one compound mutation on this dict; the
        # lock keeps a concurrent insert from landing between another
        # thread's clear() and insert (readers hold their own references, so
        # an eviction never invalidates a value already handed out).
        with self._lock:
            if len(self._derived) >= _DERIVED_CACHE_CAP:
                _count("derived_evictions", len(self._derived))
                self._derived.clear()
            self._derived[key] = value
        return value

    def prepared_set_for(self, attributes: KeyAttributes, sel: Optional[array],
                         sel_key: Optional[bytes], backend) -> Any:
        """The backend's membership structure over the selected key ids.

        Built from the id codes directly (``backend.key_set``), cached under
        the selection's key ``sel_key``, and counted: a build is a
        ``keyset_misses``, a cached one a ``keyset_hits``.
        """
        key = ("prepared", backend.name, attributes, sel_key)
        cached = self._derived_get(key)
        count_keyset(hit=cached is not None)
        if cached is None:
            positions = sel if sel is not None else range(self.length)
            cached = self._derived_put(
                key, backend.key_set(self.key_codes(attributes), positions))
        return cached

    def table_for(self, attributes: KeyAttributes, sel: Optional[array],
                  sel_key: Optional[bytes], backend) -> Any:
        """The backend's join build table over the selected positions (cached)."""
        key = ("table", backend.name, attributes, sel_key)
        cached = self._derived_get(key)
        if cached is None:
            codes = self.key_codes(attributes)
            positions = sel if sel is not None else range(self.length)
            cached = self._derived_put(key, backend.build_table(codes, positions))
        return cached

    # -- decode ---------------------------------------------------------- #
    def decoded_column(self, attribute: Attribute) -> List[Any]:
        """The full-length original values of one column (cached per attribute)."""
        cached = self._decoded.get(attribute)
        if cached is None:
            cached = self._decoded[attribute] = self.interner.decode(
                self.columns[attribute])
        return cached


class ColumnBlock:
    """A columnar view of a relation: shared id columns + a positional selection.

    Blocks are immutable; every operation returns a new block.  ``project``,
    ``rename`` and ``select`` are zero-copy (they share the storage), so the
    reducer's semijoin fixpoints and the join phase's fused projections never
    duplicate value arrays.  ``selection_key``, when given, must be the
    selection's bytes: a caller that already holds them passes them on, and
    ``attribute_set``, when given, must be ``frozenset(attributes)`` — the
    zero-copy derivations hand over their parent's.
    """

    __slots__ = ("_name", "_attributes", "_attribute_set", "_storage", "_sel",
                 "_sel_key", "_schema")

    def __init__(self, name: str, attributes: KeyAttributes,
                 storage: _ColumnStorage,
                 selection: Optional[array] = None,
                 selection_key: Optional[bytes] = None,
                 attribute_set: Optional[FrozenSet[Attribute]] = None) -> None:
        self._name = name
        self._attributes = attributes
        self._attribute_set: FrozenSet[Attribute] = (
            frozenset(attributes) if attribute_set is None else attribute_set)
        self._storage = storage
        self._sel = selection
        self._sel_key = selection_key
        self._schema: Optional[RelationSchema] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnBlock":
        """Encode a relation into id columns: one walk over the rows, transposed.

        :meth:`Relation.to_columns <repro.relational.relation.Relation.to_columns>`
        slices every value column out of the rows' values tuples in a single
        pass (no per-cell ``row[attribute]`` lookup); each column is then
        interned whole — its already-known values in one lock-free C-level
        pass, only the new ones under the interner lock
        (:meth:`ValueInterner.encode
        <repro.engine.columnar.buffers.ValueInterner.encode>`).
        """
        attributes = relation.schema.attributes
        rows, values = relation.to_columns()
        interner = _INTERNER
        columns: Dict[Attribute, array] = {
            attribute: interner.encode(values[attribute])
            for attribute in attributes}
        storage = _ColumnStorage(columns, len(rows), interner)
        return cls(relation.name, attributes, storage)

    @classmethod
    def from_columns(cls, name: str, attributes: Iterable[Attribute],
                     columns: Dict[Attribute, List[Any]], *,
                     length: Optional[int] = None) -> "ColumnBlock":
        """Intern freshly built value columns (all the same length) into a block.

        ``length`` is required for 0-ary blocks (no columns to measure): a
        projection that keeps no attributes still distinguishes "some row
        survived" from "no row survived" — the relational true/false
        boundary — so the row count cannot be inferred from an empty
        column dict.
        """
        attributes = tuple(attributes)
        lengths = {len(columns[attribute]) for attribute in attributes}
        if length is not None:
            lengths.add(length)
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns for block {name!r}: lengths {sorted(lengths)}")
        interner = _INTERNER
        encoded = {attribute: interner.encode(columns[attribute])
                   for attribute in attributes}
        return cls(name, attributes,
                   _ColumnStorage(encoded, lengths.pop() if lengths else 0,
                                  interner))

    @classmethod
    def _from_ids(cls, name: str, attributes: KeyAttributes,
                  columns: Dict[Attribute, array], length: int,
                  interner: ValueInterner) -> "ColumnBlock":
        """Wrap already-encoded id arrays (the kernels' output constructor)."""
        return cls(name, attributes, _ColumnStorage(columns, length, interner))

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The block's relation name (used when decoding)."""
        return self._name

    @property
    def attributes(self) -> KeyAttributes:
        """The visible attributes, in column order."""
        return self._attributes

    @property
    def attribute_set(self) -> FrozenSet[Attribute]:
        """The visible attributes as a frozenset (the hypergraph edge)."""
        return self._attribute_set

    @property
    def schema(self) -> RelationSchema:
        """The block's scheme as a :class:`RelationSchema` (lazily built)."""
        if self._schema is None:
            self._schema = RelationSchema(self._name, self._attributes)
        return self._schema

    @property
    def positions(self) -> Sequence[int]:
        """The selected storage positions, in selection order."""
        if self._sel is not None:
            return self._sel
        return range(self._storage.length)

    @property
    def interner(self) -> ValueInterner:
        """The interner this block's ids decode through (generation identity)."""
        return self._storage.interner

    def __len__(self) -> int:
        return len(self._sel) if self._sel is not None else self._storage.length

    @property
    def storage_length(self) -> int:
        """How many rows the underlying storage holds, selected or not.

        For a join kernel's output this is the number of pairs the probe
        produced *before* the fused projection's duplicate elimination
        (``len`` is what survived it) — the same on a whole-result cache hit,
        which returns the very block.
        """
        return self._storage.length

    def column(self, attribute: Attribute) -> array:
        """The *full-length* id array of one column (index by positions)."""
        if attribute not in self._attribute_set:
            raise UnknownAttributeError(attribute)
        return self._storage.columns[attribute]

    def decoded_column(self, attribute: Attribute) -> List[Any]:
        """The *full-length* original values of one column (cached on the storage)."""
        if attribute not in self._attribute_set:
            raise UnknownAttributeError(attribute)
        return self._storage.decoded_column(attribute)

    def value_at(self, attribute: Attribute, position: int) -> Any:
        """The original value at one storage position (a point decode)."""
        if attribute not in self._attribute_set:
            raise UnknownAttributeError(attribute)
        return self._storage.interner.values[
            self._storage.columns[attribute][position]]

    def key_codes(self, attributes: KeyAttributes) -> array:
        """Full-length encoded key ids for a key-attribute tuple (storage-cached)."""
        for attribute in attributes:
            if attribute not in self._attribute_set:
                raise UnknownAttributeError(attribute)
        return self._storage.key_codes(attributes)

    def prepared_key_set(self, attributes: KeyAttributes, backend) -> Any:
        """The backend's membership structure over the selected key ids (cached)."""
        return self._storage.prepared_set_for(attributes, self._sel,
                                              self.selection_bytes(), backend)

    def join_table(self, attributes: KeyAttributes, backend) -> Any:
        """The backend's join build table over the selected positions (cached)."""
        return self._storage.table_for(attributes, self._sel,
                                       self.selection_bytes(), backend)

    # ------------------------------------------------------------------ #
    # Cross-block derived caching (the kernels' warm-run result cache)
    # ------------------------------------------------------------------ #
    def selection_bytes(self) -> Optional[bytes]:
        """The selection's key: its bytes (``None`` = all positions) — a value key.

        Two blocks over one storage with equal selection bytes select the
        same rows in the same order, so kernel results computed from one are
        valid for the other — this is what lets a warm re-execution, which
        rebuilds fresh but identical selections, reuse every cached result.

        Materialised on first use and kept, so every later call returns the
        same object (whose hash CPython caches).  Two threads racing on the
        first call both build equal bytes and the last write wins.
        """
        key = self._sel_key
        if key is None and self._sel is not None:
            key = self._sel_key = selection_key(self._sel)
        return key

    def storage_token(self) -> int:
        """This block's storage's serial, for cross-block cache keys.

        Equal exactly when the storages are the same object, and — unlike
        the storage itself — safe to embed in *another* storage's cache keys
        without keeping this one alive.
        """
        return self._storage.token

    def derived_get(self, key: Tuple) -> Any:
        """Look up a kernel-level derived result cached on this block's storage."""
        return self._storage._derived.get(key)

    def derived_put(self, key: Tuple, value: Any) -> Any:
        """Cache a kernel-level derived result on this block's storage."""
        return self._storage._derived_put(key, value)

    # ------------------------------------------------------------------ #
    # Zero-copy derivations
    # ------------------------------------------------------------------ #
    def select(self, positions: Iterable[int],
               key: Optional[bytes] = None) -> "ColumnBlock":
        """The block restricted to the given storage positions (zero-copy).

        Passing this block's own selection vector (the kernels' fixpoint
        case) returns ``self`` — no new block, no re-materialised positions.
        ``key`` is the positions' bytes when the caller already has them
        (a memoised semijoin outcome); otherwise the new block computes its
        key on first use.
        """
        if positions is self._sel:
            return self
        if type(positions) is not array:
            positions = array("q", positions)
        return ColumnBlock(self._name, self._attributes, self._storage,
                           positions, key, self._attribute_set)

    def empty(self) -> "ColumnBlock":
        """The empty block over the same scheme (zero-copy)."""
        return ColumnBlock(self._name, self._attributes, self._storage,
                           array("q"), b"", self._attribute_set)

    def rename(self, name: str) -> "ColumnBlock":
        """The same block under a different relation name (zero-copy)."""
        return ColumnBlock(name, self._attributes, self._storage, self._sel,
                           self.selection_bytes(), self._attribute_set)

    def with_column_order(self, attributes: Iterable[Attribute]) -> "ColumnBlock":
        """The same rows with the visible columns permuted (zero-copy).

        The attribute *set* must be unchanged — this only picks a different
        display/decode order over the shared storage.  Used at the result
        boundary to canonicalise output column order, so the answer's
        columns do not depend on the annotation-chosen fold order.
        """
        attributes = tuple(attributes)
        if attributes == self._attributes:
            return self
        if frozenset(attributes) != self._attribute_set or \
                len(attributes) != len(self._attributes):
            raise SchemaError(
                f"with_column_order expects a permutation of {self._attributes}, "
                f"got {attributes}")
        return ColumnBlock(self._name, attributes, self._storage, self._sel,
                           self.selection_bytes(), self._attribute_set)

    def project_onto(self, keep: Iterable[Attribute]) -> "ColumnBlock":
        """Keep only the listed attributes, in this block's column order (zero-copy).

        Projection alone can introduce duplicate rows; callers that need set
        semantics follow up with :meth:`distinct` — the two are split so the
        reducer/join phases only pay deduplication where set semantics need it.
        """
        wanted = frozenset(keep)
        missing = wanted - self._attribute_set
        if missing:
            raise UnknownAttributeError(sorted_nodes(missing)[0])
        order = tuple(a for a in self._attributes if a in wanted)
        return ColumnBlock(self._name, order, self._storage, self._sel,
                           self.selection_bytes())

    def distinct(self) -> "ColumnBlock":
        """The block with duplicate (visible) rows removed, first occurrence kept.

        Returns ``self`` when the selected rows are already distinct, so
        fixpoints allocate nothing.  Runs on the active column backend.
        """
        count = len(self)
        if not self._attributes:
            # 0-ary: every surviving position is the same (empty) row.
            if count <= 1:
                return self
            return self.select(array("q", [next(iter(self.positions))]))
        keep = active_column_backend().first_occurrence(
            [self._storage.columns[attribute] for attribute in self._attributes],
            self.positions)
        if len(keep) == count:
            return self
        return self.select(keep)

    # ------------------------------------------------------------------ #
    # Decode boundary
    # ------------------------------------------------------------------ #
    def row_values(self, position: int) -> Tuple[Any, ...]:
        """The values of one storage position, in column order."""
        values = self._storage.interner.values
        return tuple(values[self._storage.columns[attribute][position]]
                     for attribute in self._attributes)

    def _gathered_values(self, attributes: KeyAttributes) -> List[Iterable[Any]]:
        """Per attribute, the decoded values at the selected positions, in order.

        The one bulk gather both result views are built on: each decoded
        column is indexed by the whole selection vector in a single C-level
        ``map`` (an unselected block *is* its decoded columns), so no
        per-row, per-cell Python code runs here or in the zips over it.
        """
        decoded = [self._storage.decoded_column(attribute)
                   for attribute in attributes]
        if self._sel is None:
            return decoded
        return [map(column.__getitem__, self._sel) for column in decoded]

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        """The selected rows as plain value tuples, in column order.

        The bulk row view — the gathered columns zipped — and what the query
        service serialises from: no :class:`Row`, no set.  A 0-ary block has
        no column to zip, so it yields one ``()`` per selected position.
        """
        if not self._attributes:
            return repeat((), len(self))
        return zip(*self._gathered_values(self._attributes))

    def to_relation(self, name: Optional[str] = None) -> Relation:
        """Decode the block back into a :class:`Relation` (the result boundary).

        Eager, and assembled column-wise: the values gathered per attribute
        in the row schema's canonical order, zipped, *are* the rows' values
        tuples, and every row points at the one interned schema.  What stays
        per row is what a ``Relation`` is made of — one
        :meth:`Row._from_values <repro.relational.relation.Row>` and one
        ``Row.__hash__`` into the ``frozenset`` — so the cost is linear in
        rows with a small constant and two allocations per row (values tuple,
        ``Row``), whatever the width.

        Memoised on the storage's derived cache under ``("relation", name,
        attributes, selection bytes)``, so a re-execution over the same
        relations, which ends on the same result storage and selection, is
        handed the very ``Relation`` it decoded before (immutable, so
        shareable across calls and threads) — counted as ``relation_hits`` /
        ``relation_misses``.  The memo dies with its storage and obeys the
        cache's cap; it holds no reference back to the storage.
        """
        key = self._memo_key("relation", name)
        relation = self._storage._derived_get(key)
        _count("relation_misses" if relation is None else "relation_hits")
        if relation is not None:
            return relation
        attributes = self._attributes
        schema = RelationSchema(key[1], attributes)
        layout = _RowSchema.of(attributes)
        if not attributes:
            rows = frozenset([Row._from_values(layout, ())] if len(self) else [])
        else:
            rows = frozenset(map(partial(Row._from_values, layout),
                                 zip(*self._gathered_values(layout.attributes))))
        return self._storage._derived_put(
            key, Relation.from_valid_rows(schema, rows))

    def peek_relation(self, name: Optional[str] = None) -> Optional[Relation]:
        """The relation :meth:`to_relation` memoised, or ``None`` (no build, no count)."""
        return self._storage._derived_get(self._memo_key("relation", name))

    def wire_payload(self, name: Optional[str] = None) -> WirePayload:
        """The query service's answer document: sorted rows plus their JSON text.

        The rows are :meth:`iter_rows` sorted by *list* ``repr`` and frozen
        as a tuple of tuples (``json.dumps`` writes them as lists); the text
        is ``json.dumps(..., default=str)`` of ``{"name", "columns", "rows",
        "row_count"}``, exactly the ``relation`` document the service sends.
        Both are memoised as one entry like :meth:`to_relation`, under
        ``("payload", name, attributes, selection bytes)``, counted once per
        lookup as ``payload_hits`` / ``payload_misses``: a warm re-execution
        neither gathers, sorts nor encodes.
        """
        key = self._payload_key(name)
        payload = self._storage._derived_get(key)
        _count("payload_misses" if payload is None else "payload_hits")
        if payload is not None:
            return payload
        rows = tuple(map(tuple, sorted(map(list, self.iter_rows()), key=repr)))
        columns = tuple(str(attribute) for attribute in self._attributes)
        text = json.dumps({"name": key[1], "columns": list(columns),
                           "rows": rows, "row_count": len(rows)}, default=str)
        return self._storage._derived_put(
            key, WirePayload(key[1], columns, rows, text))

    def wire_rows(self, name: Optional[str] = None) -> Tuple[Tuple[Any, ...], ...]:
        """The rows of :meth:`wire_payload` (one lookup, counted the same)."""
        return self.wire_payload(name).rows

    def peek_wire_rows(self, name: Optional[str] = None) -> Optional[Tuple]:
        """The rows :meth:`wire_payload` memoised, or ``None`` (no build, no count)."""
        payload = self._storage._derived_get(self._payload_key(name))
        return None if payload is None else payload.rows

    def _memo_key(self, kind: str, name: Optional[str]) -> Tuple:
        return (kind, name or self._name, self._attributes,
                self.selection_bytes())

    def _payload_key(self, name: Optional[str]) -> Tuple:
        # The document carries its name, so only ``None`` means the block's
        # own: an empty name is written as given.
        return ("payload", self._name if name is None else name,
                self._attributes, self.selection_bytes())

    def __repr__(self) -> str:
        names = ", ".join(str(a) for a in self._attributes)
        return f"ColumnBlock({self._name}({names}), {len(self)} rows)"


# --------------------------------------------------------------------------- #
# Per-relation block cache
# --------------------------------------------------------------------------- #
# Relations are immutable, so a block encoding never goes stale.  The cache
# is keyed by relation *identity* — ``id(relation) -> (weakref, block)`` —
# and an entry is a hit only when its weakref still resolves to the very
# object asked about:
#
# * a hot lookup is O(1) (``Relation.__eq__`` compares whole row sets, so a
#   value-keyed cache paid O(rows) on every hit);
# * value-equal relations may differ in name and column order, and a block
#   carries both, so each object gets its own block;
# * a recycled ``id()`` can never return a stale block — the dead relation's
#   weakref no longer resolves, whether or not its finalizer has run yet.
#
# The weakref's finalizer drops the entry, so relations and their blocks are
# reclaimed together.  The lock keeps the hit/miss counters and the
# check-then-insert coherent across concurrent executes; encoding itself runs
# outside the lock — two threads racing on the same cold relation may both
# encode (blocks are immutable and interchangeable; the first insert wins),
# which trades a little duplicate work for never blocking the cache on a
# large scan.  The per-storage derived caches are deliberately lock-free for
# the same reason: a race rebuilds an equivalent structure and last-write-wins.
_BLOCK_CACHE: Dict[int, Tuple["weakref.ref[Relation]", ColumnBlock]] = {}
_BLOCK_CACHE_LOCK = threading.Lock()
_BLOCK_HITS = 0
_BLOCK_MISSES = 0


def _cached_block(relation: Relation) -> Optional[ColumnBlock]:
    """The entry under ``id(relation)`` — if it still belongs to this very object."""
    entry = _BLOCK_CACHE.get(id(relation))
    if entry is not None and entry[0]() is relation:
        return entry[1]
    return None


def _forget_block(key: int, reference: "weakref.ref[Relation]") -> None:
    """Weakref finalizer: drop a dead relation's entry — without the lock.

    The garbage collector can fire this on an allocation *inside*
    :func:`block_for`, on the thread that already holds
    ``_BLOCK_CACHE_LOCK``; taking the (non-re-entrant) lock here would
    deadlock.  ``dict.get`` / ``dict.pop`` are each atomic, and the ``is``
    check keeps a finalizer from removing an entry that has since been
    replaced (the relation's memory is not released — so its ``id`` cannot be
    reissued — until this callback returns).
    """
    entry = _BLOCK_CACHE.get(key)
    if entry is not None and entry[0] is reference:
        _BLOCK_CACHE.pop(key, None)


def block_for(relation: Relation,
              lookups: Optional[List[int]] = None) -> ColumnBlock:
    """The (cached) columnar encoding of ``relation``, one block per relation object.

    ``lookups``, when given, is the caller's own ``[hits, misses]`` tally,
    bumped alongside the process-wide counters: how one engine run counts
    its lookups while other runs look blocks up concurrently.
    """
    global _BLOCK_HITS, _BLOCK_MISSES
    with _BLOCK_CACHE_LOCK:
        cached = _cached_block(relation)
        if cached is not None:
            _BLOCK_HITS += 1
            if lookups is not None:
                lookups[0] += 1
            return cached
        _BLOCK_MISSES += 1
    if lookups is not None:
        lookups[1] += 1
    block = ColumnBlock.from_relation(relation)
    key = id(relation)
    reference = weakref.ref(relation, partial(_forget_block, key))
    with _BLOCK_CACHE_LOCK:
        cached = _cached_block(relation)
        if cached is not None:
            return cached
        _BLOCK_CACHE[key] = (reference, block)
        return block


def peek_block(relation: Relation) -> Optional[ColumnBlock]:
    """The cached block of ``relation``, or ``None`` (no build, no counter bump)."""
    with _BLOCK_CACHE_LOCK:
        return _cached_block(relation)


def column_cache_info() -> Dict[str, int]:
    """Counts of the block cache, semijoin membership, the memos and the interner.

    Counts persist across :func:`clear_column_caches`; only the sizes
    (``relations``, ``interned_values``) drop with a clear.
    ``hits``/``misses``/``relations`` describe the per-relation block cache.
    Every columnar (anti)semijoin over a non-empty separator counts once:
    ``keyset_misses`` is the membership structures built, ``keyset_hits``
    the semijoins answered without building one — from the memoised outcome
    or over a structure already cached — so a run over already-reduced
    relations (a new binding over the same relation objects) is all hits and
    a first run over new data nearly all misses, one per reducer step.
    ``relation_misses`` counts the answers :meth:`ColumnBlock.to_relation`
    decoded, ``relation_hits`` those its storage memo served — a new binding
    over the same relations is a hit, a fresh database always misses
    (``payload_*`` likewise for :meth:`ColumnBlock.wire_payload`).
    ``selection_keys`` counts the selection keys materialised — at most one
    per selection a kernel makes, and none on a re-execution over the same
    relations, whose keys come with its memoised outcomes.
    ``interned_values`` is the current interner's size (it only grows within
    a generation); ``interner_locked_cells`` the column cells every
    generation's ``encode`` resolved under the lock — every cell of a column
    that starts with a new value, otherwise only the new values' — so
    re-encoding known values adds 0; ``key_overflow_rows`` counts the
    multi-attribute key rows that could not be packed and interned their id
    tuple instead — non-zero means some key width's radix has been outgrown
    and those rows pay the per-row loop.  ``fold_programs`` counts the bound
    reduce-and-fold programs compiled — one per plan and output set, so a
    warm re-execution adds 0.  ``derived_evictions`` counts the derived
    entries storages dropped wholesale at ``_DERIVED_CACHE_CAP``.
    ``binding_outcome_hits`` counts the prepared-query runs a database
    binding's memoised outcome served — they run no kernel and move no other
    count here — and ``binding_outcome_misses`` the runs that ran.
    """
    with _BLOCK_CACHE_LOCK, _COUNTER_LOCK:
        return {"hits": _BLOCK_HITS, "misses": _BLOCK_MISSES,
                "relations": len(_BLOCK_CACHE), **_COUNTERS,
                "interned_values": len(_INTERNER),
                "interner_locked_cells":
                    _RETIRED_LOCKED_CELLS + _INTERNER.locked_cells}


#: Each columnar cache's report: ``(report field, column_cache_info key)``.
_CACHE_REPORTS = (
    ("column_block", (("hits", "hits"), ("misses", "misses"), ("size", "relations"))),
    ("keyset", (("hits", "keyset_hits"), ("misses", "keyset_misses"))),
    ("result_memo", (("hits", "relation_hits"), ("misses", "relation_misses"))),
    ("payload_memo", (("hits", "payload_hits"), ("misses", "payload_misses"))),
    ("derived", (("evictions", "derived_evictions"),)),
    ("binding_outcome", (("hits", "binding_outcome_hits"),
                         ("misses", "binding_outcome_misses"))),
)


def column_cache_reports() -> Tuple[Tuple[str, Dict[str, int]], ...]:
    """The columnar caches' ``(cache, report)`` pairs for the monitor.

    A report holds only the fields its cache has (see ``PlanCacheInfo``).
    """
    info = column_cache_info()
    return tuple((cache, {field: info[key] for field, key in fields})
                 for cache, fields in _CACHE_REPORTS)


#: Run after every :func:`clear_column_caches` by holders of column data
#: outside the block cache: the database bindings' memos
#: (:mod:`repro.engine.yannakakis`).
_CLEAR_HOOKS: List[Callable[[], None]] = []


def clear_column_caches() -> None:
    """Drop the block cache and start a fresh interner generation.

    Every :func:`column_cache_info` count persists, the retired interner's
    locked cells included, so no count ever goes down.

    Derived key structures live on the block storages themselves, so they
    are reclaimed with their blocks.  Blocks that outlive the clear keep a
    reference to their own interner and still decode; they simply cannot be
    combined with blocks encoded after the clear (the kernels reject mixed
    generations).

    What survives a clear: the planners' and sessions' LRUs (compiled plans
    and prepared queries hold no column data) and every prepared query's
    per-database bindings.  A binding's memoised outcome — its answer and,
    on a cyclic plan, its cluster blocks — belongs to the old generation,
    so the clear drops it (:data:`_CLEAR_HOOKS`) and the retired generation
    is freed with the blocks nothing else holds; the binding's next execute
    misses the memo once, encodes (and materialises) again and memoises the
    new outcome.  A run still in flight during the clear stores its
    old-generation outcome afterwards; the binding's next execute replaces
    it.
    """
    global _INTERNER, _RETIRED_LOCKED_CELLS
    with _BLOCK_CACHE_LOCK, _COUNTER_LOCK:
        _BLOCK_CACHE.clear()
        _RETIRED_LOCKED_CELLS += _INTERNER.locked_cells
        _INTERNER = ValueInterner()
    for hook in _CLEAR_HOOKS:
        hook()
