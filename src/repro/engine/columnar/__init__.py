"""``repro.engine.columnar`` — the engine's columnar physical layer.

Every physical operator of the original engine materialises per-tuple
:class:`~repro.relational.relation.Row` objects and probes them with
attribute-keyed lookups.  This package replaces that object-at-a-time
interpretation with vectorized, cache-friendly kernels over
:class:`ColumnBlock` values — per-attribute value arrays plus positional
selection vectors — and decodes back to relations only at the result
boundary:

* :mod:`~repro.engine.columnar.block` — :class:`ColumnBlock` with zero-copy
  project/rename/select, grouped key encoding (per-storage cached key
  arrays and position groups in canonical attribute order, so keys compare
  across blocks with no shared state), the one-walk transposed encode, the
  weak block cache keyed by relation identity (:func:`block_for`), and the
  process-wide execution-mode switch;
* :mod:`~repro.engine.columnar.kernels` — whole-block semijoin / antijoin /
  natural join with fused projection, plus scheme merging;
* :mod:`~repro.engine.columnar.executor` — the end-to-end pipeline (reduce
  the vertex blocks, fold the join tree bottom-up, decode last) shared by
  the acyclic evaluator and the cyclic executor, plus exact statistics
  counted from id columns — every exact catalog, the quotient's included.

The engine runs columnar by default; ``execution_mode="row"`` (on
:class:`~repro.engine.session.ExecutionOptions` or any evaluator entry
point) keeps the original row-at-a-time operators as the reference
implementation for differential testing.
"""

from .buffers import (
    COLUMN_BACKENDS,
    ArrayColumnBackend,
    NumpyColumnBackend,
    ValueInterner,
    active_column_backend,
    available_column_backends,
    default_column_backend,
    resolve_column_backend,
    set_default_column_backend,
    use_column_backend,
)
from .block import (
    EXECUTION_MODES,
    ColumnBlock,
    block_for,
    clear_column_caches,
    column_cache_info,
    current_interner,
    default_execution_mode,
    peek_block,
    resolve_execution_mode,
    set_default_execution_mode,
)
from .kernels import (
    antijoin_blocks,
    intersect_blocks,
    merge_blocks_by_scheme,
    natural_join_blocks,
    semijoin_blocks,
    shared_block_attributes,
)
from .executor import (
    catalog_from_blocks,
    run_columnar_plan,
    statistics_from_block,
    vertex_blocks,
)

__all__ = [
    # blocks + caches + mode switch
    "ColumnBlock", "block_for", "peek_block",
    "column_cache_info", "clear_column_caches", "current_interner",
    "EXECUTION_MODES", "default_execution_mode", "set_default_execution_mode",
    "resolve_execution_mode",
    # typed buffers + backends
    "ValueInterner", "ArrayColumnBackend", "NumpyColumnBackend",
    "COLUMN_BACKENDS", "available_column_backends",
    "default_column_backend", "set_default_column_backend",
    "resolve_column_backend", "active_column_backend", "use_column_backend",
    # kernels
    "semijoin_blocks", "antijoin_blocks", "natural_join_blocks",
    "intersect_blocks", "merge_blocks_by_scheme", "shared_block_attributes",
    # pipeline
    "vertex_blocks", "run_columnar_plan",
    "catalog_from_blocks", "statistics_from_block",
]
