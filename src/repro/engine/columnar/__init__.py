"""``repro.engine.columnar`` — the engine's physical layer.

Instead of materialising per-tuple :class:`~repro.relational.relation.Row`
objects and probing them with attribute-keyed lookups, the engine runs
vectorized, cache-friendly kernels over :class:`ColumnBlock` values —
per-attribute id arrays plus positional selection vectors — and decodes
back to relations only at the result boundary:

* :mod:`~repro.engine.columnar.block` — :class:`ColumnBlock` with zero-copy
  project/rename/select, grouped key encoding (per-storage cached key
  arrays and position groups in canonical attribute order, so keys compare
  across blocks with no shared state), the one-walk transposed encode and
  the weak block cache keyed by relation identity (:func:`block_for`);
* :mod:`~repro.engine.columnar.kernels` — whole-block semijoin / antijoin /
  natural join with fused projection, plus scheme merging;
* :mod:`~repro.engine.columnar.executor` — the end-to-end pipeline (reduce
  the vertex blocks, replay the plan's compiled fold program bottom-up,
  decode last) the engine's one evaluator runs for both dispatches,
  plus exact statistics counted from id columns — every exact catalog, the
  quotient's included.
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
    ColumnBlock,
    block_for,
    clear_column_caches,
    column_cache_info,
    current_interner,
    peek_block,
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
    FoldProgram,
    catalog_from_blocks,
    fold_join_tree,
    fold_program,
    run_columnar_plan,
    statistics_from_block,
    vertex_blocks,
)

__all__ = [
    # blocks + caches
    "ColumnBlock", "block_for", "peek_block",
    "column_cache_info", "clear_column_caches", "current_interner",
    # typed buffers + backends
    "ValueInterner", "ArrayColumnBackend", "NumpyColumnBackend",
    "COLUMN_BACKENDS", "available_column_backends",
    "default_column_backend", "set_default_column_backend",
    "resolve_column_backend", "active_column_backend", "use_column_backend",
    # kernels
    "semijoin_blocks", "antijoin_blocks", "natural_join_blocks",
    "intersect_blocks", "merge_blocks_by_scheme", "shared_block_attributes",
    # pipeline
    "vertex_blocks", "FoldProgram", "fold_program", "fold_join_tree",
    "run_columnar_plan",
    "catalog_from_blocks", "statistics_from_block",
]
