"""``repro.engine.sharded`` — shard-parallel execution past one Python core.

The engine's drivers evaluate any relation set; this package
makes "distribute the driver" one seam:

* :mod:`~repro.engine.sharded.partitioner` — hash-co-partition a relation
  set on a join key (``interned_id % N`` over the existing columnar id
  buffers, broadcast fallback), with per-shard skew accounting;
* :mod:`~repro.engine.sharded.executor` — pluggable
  :class:`~repro.engine.sharded.executor.ShardExecutor` implementations: an
  in-process thread pool and long-lived worker processes with warm
  per-worker plan caches;
* :mod:`~repro.engine.sharded.serial` — versioned byte payloads shipping
  :class:`~repro.engine.columnar.block.ColumnBlock` id vectors plus the
  interner vocabulary across the process boundary;
* :mod:`~repro.engine.sharded.worker` — the worker process protocol;
* :mod:`~repro.engine.sharded.driver` — fan out per-shard reducer + fold
  runs, merge with dedup, aggregate the accounting.

Enable it per query with ``ExecutionOptions(shards=N)`` (and
``shard_executor="thread"|"process"``), or process-wide with the
``REPRO_SHARDS`` / ``REPRO_SHARD_EXECUTOR`` environment variables.
"""

from __future__ import annotations

import os
from typing import Optional

from .executor import (
    SHARD_EXECUTORS,
    ProcessShardExecutor,
    ShardExecutor,
    ShardTask,
    ThreadShardExecutor,
    shard_executor_for,
    shutdown_shard_executors,
)
from .partitioner import (
    ShardPartition,
    ShardSlice,
    choose_shard_key,
    partition_database,
    partition_relations,
)
from .serial import FORMAT_VERSION, MAGIC, dump_blocks, load_blocks, \
    next_generation_token

__all__ = [
    "SHARD_EXECUTORS",
    "FORMAT_VERSION",
    "MAGIC",
    "ProcessShardExecutor",
    "ShardExecutor",
    "ShardPartition",
    "ShardSlice",
    "ShardTask",
    "ThreadShardExecutor",
    "choose_shard_key",
    "dump_blocks",
    "effective_shard_executor",
    "effective_shards",
    "load_blocks",
    "next_generation_token",
    "partition_database",
    "partition_relations",
    "shard_executor_for",
    "shutdown_shard_executors",
]


def effective_shards(shards: Optional[int]) -> Optional[int]:
    """The shard count to run with: the explicit option, else ``REPRO_SHARDS``.

    Returns ``None`` (unsharded) when neither is set or the environment
    value is not a positive integer.
    """
    if shards is not None:
        return shards
    raw = os.environ.get("REPRO_SHARDS")
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def effective_shard_executor(executor: Optional[str]) -> str:
    """The executor name to run with: option, else env, else ``"thread"``."""
    if executor is not None:
        return executor
    raw = os.environ.get("REPRO_SHARD_EXECUTOR")
    return raw if raw in SHARD_EXECUTORS else "thread"
