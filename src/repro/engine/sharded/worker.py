"""The long-lived shard worker process: warm caches, cold starts paid once.

Each worker owns a private :class:`~repro.engine.session.EngineSession`
(hence a warm structure-plan LRU), a relation cache keyed by partition
generation token, and a per-``(token, spec)`` binding cache holding the
resolved catalog + annotation — so a warm shard execution does zero
planning, zero catalog measurement and zero payload decoding, exactly like
a warm :class:`~repro.engine.session.PreparedQuery` in the parent.

The protocol over the parent's pipe (one request, one reply, in order):

* ``("load", payload)`` → ``("ok", token)`` — decode a
  :mod:`~repro.engine.sharded.serial` block payload into relations;
* ``("execute", token, spec)`` → ``("result", (relation, statistics))``,
  or ``("missing", token)`` when the token's relations were evicted (the
  parent re-sends the load), or ``("timeout", message)`` /
  ``("error", message, traceback)``;
* ``("stop",)`` → the worker exits.

Results cross back as ``(relation, statistics)`` — never the full engine
result, whose plan objects are not guaranteed picklable.
"""

from __future__ import annotations

import os
import traceback
from collections import OrderedDict
from typing import Any, Dict, Tuple

from ...exceptions import ExecutionTimeoutError
from ...relational.relation import Relation
from ..deadline import deadline_scope
from .serial import load_blocks

__all__ = ["worker_main"]

#: Partition generations one worker keeps decoded (LRU beyond this).
_RELATION_CACHE_CAPACITY = 16


def _build_session():
    # Imported lazily so a spawned worker pays the import once, inside
    # worker_main, not at module import in the parent.
    from ..session import EngineSession
    return EngineSession(monitor=None)


def _spec_options(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The worker-side execution options for one spec.

    Sharding-related options are stripped (a worker must never re-shard),
    tracing stays off (spans live in the parent), decode is forced to rows
    (the relation must cross the pipe), and the deadline is re-installed
    from the remaining budget the parent measured at dispatch.
    """
    return dict(adaptive=spec["adaptive"], root=spec["root"],
                check_reduction=spec["check_reduction"],
                cluster_row_bound=spec["cluster_row_bound"],
                sample_limit=spec["sample_limit"],
                force_cyclic=spec["force_cyclic"],
                column_backend=spec["column_backend"],
                decode="rows", trace=False, deadline_seconds=None)


def _spec_key(spec: Dict[str, Any]) -> Tuple[Any, ...]:
    """The binding-cache key: everything that changes the resolved binding."""
    return (spec["name"], spec["output_attributes"], spec["adaptive"],
            spec["root"], spec["check_reduction"], spec["cluster_row_bound"],
            spec["sample_limit"], spec["force_cyclic"], spec["column_backend"])


def _execute_spec(session, relations: Tuple[Relation, ...],
                  spec: Dict[str, Any], bindings: Dict[Tuple[Any, ...], Any]):
    cache_key = (spec["token"],) + _spec_key(spec)
    cached = bindings.get(cache_key)
    if cached is None:
        prepared = session.prepare(relations, spec["output_attributes"],
                                   name=spec["name"], **_spec_options(spec))
        binding = prepared._bind_relations(relations)
        cached = bindings[cache_key] = (prepared, binding)
    prepared, binding = cached
    remaining = spec.get("deadline_remaining")
    if remaining is not None:
        if remaining <= 0:
            raise ExecutionTimeoutError(phase="shard-dispatch",
                                        deadline_seconds=remaining,
                                        elapsed_seconds=0.0)
        with deadline_scope(remaining):
            result = prepared._run(binding)
    else:
        result = prepared._run(binding)
    return result.decoded(), result.statistics


def worker_main(connection) -> None:
    """The worker process entry point: serve requests until ``stop`` or EOF."""
    # A worker must never re-shard its slice: the spec options already pin
    # shards off, but the inherited REPRO_SHARDS environment would re-enable
    # them through the session default — drop it before building the session.
    os.environ.pop("REPRO_SHARDS", None)
    os.environ.pop("REPRO_SHARD_EXECUTOR", None)
    session = _build_session()
    relations_by_token: "OrderedDict[str, Tuple[Relation, ...]]" = OrderedDict()
    bindings: Dict[Tuple[Any, ...], Any] = {}
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "load":
                token, blocks = load_blocks(message[1])
                relations_by_token[token] = tuple(
                    block.to_relation(block.name) for block in blocks)
                relations_by_token.move_to_end(token)
                while len(relations_by_token) > _RELATION_CACHE_CAPACITY:
                    evicted, _ = relations_by_token.popitem(last=False)
                    for key in [k for k in bindings if k[0] == evicted]:
                        del bindings[key]
                connection.send(("ok", token))
            elif kind == "execute":
                token, spec = message[1], message[2]
                relations = relations_by_token.get(token)
                if relations is None:
                    connection.send(("missing", token))
                    continue
                relations_by_token.move_to_end(token)
                relation, statistics = _execute_spec(session, relations,
                                                     spec, bindings)
                connection.send(("result", (relation, statistics)))
            else:
                connection.send(("error", f"unknown message kind {kind!r}", ""))
        except ExecutionTimeoutError as error:
            connection.send(("timeout", str(error)))
        except BaseException as error:  # noqa: BLE001 - reported to the parent
            connection.send(("error", f"{type(error).__name__}: {error}",
                             traceback.format_exc()))
    connection.close()
