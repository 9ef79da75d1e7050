"""Engine-package fixtures: every test runs under each column backend, and sharded.

Every engine test runs once per leg:

* ``columnar`` — the ambient default backend (numpy when it is installed);
* ``columnar-array`` — the always-available pure-Python backend, added when
  numpy is installed so both backends face the whole engine suite, not just
  the property tests;
* ``columnar-sharded`` — the default backend with ``REPRO_SHARDS=2`` set, so
  every session, evaluator and service test also runs through the shard
  driver: sharding must stay invisible to the engine suite.

Answers are checked against :mod:`repro.relational`, which shares no code
with the engine.
"""

from __future__ import annotations

import pytest

from repro.engine.columnar import available_column_backends, set_default_column_backend

_LEGS = ["columnar"]
if "numpy" in available_column_backends():
    # The default leg computes on numpy; add the pure-python leg.
    _LEGS.append("columnar-array")
_LEGS.append("columnar-sharded")


@pytest.fixture(params=_LEGS, autouse=True)
def engine_column_backend(request, monkeypatch):
    """Pin the process-default column backend, or the shard count, for every engine test."""
    _, _, leg = request.param.partition("-")
    if leg == "sharded":
        monkeypatch.setenv("REPRO_SHARDS", "2")
        yield None
        return
    previous = set_default_column_backend(leg) if leg else None
    yield leg or None
    if previous is not None:
        set_default_column_backend(previous)
