"""Service-package fixtures: every test runs under each column backend.

The service serialises answers from the result block, and its concurrency
cases hammer the lock-free derived caches, whose membership structures
differ by backend (numpy tables and sorted codes, array frozensets).  When
numpy is installed the whole package runs under both process-default
backends, so both face the wire and the thread-safety cases.
"""

from __future__ import annotations

import pytest

from repro.engine.columnar import available_column_backends, set_default_column_backend

_BACKENDS = ["columnar"]
if "numpy" in available_column_backends():
    # The default leg computes on numpy; add the pure-python leg.
    _BACKENDS.append("columnar-array")


@pytest.fixture(params=_BACKENDS, autouse=True)
def service_column_backend(request):
    """Pin the process-default column backend for every service test."""
    _, _, backend = request.param.partition("-")
    previous = set_default_column_backend(backend) if backend else None
    yield backend or None
    if previous is not None:
        set_default_column_backend(previous)
