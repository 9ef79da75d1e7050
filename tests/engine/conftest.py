"""Engine-package fixtures: every test runs under each backend, traced or not.

Every engine test runs once per leg:

* ``columnar`` — the ambient default backend (numpy when it is installed);
* ``columnar-array`` — the always-available pure-Python backend, added when
  numpy is installed so both backends face the whole engine suite, not just
  the property tests;
* ``columnar-traced`` / ``columnar-array-traced`` — the same two backends
  under an ambient recording :class:`~repro.telemetry.tracing.Tracer`.  The
  instrumentation builds its span attributes only when a span records, so
  these legs run code the untraced legs never reach, and every answer the
  test checks must come out the same.  After the test the fixture checks no
  span was left open and the records pass
  :func:`~repro.telemetry.schema.validate_trace_records`' structural checks
  (fields and types, monotonic completion, unique ids, every parent
  recorded, every child inside its parent's interval) — also when the test
  drove the engine into an error.

Answers are checked against :mod:`repro.relational`, which shares no code
with the engine.
"""

from __future__ import annotations

import pytest

from repro.engine.columnar import available_column_backends, set_default_column_backend
from repro.telemetry.schema import load_trace_schema, validate_trace_records
from repro.telemetry.tracing import Tracer, use_tracer

_BACKEND_LEGS = ["columnar"]
if "numpy" in available_column_backends():
    # The default leg computes on numpy; add the pure-python leg.
    _BACKEND_LEGS.append("columnar-array")
_LEGS = _BACKEND_LEGS + [f"{leg}-traced" for leg in _BACKEND_LEGS]


#: The trace contract's structural part.  Its required span names stay a
#: check on a cold run's trace (the CI trace smoke's): a run served from its
#: binding's memo opens no ``kernel:*`` span.
_STRUCTURE = {**load_trace_schema(), "required_span_names": [],
              "cyclic_span_names": []}


def assert_well_nested(tracer: Tracer) -> None:
    """Every span closed, and the records valid against the trace schema's structure."""
    assert tracer._stack() == [], "a span was entered and never exited"
    if tracer.records:
        validate_trace_records(tracer.records, _STRUCTURE)


@pytest.fixture(params=_LEGS, autouse=True)
def engine_column_backend(request):
    """Pin the process-default column backend (and the tracer) for every engine test."""
    parts = request.param.split("-")
    traced = parts[-1] == "traced"
    backend = parts[1] if len(parts) > 1 and parts[1] != "traced" else None
    previous = set_default_column_backend(backend) if backend else None
    try:
        if traced:
            with use_tracer(Tracer()) as tracer:
                yield backend
            assert_well_nested(tracer)
        else:
            yield backend
    finally:
        if previous is not None:
            set_default_column_backend(previous)
