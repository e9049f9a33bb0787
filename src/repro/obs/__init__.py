"""Observability: tracing, metrics and complexity certification.

Three pure-stdlib layers plus a certifier on top:

* :mod:`repro.obs.metrics` — the process-wide :data:`METRICS` registry
  (counters/gauges/histograms, Prometheus text exposition);
* :mod:`repro.obs.accounting` — NP-call / Σ₂ᵖ-dispatch / node counters
  with :func:`observe` windows and dispatch-depth tracking;
* :mod:`repro.obs.trace` — hierarchical spans with a zero-allocation
  no-op default (:func:`active_tracer`, :func:`use_tracer`);
* :mod:`repro.obs.certify` — per-query Table 1/Table 2 envelope checks.

``certify`` is re-exported **lazily** (PEP 562): it imports
:mod:`repro.complexity`, whose package ``__init__`` eagerly imports the
oracle machines, which import the SAT layer, which imports
:mod:`repro.runtime` — and the runtime imports :mod:`repro.obs.metrics`.
Importing ``certify`` eagerly here would close that loop mid-import;
deferring it keeps ``repro.runtime → repro.obs`` cycle-free.
"""

from repro.obs.accounting import (
    OracleObservation,
    counts_as_sigma2_dispatch,
    current_dispatch_depth,
    note_nodes,
    note_np_call,
    note_sigma2_dispatch,
    note_solver,
    note_solver_released,
    observe,
    sigma2_dispatch,
    totals,
)
from repro.obs.metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NoopSpan,
    NoopTracer,
    Span,
    Tracer,
    active_tracer,
    set_tracer,
    use_tracer,
)

_CERTIFY_NAMES = frozenset(
    {
        "Bound",
        "CellEnvelope",
        "Certifier",
        "CertificateViolation",
        "CertificationError",
        "ComplexityCertificate",
        "DEFAULT_CERTIFIER",
        "TASK_FOR_METHOD",
        "canonical_name",
    }
)

__all__ = [
    # metrics
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # accounting
    "OracleObservation",
    "observe",
    "totals",
    "note_np_call",
    "note_nodes",
    "note_sigma2_dispatch",
    "note_solver",
    "note_solver_released",
    "sigma2_dispatch",
    "counts_as_sigma2_dispatch",
    "current_dispatch_depth",
    # trace
    "Tracer",
    "NoopTracer",
    "Span",
    "NoopSpan",
    "active_tracer",
    "set_tracer",
    "use_tracer",
] + sorted(_CERTIFY_NAMES)


def __getattr__(name):
    if name in _CERTIFY_NAMES:
        from repro.obs import certify

        return getattr(certify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
