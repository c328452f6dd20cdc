"""Campaign observability: spans, metrics, telemetry shards, reports.

- :mod:`repro.obs.trace` — contextvar-scoped span tracer (no-op when
  disabled)
- :mod:`repro.obs.metrics` — mergeable counter/histogram registry (the
  one ``StatsDelta`` shape workers ship to the scheduler)
- :mod:`repro.obs.sink` — atomic per-worker JSONL shards under
  ``<cache-dir>/telemetry/`` plus commutative merge
- :mod:`repro.obs.export` — Chrome trace-event / Perfetto exporter and
  the ``repro.cli report`` summary aggregator

Telemetry is sidecar-only: nothing here may influence
``WorkUnit.cache_key()`` or the bytes of cached records/coverage DBs.
"""

from . import export, metrics, sink, trace
from .metrics import GLOBAL, MetricsRegistry
from .trace import span

__all__ = [
    "export",
    "metrics",
    "sink",
    "trace",
    "span",
    "GLOBAL",
    "MetricsRegistry",
]
