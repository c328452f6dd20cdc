"""Telemetry shard I/O: atomic per-worker JSONL shards plus merge.

Layout mirrors the coverage DB's sharding discipline: every process
writes its own files under ``<cache-dir>/telemetry/`` (no file is ever
shared between writers), each write is a whole-file atomic
tmp-then-rename, and the merge is commutative/associative with
deterministic output bytes — so ``--jobs N`` and ``--jobs 1`` runs
merge to the same report modulo wall-clock values.

Shard lines are JSON objects tagged by ``kind``:

- ``{"kind": "span", ...}`` — one finished span (see
  :meth:`repro.obs.trace.Span.to_dict`)
- ``{"kind": "metrics", "data": {...}}`` — one registry snapshot/delta

The parent process enables a run with :func:`telemetry_scope`, which
exports ``REPRO_TELEMETRY`` so pool workers (fork or spawn start
method) pick the directory up via :func:`maybe_init_worker`.
"""

import contextlib
import json
import os
import tempfile

from . import trace
from .metrics import GLOBAL, MetricsRegistry

_dir = None
_seq = 0


def telemetry_dir():
    """The active telemetry directory, or None when telemetry is off."""
    return _dir


@contextlib.contextmanager
def telemetry_scope(path):
    """Enable telemetry for the duration of a block.

    Creates ``path``, turns the tracer on, and exports the directory to
    child processes.  On exit the remaining buffered spans and the
    process-global metrics registry are flushed, and prior state is
    restored (scopes may nest, e.g. ci_smoke wrapping a campaign).
    """
    global _dir
    if path is None:
        yield None
        return
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    prev_dir = _dir
    prev_env = os.environ.get(trace.TELEMETRY_ENV)
    prev_enabled = trace.enabled()
    _dir = path
    os.environ[trace.TELEMETRY_ENV] = path
    trace.enable(True)
    # The process-global registry is cumulative across a process's
    # lifetime; a scope's metrics shard must carry only the movement
    # that happened inside it (several scopes can run per process,
    # e.g. back-to-back campaigns in one test session).
    entry_snapshot = GLOBAL.snapshot()
    try:
        yield path
    finally:
        flush_spans()
        flush_metrics(GLOBAL.delta(entry_snapshot))
        _dir = prev_dir
        if prev_env is None:
            os.environ.pop(trace.TELEMETRY_ENV, None)
        else:
            os.environ[trace.TELEMETRY_ENV] = prev_env
        trace.enable(prev_enabled)


def maybe_init_worker():
    """Adopt the telemetry directory exported by the campaign parent.

    Called at the top of every pool-worker work item; a cheap no-op
    when telemetry is off.  Handles both start methods: under spawn the
    module state is fresh, under fork it is inherited but the tracer's
    pid check discards the parent's buffered spans.
    """
    global _dir
    path = os.environ.get(trace.TELEMETRY_ENV)
    if not path:
        return False
    _dir = path
    trace.maybe_enable_from_env()
    return True


def _write_shard(lines, stem):
    """Atomically write one new shard file; never appends."""
    global _seq
    if _dir is None or not lines:
        return None
    _seq += 1
    name = "%s-%d-%06d.jsonl" % (stem, os.getpid(), _seq)
    payload = "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in lines
    )
    fd, tmp = tempfile.mkstemp(dir=_dir, prefix=".tmp-" + stem)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        target = os.path.join(_dir, name)
        os.replace(tmp, target)
        return target
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def mark_open(name, label):
    """Immediately shard an *open marker* for a span that is about to
    start.

    Spans only land in the buffer when they close, so a worker that
    crashes (or is killed) mid-unit leaves no trace of the unit at
    all.  The scheduler writes one open marker per unit *before*
    execution; the report matches markers against finished ``unit``
    spans and surfaces the unmatched ones as explicit ``incomplete``
    rows instead of silently dropping them.
    """
    if _dir is None:
        return None
    import time

    return _write_shard(
        [{"kind": "open", "name": name, "label": label,
          "ts": time.time(), "pid": os.getpid()}],
        "opens",
    )


def read_opens(path):
    """All open markers under a telemetry directory, in deterministic
    order (``read_shards`` skips them; this is the dedicated reader)."""
    opens = []
    path = os.fspath(path)
    try:
        names = sorted(os.listdir(path))
    except FileNotFoundError:
        return opens
    for name in names:
        if not name.endswith(".jsonl") or name.startswith("."):
            continue
        with open(os.path.join(path, name)) as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                line = json.loads(raw)
                if line.get("kind") == "open":
                    opens.append(line)
    opens.sort(key=_span_order)
    return opens


def flush_spans():
    """Drain the tracer's buffer into a fresh span shard."""
    if _dir is None:
        return None
    spans = trace.drain()
    if not spans:
        return None
    for item in spans:
        item["kind"] = "span"
    return _write_shard(spans, "spans")


def flush_metrics(registry):
    """Write one registry snapshot (or delta dict) as a metrics shard."""
    if _dir is None:
        return None
    snap = registry.snapshot() if isinstance(registry, MetricsRegistry) else registry
    if not snap.get("counters") and not snap.get("histograms"):
        return None
    return _write_shard([{"kind": "metrics", "data": snap}], "metrics")


def read_shards(path):
    """Load every shard under a telemetry directory.

    Returns ``(spans, metrics)`` where spans is a list of span dicts in
    deterministic order and metrics is one merged
    :class:`MetricsRegistry` — shard file order never affects either.
    """
    spans = []
    metrics = MetricsRegistry()
    path = os.fspath(path)
    try:
        names = sorted(os.listdir(path))
    except FileNotFoundError:
        return spans, metrics
    for name in names:
        if not name.endswith(".jsonl") or name.startswith("."):
            continue
        with open(os.path.join(path, name)) as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                line = json.loads(raw)
                kind = line.get("kind")
                if kind == "span":
                    line.pop("kind", None)
                    spans.append(line)
                elif kind == "metrics":
                    metrics.absorb(line.get("data", {}))
    spans.sort(key=_span_order)
    return spans, metrics


def _span_order(item):
    """Total order over spans making merged output deterministic."""
    return (item.get("ts", 0.0), item.get("pid", 0), item.get("sid", 0))


def merged_bytes(path):
    """The merged telemetry as deterministic JSONL bytes.

    Reading shards in any order yields identical bytes, the property
    the merge tests pin (same discipline as ``CoverageDB.dumps``).
    """
    spans, metrics = read_shards(path)
    lines = [
        json.dumps({"kind": "span", **item}, sort_keys=True, separators=(",", ":"))
        for item in spans
    ]
    snap = metrics.snapshot()
    if snap["counters"] or snap["histograms"]:
        lines.append(json.dumps({"kind": "metrics", "data": snap},
                                sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode() if lines else b""


def write_merged(path, out_path):
    """Merge all shards under ``path`` into one JSONL file (atomic)."""
    payload = merged_bytes(path)
    out_path = os.fspath(out_path)
    out_dir = os.path.dirname(out_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-merged")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return out_path
