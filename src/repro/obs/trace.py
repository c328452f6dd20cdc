"""Structured span tracing for campaign execution.

One process-local tracer records *spans* — named, nested wall-time
intervals — into a bounded ring buffer.  The execution layers wrap
their phases (``campaign`` → ``unit`` → ``attempt`` → ``parse`` /
``elaborate`` / ``compile`` / ``simulate`` / ``repair-llm`` /
``cache-read`` / ``cache-write``; fuzz units wrap ``generate`` /
``oracle-check`` / ``shrink``), so a telemetry-enabled run can answer
"where did the wall time actually go" per work unit and per phase.

Design constraints, in order:

- **Strictly zero-cost when disabled.**  ``span()`` is one module
  attribute test returning a shared no-op context manager; no objects
  are allocated, no clocks are read.  Tracing is therefore safe to
  leave wired through every hot-ish layer (one span per UVM run, per
  compile, per cache access — never per simulation delta).
- **Process-local and fork-safe.**  Each worker process owns its own
  ring buffer; a forked child detects the pid change and drops the
  spans it inherited from the parent so nothing is double-flushed.
- **Sidecar-only.**  Span data never reaches ``cache_key()`` or cached
  records — timing lives exclusively in telemetry shards (see
  :mod:`repro.obs.sink`), so cached campaign records are bit-identical
  with telemetry on or off.

Nesting is tracked through a :mod:`contextvars` variable, so spans
stay correctly parented under asyncio or thread-switching callers.
"""

import contextvars
import os
import time

#: Environment variable carrying the telemetry shard directory to pool
#: workers (the scheduler exports it before the pool spawns).  A
#: non-empty value also means "tracing on" in worker processes.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Ring-buffer bound: oldest spans are dropped past this (a campaign
#: flushes per executed unit, so the bound only matters for pathological
#: single-unit span storms).
RING_LIMIT = 65536

_enabled = False
_buffer = []
_owner_pid = os.getpid()
_next_sid = 1
#: Wall-clock anchor: ``ts = _base_wall + (perf_counter - _base_perf)``
#: gives cross-process-alignable timestamps without a syscall per span.
_base_wall = time.time()
_base_perf = time.perf_counter()

_current = contextvars.ContextVar("repro-obs-current-span", default=None)


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_NOOP = _NoopSpan()


class Span:
    """One live (or finished) span."""

    __slots__ = ("name", "cat", "sid", "parent", "start", "duration",
                 "attrs", "_token")

    def __init__(self, name, cat, attrs):
        self.name = name
        self.cat = cat
        self.sid = 0
        self.parent = 0
        self.start = 0.0
        self.duration = 0.0
        self.attrs = attrs
        self._token = None

    def set(self, **attrs):
        """Attach/overwrite attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        global _next_sid
        _fork_check()
        self.sid = _next_sid
        _next_sid += 1
        parent = _current.get()
        self.parent = parent.sid if parent is not None else 0
        self._token = _current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration = time.perf_counter() - self.start
        if self._token is not None:
            _current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if len(_buffer) < RING_LIMIT:
            _buffer.append(self)
        else:
            _buffer[:RING_LIMIT // 2] = []
            _buffer.append(self)
        return False

    def to_dict(self):
        """JSON-pure shard line for :mod:`repro.obs.sink`."""
        return {
            "name": self.name,
            "cat": self.cat,
            "sid": self.sid,
            "parent": self.parent,
            "pid": _owner_pid,
            "ts": _base_wall + (self.start - _base_perf),
            "dur": self.duration,
            "attrs": self.attrs,
        }


def span(name, cat="phase", **attrs):
    """A context manager timing one named phase.

    The disabled path returns a shared no-op object — callers never
    branch on :func:`enabled` themselves.
    """
    if not _enabled:
        return _NOOP
    return Span(name, cat, attrs)


def enabled():
    return _enabled


def enable(on=True):
    """Turn span recording on (or off with ``on=False``)."""
    global _enabled
    _fork_check()
    _enabled = bool(on)
    return _enabled


def disable():
    enable(False)


def maybe_enable_from_env():
    """Worker-process hook: turn tracing on when the campaign parent
    exported a telemetry directory (no-op otherwise, and cheap enough
    to call per work unit)."""
    if not _enabled and os.environ.get(TELEMETRY_ENV):
        enable(True)
    return _enabled


def drain():
    """Pop and return every finished span recorded so far (dicts)."""
    global _buffer
    _fork_check()
    spans, _buffer = _buffer, []
    return [item.to_dict() for item in spans]


def finished():
    """A non-destructive view of the buffered spans (tests use this)."""
    _fork_check()
    return [item.to_dict() for item in _buffer]


def reset():
    """Drop all buffered spans and disable tracing (tests use this)."""
    global _enabled, _buffer, _next_sid
    _enabled = False
    _buffer = []
    _next_sid = 1
    _current.set(None)


def _fork_check():
    """Drop state inherited through ``fork()``: a pool worker must not
    re-flush spans its parent recorded before the pool spawned."""
    global _owner_pid, _buffer, _base_wall, _base_perf
    pid = os.getpid()
    if pid != _owner_pid:
        _owner_pid = pid
        _buffer = []
        _current.set(None)
        _base_wall = time.time()
        _base_perf = time.perf_counter()
