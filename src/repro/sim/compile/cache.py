"""Cross-run compilation cache for fused simulation kernels.

Codegen used to run once per *simulator instance* — so a campaign
executing (error instance x method x attempt) work units re-compiled
the same golden DUT hundreds of times, and every fuzz shard paid
codegen per design per worker.  This module amortizes it at two
levels:

- **per-worker memo** — the generated module, keyed by the design's
  elaboration fingerprint (:func:`repro.sim.elaborate.design_fingerprint`)
  plus the codegen version and the trace/coverage variant flags, is
  compiled and ``exec``'d once per process and shared by every
  simulator instance of that design (``bind(design)`` rebinds the
  fresh elaboration's signal slots in microseconds);
- **on-disk source store** — when a campaign/fuzz cache directory is
  configured, generated sources persist under
  ``<cache-dir>/compiled/<key>.py``, so warm re-runs (and sibling
  worker processes, and future campaigns over the same designs) skip
  codegen entirely and only pay one ``compile()+exec()`` per design
  per process.

Keying is *content-based and sound*: the fingerprint hashes every
process body (full AST), resolved parameter values, signal/memory
shapes and sensitivity — anything that changes generated code changes
the key.  :data:`CODEGEN_VERSION` is folded in; bump it whenever the
kernel generator's output changes so stale on-disk sources can never
be rebound.

The disk directory is inherited by pool workers through the
``REPRO_COMPILE_CACHE`` environment variable (set by
``repro.runner.scheduler.run_units`` / the fuzz campaign when a cache
directory is in play, before the worker pool spawns).
"""

import os
import tempfile
from contextlib import contextmanager

from repro.obs import trace as _tracer
from repro.obs.metrics import GLOBAL as _metrics
from repro.sim.compile.kernel import build_kernel_source
from repro.sim.elaborate import design_fingerprint

#: Bump whenever the generated kernel source changes shape or
#: semantics: the key folds it in, so old memo entries and on-disk
#: sources become unreachable instead of being rebound incorrectly.
CODEGEN_VERSION = 2

#: key -> (bind callable, source text); per worker process.  Bounded
#: FIFO: campaigns cycle through a few hundred distinct designs at
#: most, while an all-unique fuzz stream gets zero memo hits by
#: construction — so evicting the oldest kernel only ever drops dead
#: weight (the disk layer still skips codegen on a re-encounter).
_memo = {}

#: Per-worker memo bound (kernel modules retained at once).
MEMO_LIMIT = 256

#: Explicit disk directory (wins over the environment variable).
_disk_dir = None

#: Cache-activity counter names.  The counters themselves live in the
#: process-global metrics registry (``repro.obs``) as ``kernel.<name>``
#: so telemetry shards and the campaign progress stream read the same
#: numbers; this module keeps its historical short-key dict API.
_STAT_KEYS = ("compiled", "memo_hits", "disk_hits")


def _bump(key):
    _metrics.inc("kernel." + key)


def stats():
    """A copy of the current counters: ``compiled`` (full codegen
    runs), ``memo_hits`` (kernel reused in-process), ``disk_hits``
    (source loaded from the cross-run store)."""
    return {key: _metrics.counter("kernel." + key) for key in _STAT_KEYS}


def stats_delta(before):
    """Counter movement since a :func:`stats` snapshot."""
    now = stats()
    return {key: now[key] - before.get(key, 0) for key in _STAT_KEYS}


def reset_stats():
    for key in _STAT_KEYS:
        _metrics.counters.pop("kernel." + key, None)


def enable_disk_cache(path):
    """Persist generated kernels under ``path`` (created on demand)
    and export it to worker processes via ``REPRO_COMPILE_CACHE``."""
    global _disk_dir
    _disk_dir = os.fspath(path) if path else None
    if _disk_dir:
        os.environ["REPRO_COMPILE_CACHE"] = _disk_dir
    else:
        os.environ.pop("REPRO_COMPILE_CACHE", None)
    return _disk_dir


def disk_cache_dir():
    if _disk_dir:
        return _disk_dir
    return os.environ.get("REPRO_COMPILE_CACHE") or None


@contextmanager
def disk_cache(path):
    """Scope the disk store to a ``with`` block (``None`` is a no-op).

    Campaigns use this so the global directory (and the environment
    variable pool workers inherit) never outlives the run that
    configured it — later simulator constructions in the same process
    must not silently write kernels into a stale cache directory."""
    if not path:
        yield None
        return
    global _disk_dir
    previous_dir = _disk_dir
    previous_env = os.environ.get("REPRO_COMPILE_CACHE")
    enable_disk_cache(path)
    try:
        yield _disk_dir
    finally:
        _disk_dir = previous_dir
        if previous_env is None:
            os.environ.pop("REPRO_COMPILE_CACHE", None)
        else:
            os.environ["REPRO_COMPILE_CACHE"] = previous_env


def clear_memo():
    """Drop the in-process kernel memo (tests use this)."""
    _memo.clear()


def kernel_cache_key(design, trace, coverage):
    """Cache identity of one design's kernel variant."""
    fingerprint = getattr(design, "_kernel_fingerprint", None)
    if fingerprint is None:
        fingerprint = design_fingerprint(design)
        design._kernel_fingerprint = fingerprint
    return (f"{fingerprint}-v{CODEGEN_VERSION}"
            f"-t{1 if trace else 0}-c{1 if coverage else 0}")


def _disk_path(key):
    directory = disk_cache_dir()
    if not directory:
        return None
    return os.path.join(directory, f"{key}.py")


def _load_source(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _store_source(path, source):
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        os.replace(tmp_path, path)
    except OSError:
        pass  # a read-only or racing cache dir never fails the run


def get_kernel(design, order, trace=True, coverage=None):
    """The compiled kernel for ``design``; ``(bind, source)``.

    ``order`` is the levelized comb-process order (the caller already
    computed it to decide fusion applies); ``coverage`` is the
    requesting simulator's collector when the coverage variant is
    wanted (its statement ids are stable strings, so the baked-in
    recording calls are valid for every later collector instance).
    """
    key = kernel_cache_key(design, trace, coverage is not None)
    entry = _memo.get(key)
    if entry is not None:
        _bump("memo_hits")
        return entry

    with _tracer.span("compile", cat="kernel", key=key[:16]) as sp:
        source = None
        path = _disk_path(key)
        if path is not None:
            source = _load_source(path)
            if source is not None:
                _bump("disk_hits")
                sp.set(source="disk")
        if source is None:
            source = build_kernel_source(
                design, order, trace=trace, coverage=coverage,
                key=key, codegen_version=CODEGEN_VERSION,
            )
            _bump("compiled")
            sp.set(source="codegen")
            if path is not None:
                _store_source(path, source)

        namespace = {}
        code = compile(source, f"<repro-kernel {key[:16]}>", "exec")
        exec(code, namespace)  # noqa: S102 - the whole module is codegen
        entry = (namespace["bind"], source)
        while len(_memo) >= MEMO_LIMIT:
            _memo.pop(next(iter(_memo)))
        _memo[key] = entry
    return entry

