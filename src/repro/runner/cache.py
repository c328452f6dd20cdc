"""On-disk memoization for campaign results and generated datasets.

Layout under a cache directory::

    <cache_dir>/units/<sha256>.json      one finished InstanceRecord
    <cache_dir>/datasets/<sha256>.json   one validated error dataset
    <cache_dir>/fuzz/<sha256>.json       one fuzz-unit verdict
    <cache_dir>/coverage/<grid>.shard-i-of-n.json   shard coverage DBs

Each unit file is written atomically (temp file + ``os.replace``) by
whichever process owns the result, so a cache directory can be shared
by concurrent shards of the same campaign: the worst case is two
shards computing the same unit and one overwriting the other with an
identical record.  Schema-mismatched files are silent misses (a
version bump deliberately orphans old entries); *corrupt* files —
unreadable JSON, wrong shape — are quarantined to
``<cache_dir>/corrupt/`` with a ``unit_cache.corrupt`` counter and a
stderr warning, then recomputed: disk corruption should be visible,
not silently papered over.

Keys hash *data* inputs (sources, method name, seeds, config), not
the code that interprets them: editing the repair pipeline or the
mutation operators does NOT invalidate a warm cache.  After a
behavior-changing code edit, bump
:data:`repro.runner.grid.CACHE_SCHEMA_VERSION` or point campaigns at
a fresh ``--cache-dir``.
"""

import json
import os
import sys
import tempfile
from dataclasses import asdict

from repro.obs import trace
from repro.obs.metrics import GLOBAL as _metrics
from repro.runner import faultinject
from repro.runner.grid import CACHE_SCHEMA_VERSION


def record_to_dict(record):
    """Serialize an ``InstanceRecord`` for the JSON cache."""
    return asdict(record)


def record_from_dict(data):
    """Inverse of :func:`record_to_dict`."""
    from repro.experiments.runner import InstanceRecord

    return InstanceRecord(**data)


class ResultCache:
    """Content-addressed store of finished work-unit results.

    The default codec round-trips campaign ``InstanceRecord``\\ s; other
    unit families (the fuzz campaign stores plain verdict dicts under
    ``subdir="fuzz"``) plug in their own ``encode``/``decode`` pair and
    subdirectory so different result schemas never share a namespace.
    ``schema`` overrides the version stamp checked on reads — families
    whose payloads evolve independently of the campaign record schema
    pass their own.
    """

    def __init__(self, cache_dir, subdir="units", encode=None, decode=None,
                 schema=CACHE_SCHEMA_VERSION):
        self.root = os.fspath(cache_dir)
        self.subdir = subdir
        self.unit_dir = os.path.join(self.root, subdir)
        self.encode = encode if encode is not None else record_to_dict
        self.decode = decode if decode is not None else record_from_dict
        self.schema = schema
        os.makedirs(self.unit_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key):
        return os.path.join(self.unit_dir, f"{key}.json")

    def get(self, key):
        """Return the cached record for ``key`` or ``None`` on a miss.

        A schema-mismatched entry is a silent miss (version bumps
        orphan old entries by design); an *unreadable or malformed*
        entry is quarantined — moved to ``<cache_dir>/corrupt/`` with
        a counter and a warning — before recomputing, so corruption
        is observable and the bad bytes are preserved for forensics.
        """
        path = self._path(key)
        with trace.span("cache-read", cat="cache", store=self.subdir) as sp:
            record = None
            payload = None
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                payload = None
            except (OSError, ValueError):
                self._quarantine_corrupt(path, key)
                payload = None
            if payload is not None:
                if not isinstance(payload, dict):
                    self._quarantine_corrupt(path, key)
                elif payload.get("schema") != self.schema:
                    pass  # versioned miss: recompute under the new schema
                else:
                    try:
                        record = self.decode(payload["record"])
                    except (KeyError, TypeError, ValueError):
                        self._quarantine_corrupt(path, key)
            if record is None:
                self.misses += 1
                _metrics.inc("unit_cache.misses")
                sp.set(hit=False)
                return None
            self.hits += 1
            _metrics.inc("unit_cache.hits")
            sp.set(hit=True)
            return record

    def _quarantine_corrupt(self, path, key):
        """Move an unreadable cache entry aside instead of silently
        recomputing over it."""
        corrupt_dir = os.path.join(self.root, "corrupt")
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(path, os.path.join(
                corrupt_dir, f"{self.subdir}-{key}.json"))
        except OSError:
            pass  # quarantine is best-effort; the miss still recomputes
        _metrics.inc("unit_cache.corrupt")
        print(f"[cache] WARNING: corrupt cache entry "
              f"{self.subdir}/{key}.json quarantined to {corrupt_dir}; "
              f"recomputing", file=sys.stderr, flush=True)

    def put(self, key, record):
        """Atomically persist ``record`` under ``key``."""
        payload = {
            "schema": self.schema,
            "key": key,
            "record": self.encode(record),
        }
        with trace.span("cache-write", cat="cache", store=self.subdir):
            text = json.dumps(payload)
            if faultinject.maybe_tear(key):
                # Injected torn write: persist a truncated payload the
                # next read must quarantine (still via the atomic
                # replace — a real tear happens inside the filesystem,
                # not half a rename).
                text = text[:max(1, len(text) // 2)]
            _atomic_write_text(self._path(key), text, self.unit_dir)
        self.writes += 1
        _metrics.inc("unit_cache.writes")


class DatasetCache:
    """Disk cache for validated error datasets.

    Dataset generation simulates every functional candidate through the
    UVM testbench, which dominates warm-campaign wall time — caching it
    makes a repeated campaign essentially free.  Keys must fold in the
    golden sources (see ``generate_dataset``) so edited benchmarks
    invalidate naturally.
    """

    def __init__(self, cache_dir):
        self.dataset_dir = os.path.join(os.fspath(cache_dir), "datasets")
        os.makedirs(self.dataset_dir, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.dataset_dir, f"{key}.json")

    def get(self, key):
        """Return the cached list of instance dicts, or ``None``."""
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            return payload["instances"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key, instance_dicts):
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "instances": list(instance_dicts),
        }
        _atomic_write_json(self._path(key), payload, self.dataset_dir)


def _atomic_write_json(path, payload, directory):
    _atomic_write_text(path, json.dumps(payload), directory)


def _atomic_write_text(path, text, directory):
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
