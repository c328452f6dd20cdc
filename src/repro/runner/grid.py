"""Campaign grid expansion.

A *campaign* is the cross product of an error-instance dataset, a set
of repair methods, and an attempt budget — the exact grid the paper
sweeps for Fig. 5–7 and Tables II–III.  This module flattens that grid
into :class:`WorkUnit`\\ s, each one an independent, deterministic,
picklable cell that can be executed on any worker process (or any
shard of a multi-host campaign) and memoized on disk.

Determinism contract: a unit's outcome depends only on its fields —
the buggy/golden source text, the method name, the attempt budget, the
base seed, and the (sorted) config overrides.  The per-attempt LLM
seed is ``base_seed + attempt``, which reproduces the historical
serial loop (``seed=attempt``) when ``base_seed`` is 0.  The
:meth:`WorkUnit.cache_key` hashes exactly those inputs, so cached
results are safe to reuse across interrupted or repeated campaigns.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Bump when the semantics of unit execution or the record schema
#: change; old cache entries are then ignored rather than misread.
#: v2: units carry a simulation backend, and the cache key folds it in
#: so records produced by different backends never alias.
#: v3: records carry a serialized coverage fragment (functional model
#: counters per module + code-coverage counters per instance), merged
#: campaign-wide into the coverage database.
#: v4: the compiled backend's fused kernel commits one final value per
#: comb activation, shifting event counts (and therefore modelled
#: seconds) on compiled-backend records.
#: v5: records carry the ``"poisoned"`` failure kind — quarantined
#: units (worker death / timeout / unit exception) land as structured
#: records (``failure_kind``/``failure_detail``) instead of aborting
#: the campaign.
CACHE_SCHEMA_VERSION = 5


@dataclass
class WorkUnit:
    """One (instance, method, attempt-seed) cell of a campaign grid."""

    index: int                 # position in the full (unsharded) grid
    instance: object           # repro.errgen.generator.ErrorInstance
    method: str
    attempts: int = 3
    base_seed: int = 0
    #: Sorted ``(name, value)`` pairs applied to the method's
    #: UVLLMConfig — tuples keep the unit hashable-by-content and
    #: picklable for process pools.
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Simulation backend every UVM run inside this unit uses
    #: (see :mod:`repro.sim.backend`).
    backend: str = "interp"

    @property
    def unit_id(self):
        """Human-readable identity (progress lines, logs)."""
        suffix = ""
        if self.config_overrides:
            suffix = "::" + ",".join(
                f"{k}={v}" for k, v in self.config_overrides
            )
        if self.backend != "interp":
            suffix += f"::{self.backend}"
        return (f"{self.instance.instance_id}::{self.method}"
                f"::a{self.attempts}s{self.base_seed}{suffix}")

    def cache_key(self):
        """Content hash identifying this unit's result.

        Hashes the *source text* (not just the instance id) so a
        regenerated dataset with different mutations can never alias a
        stale cached record, and the simulation backend so campaigns
        run on different backends keep disjoint cache entries (their
        modelled seconds may legitimately differ).
        """
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "module": self.instance.module_name,
            "instance_id": self.instance.instance_id,
            "buggy_sha": _sha(self.instance.buggy_source),
            "golden_sha": _sha(self.instance.golden_source),
            "method": self.method,
            "attempts": self.attempts,
            "base_seed": self.base_seed,
            "config": list(self.config_overrides),
            "backend": self.backend,
        }
        return _sha(json.dumps(payload, sort_keys=True))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expand_grid(instances, methods, attempts=3, base_seed=0,
                config_overrides=None, backend=None):
    """Flatten (instances x methods) into an ordered list of units.

    Order is instance-major, method-minor — the same order the legacy
    serial ``run_methods`` loop produced records in, so routing serial
    execution through the grid is a pure refactor.  ``backend`` selects
    the simulation backend for every unit in the grid; ``None``
    resolves to the process default (so ``REPRO_SIM_BACKEND`` reaches
    campaigns whose caller didn't pick explicitly) — resolution happens
    here, at grid build time, because the backend is part of every
    unit's cache key and pool workers must see a concrete name.
    """
    from repro.sim.backend import canonical_backend, get_default_backend

    backend = (
        canonical_backend(backend) if backend else get_default_backend()
    )
    overrides = tuple(sorted((config_overrides or {}).items()))
    units = []
    for instance in instances:
        for method in methods:
            units.append(
                WorkUnit(
                    index=len(units),
                    instance=instance,
                    method=method,
                    attempts=attempts,
                    base_seed=base_seed,
                    config_overrides=overrides,
                    backend=backend,
                )
            )
    return units


def parse_shard(spec):
    """Parse a ``--shard i/n`` flag (1-based) into ``(index, count)``.

    ``"2/4"`` means "the second of four shards"; returns ``(1, 4)``.
    """
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"bad shard spec '{spec}': expected i/n, e.g. 1/4"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"bad shard spec '{spec}': need 1 <= i <= n"
        )
    return index - 1, count


def shard_units(units, shard_index, shard_count):
    """Deterministic round-robin partition of the grid.

    Every unit lands in exactly one shard (``unit.index % count``), so
    ``n`` hosts running shards ``1/n .. n/n`` against a shared cache
    directory cover the campaign exactly once.
    """
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ValueError(
            f"bad shard ({shard_index}, {shard_count})"
        )
    return [u for u in units if u.index % shard_count == shard_index]
