"""Fuzz campaigns through the shared runner grid.

A fuzz campaign is a contiguous block of seeds expanded into
:class:`FuzzUnit`\\ s — content-hashed, picklable, independently
executable cells exactly like campaign work units, so fuzz runs are
resumable (warm cache), shardable (``--shard i/n``) and
parallelizable (``--jobs N``) through the same
:mod:`repro.runner.scheduler` with a fuzz-specific executor and
cache codec.

A unit's verdict is a plain JSON dict; failing verdicts embed the
generated source and stimulus so the parent process can shrink and
archive them without regenerating (regeneration is deterministic
anyway — the embedded copy makes artifacts self-contained).
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass

from repro.forensics import bundle as forensics
from repro.fuzz.generate import GENERATOR_VERSION, generate_design
from repro.fuzz.oracle import check_design
from repro.obs import sink, trace
from repro.runner.cache import ResultCache
from repro.runner.scheduler import run_units

#: Bump when verdict semantics change — including whenever the set of
#: checks ``run_oracle`` performs changes, since the key does not hash
#: the oracle itself; folded into every cache key and checked on reads
#: (fuzz verdicts version independently of the campaign record
#: schema).  v2: the oracle dropped its fifth check, so verdicts
#: cached under v1 may carry that check's findings.
FUZZ_SCHEMA_VERSION = 2


@dataclass
class FuzzUnit:
    """One generated design + stimulus cell of a fuzz campaign."""

    index: int
    design_seed: int
    stim_seed: int
    cycles: int = 24

    @property
    def unit_id(self):
        return (f"fuzz::d{self.design_seed}::s{self.stim_seed}"
                f"::c{self.cycles}")

    def cache_key(self):
        """Content hash of everything the verdict depends on."""
        payload = {
            "schema": FUZZ_SCHEMA_VERSION,
            "generator": GENERATOR_VERSION,
            "design_seed": self.design_seed,
            "stim_seed": self.stim_seed,
            "cycles": self.cycles,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("ascii")
        ).hexdigest()


def expand_fuzz(count, seed=0, cycles=24):
    """``count`` consecutive units starting at ``seed``."""
    return [
        FuzzUnit(index=i, design_seed=seed + i, stim_seed=seed + i,
                 cycles=cycles)
        for i in range(count)
    ]


def execute_fuzz_unit(unit):
    """Run one fuzz unit to a JSON-pure verdict (pool-worker
    primitive; module-level for picklability)."""
    with trace.span("generate", cat="fuzz", seed=unit.design_seed):
        design = generate_design(unit.design_seed)
    with trace.span("oracle-check", cat="fuzz", seed=unit.stim_seed,
                    cycles=unit.cycles):
        ops, failure = check_design(design, cycles=unit.cycles,
                                    stim_seed=unit.stim_seed)
    verdict = {
        "design_seed": unit.design_seed,
        "stim_seed": unit.stim_seed,
        "cycles": unit.cycles,
        "ok": failure is None,
        "features": list(design.features),
        "source_sha": hashlib.sha256(
            design.source.encode("utf-8")).hexdigest()[:16],
    }
    if failure is not None:
        verdict["failure"] = failure.to_dict()
        verdict["source"] = design.source
        verdict["ops"] = [list(op) for op in ops]
    return verdict


def make_fuzz_cache(cache_dir):
    """A :class:`ResultCache` storing verdict dicts under ``fuzz/``."""
    return ResultCache(cache_dir, subdir="fuzz", encode=dict,
                       decode=dict, schema=FUZZ_SCHEMA_VERSION)


def make_poisoned_verdict(unit, failure):
    """Quarantine record for a fuzz unit (the scheduler's
    ``poisoned_factory``): a verdict-shaped dict that is neither a
    pass nor a divergence — ``poisoned`` marks it so failure triage
    and the shrinker skip it."""
    return {
        "design_seed": unit.design_seed,
        "stim_seed": unit.stim_seed,
        "cycles": unit.cycles,
        "ok": False,
        "poisoned": True,
        "features": [],
        "failure": dict(failure),
    }


def run_fuzz(count, seed=0, cycles=24, jobs=1, cache_dir=None,
             shard=None, time_budget=None, show_progress=False,
             telemetry=False, forensics_capture=False,
             unit_timeout=None, fail_fast=False):
    """Execute a fuzz campaign; returns the summary dict.

    ``shard`` is an ``(index, count)`` pair partitioning the seed
    block round-robin; ``time_budget`` (seconds) stops dispatching
    new batches once exceeded — finished units are cached, so the
    next run resumes where this one stopped.  Without a budget the
    result is a pure function of ``(count, seed, cycles)``.
    ``telemetry`` writes span/metrics shards under
    ``<cache-dir>/telemetry/`` (verdicts are unaffected).
    ``forensics_capture`` archives every failing verdict as a debug
    bundle under ``<cache-dir>/forensics/`` — interp + compiled
    waveforms, first-divergence report, archived stimulus — and lists
    the bundle paths in the summary's ``forensics`` key (verdicts and
    cache keys are unaffected).

    ``unit_timeout`` / ``fail_fast`` flow into the scheduler's fault
    policy: a unit that hangs, crashes its worker, or raises is
    retried/quarantined per :mod:`repro.runner.faults`, landing as a
    ``poisoned`` verdict (counted in the summary's ``poisoned`` key,
    excluded from ``failures`` — it is not a divergence).
    """
    units = expand_fuzz(count, seed=seed, cycles=cycles)
    if shard is not None:
        index, total = shard
        units = [u for u in units if u.index % total == index]
    cache = make_fuzz_cache(cache_dir) if cache_dir else None
    # Fuzz shards share the cross-run kernel store too: a warm re-run
    # rebinds each design's generated kernel from disk instead of
    # re-running codegen per worker.  Scoped so the directory never
    # outlives this campaign.
    from repro.sim.compile import cache as kernel_cache

    kernel_dir = (
        os.path.join(os.fspath(cache_dir), "compiled")
        if cache_dir else None
    )

    telemetry_dir = (
        os.path.join(os.fspath(cache_dir), "telemetry")
        if telemetry and cache_dir else None
    )
    forensics_dir = (
        os.path.join(os.fspath(cache_dir), "forensics")
        if forensics_capture and cache_dir else None
    )

    verdicts = []
    bundles = []
    started = time.monotonic()
    exhausted = 0
    with kernel_cache.disk_cache(kernel_dir), \
            sink.telemetry_scope(telemetry_dir), \
            forensics.scope(forensics_dir), \
            trace.span("fuzz-campaign", cat="scheduler", count=len(units)):
        if time_budget is None:
            verdicts = run_units(units, jobs=jobs, cache=cache,
                                 executor=execute_fuzz_unit,
                                 show_progress=show_progress,
                                 unit_timeout=unit_timeout,
                                 fail_fast=fail_fast,
                                 poisoned_factory=make_poisoned_verdict)
        else:
            batch_size = max(16, jobs * 4)
            for start in range(0, len(units), batch_size):
                if time.monotonic() - started > time_budget:
                    exhausted = len(units) - start
                    break
                batch = units[start:start + batch_size]
                verdicts.extend(run_units(
                    batch, jobs=jobs, cache=cache,
                    executor=execute_fuzz_unit,
                    show_progress=show_progress,
                    unit_timeout=unit_timeout, fail_fast=fail_fast,
                    poisoned_factory=make_poisoned_verdict,
                ))

        poisoned = [v for v in verdicts if v.get("poisoned")]
        failures = [v for v in verdicts
                    if not v["ok"] and not v.get("poisoned")]
        # Parent-side capture: failing verdicts embed source+ops, so
        # bundling works identically for executed and cached verdicts.
        if forensics_dir:
            for verdict in failures:
                bundles.append(forensics.capture_fuzz_failure(verdict))

    features = {}
    for verdict in verdicts:
        for tag in verdict.get("features", ()):
            features[tag] = features.get(tag, 0) + 1
    return {
        "count": len(units),
        "run": len(verdicts),
        "skipped_by_budget": exhausted,
        "cached": cache.hits if cache else 0,
        "failures": failures,
        "poisoned": len(poisoned),
        "forensics": bundles,
        "features": dict(sorted(features.items())),
        "elapsed": time.monotonic() - started,
    }
