"""Benchmark dataset generation with triggered-error validation.

Every candidate mutation is checked before admission:

- *syntax* instances must actually fail the linter (an error, not just
  a warning);
- *functional* instances must lint clean of errors, elaborate, AND fail
  the UVM testbench (the error is genuinely triggered by the stimulus).

Candidates that slip through compilation or pass all tests are
discarded — this is the paper's answer to MEIC-style datasets where
~10% of instances bypassed the testbench unrepaired.
"""

import hashlib
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.bench.registry import all_modules, get_module, make_hr_sequence
from repro.errgen.mutations import (
    ALL_OPERATORS,
    FUNCTIONAL_OPERATORS,
    SYNTAX_OPERATORS,
)
from repro.lint.linter import Linter
from repro.uvm.test import run_uvm_test

#: The paper's dataset has 331 instances; the generator aims for the
#: same scale (exact count depends on applicable sites per module).
DATASET_TARGET_SIZE = 331


@dataclass
class ErrorInstance:
    """One buggy-code instance of the evaluation dataset."""

    instance_id: str
    module_name: str
    category: str          # Table II group of the module
    operator: str
    kind: str              # "syntax" | "functional"
    paper_class: str       # Fig. 5 / Fig. 6 class
    description: str
    buggy_source: str
    golden_source: str


_linter = Linter()
_dataset_cache = {}


def _validate(bench, site, sequence):
    """Is this mutation a *triggered* error of its declared kind?"""
    report = _linter.lint(site.mutated_source)
    if site.kind == "syntax":
        return bool(report.errors)
    if report.errors:
        return False
    result = run_uvm_test(
        site.mutated_source, sequence, bench.protocol, bench.model(),
        bench.compare_signals, top=bench.top,
    )
    if not result.ok:
        return True  # elaborates per lint but dies in simulation: triggered
    return result.checked > 0 and len(result.mismatches) > 0


def generate_for_module(bench, operators=None, per_operator=2, seed=0,
                        validate=True, max_tries_factor=4):
    """Validated error instances for one benchmark module.

    At most ``per_operator * max_tries_factor`` candidate sites are
    validated per operator — each validation is a full UVM run, so the
    budget keeps generation tractable on large designs.
    """
    digest = hashlib.sha256(f"{seed}|{bench.name}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    operators = operators if operators is not None else ALL_OPERATORS
    sequence = make_hr_sequence(bench, seed=seed) if validate else None
    instances = []
    for operator in operators:
        sites = operator.sites(bench.source)
        rng.shuffle(sites)
        sites = sites[: per_operator * max_tries_factor]
        taken = 0
        for site in sites:
            if taken >= per_operator:
                break
            if site.mutated_source == bench.source:
                continue
            if validate and not _validate(
                bench, site, make_hr_sequence(bench, seed=seed)
            ):
                continue
            taken += 1
            instances.append(
                ErrorInstance(
                    instance_id=f"{bench.name}:{operator.name}:{taken}",
                    module_name=bench.name,
                    category=bench.category,
                    operator=operator.name,
                    kind=site.kind,
                    paper_class=site.paper_class,
                    description=site.description,
                    buggy_source=site.mutated_source,
                    golden_source=bench.source,
                )
            )
    return instances


def generate_dataset(seed=0, per_operator=2, target=DATASET_TARGET_SIZE,
                     modules=None, operators=None, validate=True,
                     cache_dir=None):
    """The full evaluation dataset (approximately ``target`` instances).

    Deterministic for a given seed.  Results are cached in-process per
    (seed, per_operator, target) because validation simulates every
    functional candidate; ``cache_dir`` additionally persists instances
    on disk *per module* (keyed by the generation parameters and a hash
    of that module's golden source, so edited benchmarks invalidate),
    which lets any module or operator subset reuse the warm entries of
    a previous, differently-shaped campaign.  Stale or corrupt disk
    entries degrade to regeneration, never to an error.
    """
    key = (seed, per_operator, target,
           tuple(modules) if modules else None,
           tuple(op.name for op in operators) if operators else None,
           validate)
    if key in _dataset_cache:
        return _dataset_cache[key]
    selected = (
        [get_module(name) for name in modules] if modules else all_modules()
    )
    dataset_store = None
    if cache_dir is not None:
        from repro.runner.cache import DatasetCache

        dataset_store = DatasetCache(cache_dir)
    operator_names = tuple(
        op.name for op in (operators if operators is not None
                           else ALL_OPERATORS)
    )
    instances = []
    for bench in selected:
        module_key = None
        if dataset_store is not None:
            source_sha = hashlib.sha256(
                bench.source.encode("utf-8")
            ).hexdigest()
            module_key = hashlib.sha256(
                f"{seed}|{per_operator}|{validate}|{bench.name}|"
                f"{source_sha}|{operator_names}".encode("utf-8")
            ).hexdigest()
            cached = dataset_store.get(module_key)
            if cached is not None:
                try:
                    revived = [ErrorInstance(**data) for data in cached]
                except TypeError:
                    revived = None  # stale field shape: regenerate
                if revived is not None:
                    instances.extend(revived)
                    continue
        generated = generate_for_module(
            bench, operators=operators, per_operator=per_operator,
            seed=seed, validate=validate,
        )
        if dataset_store is not None:
            dataset_store.put(module_key, [asdict(i) for i in generated])
        instances.extend(generated)
    if target is not None and len(instances) > target:
        # Deterministic thinning that preserves per-module balance.
        rng = random.Random(seed)
        indexed = list(enumerate(instances))
        rng.shuffle(indexed)
        keep = sorted(index for index, _ in indexed[:target])
        instances = [instances[index] for index in keep]
    _dataset_cache[key] = instances
    return instances


def dataset_summary(instances):
    """Counts by kind / class / module category (for reports)."""
    summary = {
        "total": len(instances),
        "by_kind": {},
        "by_class": {},
        "by_category": {},
    }
    for instance in instances:
        summary["by_kind"][instance.kind] = (
            summary["by_kind"].get(instance.kind, 0) + 1
        )
        summary["by_class"][instance.paper_class] = (
            summary["by_class"].get(instance.paper_class, 0) + 1
        )
        summary["by_category"][instance.category] = (
            summary["by_category"].get(instance.category, 0) + 1
        )
    return summary
