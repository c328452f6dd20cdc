"""Shared experiment execution.

Semantics follow the paper's setup:

- every method is run with up to ``attempts`` independent LLM seeds per
  instance ("we asked LLMs for 5 times to reduce the randomness"); the
  first attempt whose repair passes the method's own acceptance
  criterion is taken (pass@k);
- **HR** is that internal acceptance;
- **FR** is external validation: the accepted repair must pass the
  extended held-out suite (``make_fr_sequence``) — the mechanized
  expert review;
- execution time is the mean modelled seconds per attempt.

Execution routing: ``run_methods`` expands the (instances x methods)
grid with :func:`repro.runner.expand_grid` and hands it to
:func:`repro.runner.run_units`, which supplies process-pool
parallelism (``jobs``) and on-disk memoization (``cache_dir``).  The
primitive a pool worker runs is :func:`run_unit` /
:func:`run_method_on_instance`; both are deliberately free of shared
mutable module state so that a worker process computes exactly what
the serial loop would.
"""

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.baselines.direct import DirectLLM
from repro.baselines.meic import MEIC
from repro.baselines.rtlrepair import RTLRepair
from repro.baselines.strider import Strider
from repro.bench.registry import (
    get_module,
    make_coverage_model,
    make_fr_sequence,
    make_hr_sequence,
)
from repro.core.config import UVLLMConfig
from repro.core.framework import UVLLM
from repro.lint.linter import Linter
from repro.llm.mock import MockLLM
from repro.memo import LRUMemo
from repro.obs import trace
from repro.runner.grid import expand_grid
from repro.runner.scheduler import run_units
from repro.sim.backend import get_default_backend, use_backend
from repro.uvm.test import run_uvm_test

#: Methods evaluated in the paper's figures.
METHODS = ("uvllm", "uvllm_comp", "meic", "gpt-4-turbo", "strider",
           "rtlrepair")


@dataclass
class InstanceRecord:
    """Per-instance, per-method outcome."""

    instance_id: str
    module_name: str
    category: str
    kind: str
    paper_class: str
    method: str
    hit: bool = False
    fixed: bool = False
    seconds: float = 0.0
    stage: Optional[str] = None
    stage_seconds: dict = field(default_factory=dict)
    attempts_used: int = 0
    rollbacks: int = 0
    #: Coverage-database fragment from this unit's verification run:
    #: ``{"functional": {module: counters},
    #:    "code": {instance_id: counters}}`` — union-merged
    #: campaign-wide by :class:`repro.cover.db.CoverageDB`.
    coverage: dict = field(default_factory=dict)
    #: Set on quarantined ("poisoned") records only: why the unit never
    #: produced a verdict (``"worker-death"``/``"timeout"``/
    #: ``"exception"``) plus the structured failure description
    #: (error repr, traceback, strike count).  ``None``/``{}`` on every
    #: normally-executed record.
    failure_kind: Optional[str] = None
    failure_detail: dict = field(default_factory=dict)


def evaluate_fix(final_source, bench, seed=1000):
    """External (expert-equivalent) validation of a repair — the FR
    oracle: lint-clean of errors plus full pass on the held-out suite.

    The linter is constructed per call rather than held in a module
    singleton: pool workers must not share mutable state, and
    ``Linter()`` is a cheap, stateless rule-list assembly.
    """
    if Linter().lint(final_source).errors:
        return False
    result = run_uvm_test(
        final_source, make_fr_sequence(bench, seed=seed), bench.protocol,
        bench.model(), bench.compare_signals, top=bench.top,
    )
    return result.all_passed


#: Per-process memo for :func:`collect_unit_coverage`: the fragment
#: depends only on the instance (not the repair method), but the
#: campaign grid is instances x methods — without the memo every
#: method re-simulates the same instrumented HR suite (pool workers
#: each keep their own memo, so a multi-worker campaign still pays
#: once per worker that sees the instance).  The key includes the
#: active backend even though fragments are designed to be
#: backend-invariant: ci_smoke's cross-backend parity check must
#: compare two *measurements*, not a measurement against its own
#: cached copy.  Keys hold the source texts themselves; values are
#: JSON strings (immutable; callers get a fresh deep copy).
_COVERAGE_MEMO_LIMIT = 4096
_COVERAGE_MEMO = LRUMemo(_COVERAGE_MEMO_LIMIT)


def collect_unit_coverage(instance, bench, seed=0):
    """The coverage-database fragment for one campaign unit.

    Measures the HR verification suite with the module's rich
    functional model (crosses, transitions, probes) *and* structural
    code coverage, preferring the buggy source — the paper's claim is
    that the stimulus actually exercises the injected error — and
    falling back to the golden source when the mutant cannot simulate
    at all (syntax-class errors never elaborate).  Deterministic in
    its arguments, so cached records replay it bit-for-bit; settled
    values are backend-invariant, so the fragment is designed to be
    too — a property ci_smoke verifies by re-measuring per backend
    (hence the backend in the memo key).
    """
    key = (instance.instance_id, instance.buggy_source,
           instance.golden_source, seed, get_default_backend())
    memoized = _COVERAGE_MEMO.lookup(key)
    if memoized is not None:
        return json.loads(memoized)
    fragment = _measure_unit_coverage(instance, bench, seed)
    _COVERAGE_MEMO.store(key, json.dumps(fragment))
    return fragment


def _measure_unit_coverage(instance, bench, seed):
    sources = (
        ("buggy", instance.buggy_source),
        ("golden", instance.golden_source),
    )
    for label, source in sources:
        result = run_uvm_test(
            source, make_hr_sequence(bench, seed=seed), bench.protocol,
            bench.model(), bench.compare_signals, top=bench.top,
            coverage=make_coverage_model(bench), code_coverage=True,
        )
        if not result.ok:
            continue
        detail = result.coverage_detail
        code = dict(detail.get("code") or {})
        code["dut"] = label
        return {
            "functional": {
                instance.module_name: detail.get("functional") or {}
            },
            "code": {instance.instance_id: code},
        }
    return {}


def _make_method(method, seed, config_overrides=None):
    """Instantiate a repair engine for one attempt.

    ``config_overrides`` (a mapping of :class:`UVLLMConfig` field
    overrides) parameterizes the UVLLM variants for ablations; the
    baseline engines have no config, so overrides there are an error
    rather than a silent no-op.
    """
    overrides = dict(config_overrides or {})
    llm = MockLLM(seed=seed)
    if method == "uvllm":
        config = UVLLMConfig(patch_form="pair", hr_seed=0)
        return UVLLM(llm, replace(config, **overrides))
    if method == "uvllm_comp":
        config = UVLLMConfig(patch_form="complete", hr_seed=0)
        return UVLLM(llm, replace(config, **overrides))
    if overrides:
        raise ValueError(
            f"method '{method}' takes no config overrides"
        )
    if method == "meic":
        return MEIC(llm)
    if method == "gpt-4-turbo":
        return DirectLLM(llm)
    if method == "strider":
        return Strider()
    if method == "rtlrepair":
        return RTLRepair()
    raise ValueError(f"unknown method '{method}'")


def run_method_on_instance(method, instance, attempts=3, base_seed=0,
                           config_overrides=None, backend=None):
    """Run one method on one error instance (pass@``attempts``).

    Attempt ``k`` uses LLM seed ``base_seed + k``, making the outcome a
    pure function of the arguments — the determinism contract the
    parallel scheduler and the result cache both rely on.

    ``backend`` scopes the simulation backend for every UVM run the
    repair pipeline performs (repair-loop scoring *and* the FR
    oracle), including inside pool workers; ``None`` keeps the process
    default (``REPRO_SIM_BACKEND`` or ``set_default_backend``).

    Every record also carries the instance's coverage fragment (one
    instrumented HR run, memoized per worker process and per
    instance) — roughly a tenth of a unit's cost next to the repair
    loop's own UVM runs, and the price of the campaign-wide coverage
    database being complete rather than opt-in.
    """
    backend = backend or get_default_backend()
    bench = get_module(instance.module_name)
    record = InstanceRecord(
        instance_id=instance.instance_id,
        module_name=instance.module_name,
        category=instance.category,
        kind=instance.kind,
        paper_class=instance.paper_class,
        method=method,
    )
    total_seconds = 0.0
    outcome = None
    with use_backend(backend):
        record.coverage = collect_unit_coverage(instance, bench)
        for attempt in range(attempts):
            engine = _make_method(method, seed=base_seed + attempt,
                                  config_overrides=config_overrides)
            with trace.span("attempt", cat="repair", method=method,
                            attempt=attempt,
                            instance=instance.instance_id) as sp:
                if method.startswith("uvllm"):
                    outcome = engine.verify_and_repair(
                        instance.buggy_source, bench
                    )
                else:
                    outcome = engine.repair(instance.buggy_source, bench)
                sp.set(hit=bool(outcome.hit))
            total_seconds += outcome.seconds
            record.attempts_used = attempt + 1
            if outcome.hit:
                break
            if method in ("strider", "rtlrepair"):
                break  # deterministic: retrying cannot change the answer
        record.hit = bool(outcome and outcome.hit)
        record.seconds = total_seconds / max(1, record.attempts_used)
        record.stage = getattr(outcome, "stage", None)
        record.stage_seconds = dict(
            getattr(outcome, "stage_seconds", {}) or {}
        )
        record.rollbacks = int(getattr(outcome, "rollbacks", 0) or 0)
        if record.hit and outcome is not None:
            record.fixed = evaluate_fix(outcome.final_source, bench)
    return record


def make_poisoned_record(unit, failure):
    """The structured record a quarantined campaign unit lands as.

    The scheduler calls this when a unit never produced a verdict —
    it killed its worker twice, exceeded its wall-clock budget past
    the retry allowance, or raised a (deterministic) exception.  The
    record scores as neither hit nor fixed, carries no coverage, and
    stamps the failure into ``failure_kind``/``failure_detail`` so
    campaign summaries, the cache, and forensics all see the same
    story.
    """
    instance = unit.instance
    return InstanceRecord(
        instance_id=instance.instance_id,
        module_name=instance.module_name,
        category=instance.category,
        kind=instance.kind,
        paper_class=instance.paper_class,
        method=unit.method,
        hit=False,
        fixed=False,
        stage="poisoned",
        failure_kind=failure.get("kind", "unknown"),
        failure_detail=dict(failure),
    )


def run_unit(unit):
    """Execute one :class:`repro.runner.WorkUnit` — the pool-worker
    primitive the campaign scheduler dispatches."""
    return run_method_on_instance(
        unit.method,
        unit.instance,
        attempts=unit.attempts,
        base_seed=unit.base_seed,
        config_overrides=dict(unit.config_overrides),
        backend=getattr(unit, "backend", None),
    )


def run_methods(instances, methods, attempts=3, progress=None, jobs=1,
                cache_dir=None, show_progress=False, backend=None):
    """Run several methods over a dataset; returns a list of records.

    Record order is instance-major, method-minor regardless of
    ``jobs``.  ``progress`` (if given) is called as
    ``progress(done_units, total_units)`` after each resolved unit;
    ``cache_dir`` memoizes finished records on disk; ``backend``
    selects the simulation backend for every unit.
    """
    units = expand_grid(instances, methods, attempts=attempts,
                        backend=backend)
    return run_units(units, jobs=jobs, cache_dir=cache_dir,
                     progress=progress, show_progress=show_progress)


def group_records(records, key):
    """Group records by a callable key -> {key_value: [records]}."""
    grouped = {}
    for record in records:
        grouped.setdefault(key(record), []).append(record)
    return grouped


def rates(records):
    """(HR%, FR%, mean seconds) for a record list."""
    if not records:
        return 0.0, 0.0, 0.0
    hr = 100.0 * sum(1 for r in records if r.hit) / len(records)
    fr = 100.0 * sum(1 for r in records if r.fixed) / len(records)
    seconds = sum(r.seconds for r in records) / len(records)
    return hr, fr, seconds
