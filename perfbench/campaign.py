"""One cold campaign of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per timed campaign, with a fresh work
directory and a scrubbed environment, so no per-process memo (dataset,
coverage, kernel) and no on-disk cache carries over between campaigns.
The drivers run the ``--dataset-seed`` dataset in their own order, as
``scripts/run_experiments.py`` runs them.  The last line of standard
output is one JSON object: timings, peak memory, the verdict digest
and the pinned-value tables, plus the per-layer metrics when
``--trace`` is given.  ``--setup-only`` stops at the first unit
dispatch and reports the set-up time alone.

    python3 perfbench/campaign.py --workload paper-quick \\
        --dataset-seed 0 --work-dir DIR \\
        --spawned-at MONOTONIC [--trace [--spans-out FILE]]
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

#: The six ``--quick`` modules of ``scripts/run_experiments.py``.
QUICK_MODULES = ("adder_8bit", "accu", "counter_12", "fsm_seq", "ram_sp",
                 "edge_detect")

#: Modules whose functional repairs spend most time in simulation.
#: ``regfile``, the costliest (about 30% of a nine-module campaign), is
#: left out so that two campaigns fit in one benchmark run.
SIM_HEAVY_MODULES = ("div_16bit", "radix2_div", "multi_booth", "calendar",
                     "adder_pipe", "sync_fifo", "adder_16bit", "multi_pipe")

PAPER_DRIVERS = ("fig5", "fig6", "table2", "table3", "fig7")

#: Workload settings.  Every workload is a closed-loop batch campaign:
#: each of ``jobs`` workers takes the next unit when it finishes one.
WORKLOADS = {
    "paper-quick": {"modules": QUICK_MODULES, "drivers": PAPER_DRIVERS,
                    "backend": "compiled", "jobs": 1},
    "paper-quick-pool": {"modules": QUICK_MODULES, "drivers": PAPER_DRIVERS,
                         "backend": "compiled", "jobs": 2},
    "functional-interp": {"modules": SIM_HEAVY_MODULES,
                          "drivers": ("functional",), "backend": None,
                          "jobs": 1},
}

PER_OPERATOR = 1
ATTEMPTS = 2


def verdict_rows(records):
    """The canonical per-record verdict fields the digest covers, as
    JSON text (sortable whatever the field types)."""
    return [json.dumps([r.instance_id, r.method, bool(r.hit),
                        bool(r.fixed), r.stage, r.attempts_used,
                        r.rollbacks, r.seconds]) for r in records]


def summarize(captured):
    """Pinned-value tables, total modelled seconds and verdict digest
    of the ``(driver, records)`` pairs a campaign produced."""
    from repro.experiments.runner import group_records, rates

    tables = {}
    canonical = []
    for driver, records in captured:
        by_method = group_records(records, lambda r: r.method)
        tables[driver] = {
            method: list(rates(subset)[:2])
            for method, subset in sorted(by_method.items())
        }
        canonical.append([driver, sorted(verdict_rows(records))])
    modelled_s = math.fsum(r.seconds for _driver, records in captured
                           for r in records)
    digest = hashlib.sha256(json.dumps(
        canonical, separators=(",", ":")).encode()).hexdigest()
    return tables, modelled_s, digest


def modelled_speedup(captured):
    """Table II's overall speedup (mean modelled seconds, MEIC over
    UVLLM) from the table2 driver's records, or None."""
    for driver, records in captured:
        if driver != "table2":
            continue
        means = {}
        for method in ("uvllm", "meic"):
            subset = [r.seconds for r in records if r.method == method]
            means[method] = sum(subset) / len(subset) if subset else 0.0
        return means["meic"] / means["uvllm"] if means["uvllm"] else None
    return None


class SetupDone(Exception):
    """Raised at the first unit dispatch of a ``--setup-only`` run."""


def run_workload(name, dataset_seed, work_dir, on_dispatch):
    """Set up and run one workload on the ``dataset_seed`` dataset;
    returns ``(driver, records)`` pairs in driver order.
    ``on_dispatch`` is called once, when the first grid reaches the
    scheduler."""
    from repro.errgen.generator import generate_dataset
    from repro.errgen.mutations import FUNCTIONAL_OPERATORS, SYNTAX_OPERATORS
    from repro.experiments import fig5, fig6, fig7, table2, table3
    from repro.experiments import runner as experiments

    spec = WORKLOADS[name]
    modules = list(spec["modules"])
    captured = []

    # Set-up: every dataset the drivers ask for, generated (and
    # validated) up front so that set-up ends at the first dispatch.
    operator_sets = ((None, list(SYNTAX_OPERATORS),
                      list(FUNCTIONAL_OPERATORS))
                     if spec["drivers"] == PAPER_DRIVERS
                     else (list(FUNCTIONAL_OPERATORS),))
    datasets = [generate_dataset(seed=dataset_seed,
                                 per_operator=PER_OPERATOR, target=None,
                                 modules=modules, operators=operators,
                                 cache_dir=work_dir)
                for operators in operator_sets]

    run_units = experiments.run_units

    def first_dispatch(*args, **kwargs):
        experiments.run_units = run_units
        on_dispatch()
        return run_units(*args, **kwargs)

    experiments.run_units = first_dispatch

    if spec["drivers"] != PAPER_DRIVERS:
        instances = [i for i in datasets[0] if i.kind == "functional"]
        records = experiments.run_methods(
            instances, ("uvllm",), attempts=ATTEMPTS, jobs=spec["jobs"],
            cache_dir=work_dir, backend=spec["backend"])
        return [("functional", records)]

    drivers = {"fig5": fig5, "fig6": fig6, "table2": table2,
               "table3": table3, "fig7": fig7}
    for driver_name in spec["drivers"]:
        module = drivers[driver_name]
        run_methods = module.run_methods

        def capture(*args, **kwargs):
            records = run_methods(*args, **kwargs)
            captured.append((driver_name, records))
            return records

        module.run_methods = capture
        try:
            module.run(modules=modules, per_operator=PER_OPERATOR,
                       attempts=ATTEMPTS, seed=dataset_seed,
                       jobs=spec["jobs"], cache_dir=work_dir,
                       backend=spec["backend"])
        finally:
            module.run_methods = run_methods
    return captured


def peak_rss_mb():
    """Peak resident set of this process or any reaped child (the
    campaign's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this interpreter")
    parser.add_argument("--trace", action="store_true",
                        help="wrap every layer and report its metrics")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace: write the spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first unit dispatch and report "
                             "the set-up time only")
    args = parser.parse_args(argv)

    import repro.experiments.runner  # noqa: F401  (imports are set-up)

    tracer = None
    if args.trace:
        import layers

        shard_dir = os.path.join(args.work_dir, "trace-shards")
        os.makedirs(shard_dir, exist_ok=True)
        tracer = layers.install(shard_dir)

    dispatched = []

    def on_dispatch():
        dispatched.append(time.monotonic())
        if args.setup_only:
            raise SetupDone

    try:
        captured = run_workload(args.workload, args.dataset_seed,
                                args.work_dir, on_dispatch)
    except SetupDone:
        print(json.dumps({"setup_s": dispatched[0] - args.spawned_at}))
        return 0
    finished = time.monotonic()
    traced_wall_s = (time.perf_counter() - tracer.started
                     if tracer is not None else None)

    tables, modelled_s, digest = summarize(captured)
    units = sum(len(records) for _driver, records in captured)
    poisoned = sum(1 for _driver, records in captured
                   for r in records if r.stage == "poisoned")
    fixed_without_hit = sum(1 for _driver, records in captured
                            for r in records if r.fixed and not r.hit)
    result = {
        "workload": args.workload,
        "dataset_seed": args.dataset_seed,
        "setup_s": dispatched[0] - args.spawned_at,
        "campaign_s": finished - dispatched[0],
        "units": units,
        "poisoned": poisoned,
        "fixed_without_hit": fixed_without_hit,
        "peak_rss_mb": peak_rss_mb(),
        "tables": tables,
        "modelled_s": modelled_s,
        "digest": digest,
        "modelled_speedup": modelled_speedup(captured),
    }
    if tracer is not None:
        from repro.sim.compile import cache as kernel_cache

        result["layers"], result["trace_notes"] = tracer.report(
            traced_wall_s, WORKLOADS[args.workload]["jobs"],
            kernel_cache.stats())
        if args.spans_out:
            tracer.dump_spans(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
