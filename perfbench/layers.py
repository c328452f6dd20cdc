"""Per-layer tracing for the campaign benchmark.

The program is not edited: :func:`install` replaces each layer's public
entry points with timing wrappers from outside, at every module binding
a caller resolves them through.  A wrapper records one span (name,
start, end, parent) and the counts measured at the same boundary.
Spans stay in memory; :meth:`Tracer.report` derives the per-layer
metrics and :meth:`Tracer.dump_spans` writes the spans when the run
ends.

Self time is a span's duration minus the time of the spans nested in
it, so the self times of all spans plus the untraced remainder add up
to the traced wall time of the process.

A ``*.repeat_frac`` counts a request as a repeat when the same process
has already seen the same text (or instance): the work a per-process
memo could save.

Kernel calls (``poke``/``set``/``settle``/``tick``) happen once per
driven pin or clock edge; they are folded into one aggregate span per
enclosing span instead of one span per call, which keeps the span list
small without losing their time.

On the pool path the parent spends most of a campaign blocked in
``concurrent.futures.wait`` while the workers run units.  That wait is
its own layer, ``runner.wait``, so that ``runner.self_s`` holds the
scheduler's own work and not the workers' time seen from outside.

Pool workers are forked from the traced parent and exit without
running ``atexit``.  After every unit a worker rewrites its own shard
(layer totals, counts and unit durations) under ``shard_dir``, and
:meth:`Tracer.report` merges the shards, the way ``repro.obs.sink``
shards are merged.
"""

import collections
import functools
import importlib
import itertools
import json
import os
import statistics
import time

_clock = time.perf_counter

#: Span name -> layer.  A layer's self time is the sum over its names.
LAYER_OF = {
    "hdl.parse": "hdl.parse",
    "lint": "lint",
    "locate": "locate",
    "sim.elaborate": "sim.elaborate",
    "sim.compile": "sim.compile",
    "sim.kernel": "sim.kernel",
    "uvm": "uvm.harness",
    "cover": "cover",
    "llm": "llm",
    "core.preprocess": "core",
    "core.repair": "core",
    "baselines": "baselines",
    "experiments.fr_oracle": "experiments",
    "runner.campaign": "runner",
    "runner.unit": "runner",
    "runner.cache": "runner",
    "runner.wait": "runner.wait",
    "errgen": "errgen",
    "errgen.validate": "errgen",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: Spans folded per parent rather than recorded one by one.
_HOT = frozenset({"sim.kernel"})

#: Candidate tail percentiles, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self, shard_dir=None):
        self.shard_dir = shard_dir
        self.worker = False
        self.stack = []
        self.totals = {name: [0, 0.0, 0.0] for name in LAYER_OF}
        self.counts = collections.Counter()
        self.seen = collections.defaultdict(set)
        self.spans = []
        self.hot = {}
        self.unit_ms = []
        self.ids = itertools.count(1)
        self.started = _clock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        """A pool worker starts with empty buffers: the parent's open
        spans and totals belong to the parent."""
        self.worker = True
        self.stack.clear()
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.seen.clear()
        self.spans.clear()
        self.hot.clear()
        self.unit_ms.clear()
        self.ids = itertools.count(1)

    def count(self, name, value=1):
        self.counts[name] += value

    def repeat(self, name, key):
        """Count one request for ``key`` and whether this process has
        seen the same key before (``<name>.repeats``)."""
        seen = self.seen[name]
        self.counts[name + ".requests"] += 1
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``.  ``before(tracer, args,
        kwargs)`` and ``after(tracer, args, kwargs, result)`` record
        counts at the boundary; ``after`` sees successful calls only."""
        totals = self.totals[name]
        stack = self.stack
        hot = name in _HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = stack[-1][0] if stack else 0
            frame = [-1 if hot else next(self.ids), _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                if not hot:
                    self.spans.append(
                        (frame[0], parent, name, frame[1], end))
                elif parent != -1:
                    # A kernel call inside another one is already in
                    # the outer call's fold.
                    folded = self.hot.get(parent)
                    if folded is None:
                        self.hot[parent] = [name, frame[1], end, 1,
                                            duration]
                    else:
                        folded[2] = end
                        folded[3] += 1
                        folded[4] += duration
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- worker shards ---------------------------------------------------

    def _state(self):
        return {"totals": self.totals, "counts": dict(self.counts),
                "unit_ms": self.unit_ms}

    def flush_shard(self):
        """Rewrite this worker's shard (atomic replace)."""
        if not (self.worker and self.shard_dir):
            return
        path = os.path.join(self.shard_dir, "worker-%d.json" % os.getpid())
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self._state(), handle)
        os.replace(tmp, path)

    def _worker_states(self):
        if not self.shard_dir or not os.path.isdir(self.shard_dir):
            return []
        states = []
        for name in sorted(os.listdir(self.shard_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.shard_dir, name)) as handle:
                    states.append(json.load(handle))
        return states

    def dump_spans(self, path):
        """Write this process's spans as JSON lines."""
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start - self.started,
                     "end": end - self.started}) + "\n")
            for parent, (name, start, end, calls, total) in \
                    sorted(self.hot.items()):
                handle.write(json.dumps(
                    {"id": None, "parent": parent, "name": name,
                     "start": start - self.started,
                     "end": end - self.started,
                     "calls": calls, "busy": total}) + "\n")

    # -- metrics ---------------------------------------------------------

    def report(self, wall_s, jobs, kernel_stats):
        """Per-layer metrics for one traced campaign, and notes: the
        percentile ``runner.unit_ms.tail`` reads and its sample count,
        and this process's own summed self time.

        ``wall_s`` is the traced wall time of this process since the
        tracer was installed; ``kernel_stats`` is
        ``repro.sim.compile.cache.stats()`` read at the end of the run
        (the scheduler folds pool workers' counters into the parent).
        On the pool path the layer times of all processes are summed
        (the parent's blocked time is ``runner.wait.self_s``), while
        ``other.self_s`` and ``trace.wall_s`` are the parent's.
        """
        totals = {name: list(entry) for name, entry in self.totals.items()}
        counts = collections.Counter(self.counts)
        unit_ms = list(self.unit_ms)
        root_s = sum(end - start for _sid, parent, _name, start, end
                     in self.spans if parent == 0)
        root_s += sum(total for parent, (_n, _s, _e, _c, total)
                      in self.hot.items() if parent == 0)
        for state in self._worker_states():
            for name, (calls, total, self_s) in state["totals"].items():
                totals[name][0] += calls
                totals[name][1] += total
                totals[name][2] += self_s
            counts.update(state["counts"])
            unit_ms.extend(state["unit_ms"])

        def calls(name):
            return totals[name][0]

        def total_s(name):
            return totals[name][1]

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s) in totals.items():
            layer_self[LAYER_OF[name]] += self_s

        def frac(part, whole):
            return part / whole if whole else 0.0

        def repeat_frac(name):
            return frac(counts[name + ".repeats"], counts[name + ".requests"])

        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        out["hdl.parse.calls"] = calls("hdl.parse")
        out["hdl.parse.repeat_frac"] = repeat_frac("hdl.parse")
        out["lint.calls"] = calls("lint")
        out["locate.calls"] = calls("locate")
        out["sim.elaborate.calls"] = calls("sim.elaborate")
        out["sim.elaborate.repeat_frac"] = repeat_frac("sim.elaborate")
        compile_calls = calls("sim.compile")
        out["sim.compile.calls"] = compile_calls
        out["sim.compile.built"] = kernel_stats.get("compiled", 0)
        out["sim.compile.memo_hit_frac"] = frac(
            kernel_stats.get("memo_hits", 0), compile_calls)
        out["sim.compile.disk_hit_frac"] = frac(
            kernel_stats.get("disk_hits", 0), compile_calls)
        out["sim.kernel.calls"] = calls("sim.kernel")
        out["sim.cycles"] = counts["sim.cycles"]
        out["sim.events"] = counts["sim.events"]
        out["sim.cycles_per_s"] = frac(counts["sim.cycles"],
                                       layer_self["sim.kernel"])
        out["uvm.runs"] = calls("uvm")
        out["uvm.repeat_frac"] = repeat_frac("uvm")
        out["cover.calls"] = calls("cover")
        out["cover.total_s"] = total_s("cover")
        out["cover.repeat_frac"] = repeat_frac("cover")
        out["llm.calls"] = calls("llm")
        out["core.preprocess.total_s"] = total_s("core.preprocess")
        out["core.repair.proposals"] = calls("core.repair")
        out["core.repair.applied_frac"] = frac(
            counts["core.repair.applied"], calls("core.repair"))
        out["baselines.calls"] = calls("baselines")
        out["experiments.fr_oracle.calls"] = calls("experiments.fr_oracle")
        out["experiments.fr_oracle.total_s"] = total_s(
            "experiments.fr_oracle")
        campaign_s = total_s("runner.campaign")
        out["runner.campaigns"] = calls("runner.campaign")
        out["runner.units_executed"] = calls("runner.unit")
        out["runner.units_cached"] = counts["runner.cache_hits"]
        out["runner.cache_io_s"] = total_s("runner.cache")
        out["runner.worker_busy_frac"] = frac(
            total_s("runner.unit"), jobs * campaign_s)
        p50, tail_pct, tail = unit_percentiles(unit_ms)
        out["runner.unit_ms.p50"] = p50
        out["runner.unit_ms.tail"] = tail
        out["errgen.validate.calls"] = calls("errgen.validate")
        out["other.self_s"] = wall_s - root_s
        out["trace.wall_s"] = wall_s
        notes = {"unit_ms_tail_pct": tail_pct,
                 "unit_ms_samples": len(unit_ms),
                 "parent_self_s": sum(entry[2]
                                      for entry in self.totals.values())}
        return out, notes


def unit_percentiles(samples_ms):
    """``(p50, tail percentile, tail value)`` of unit durations.  The
    tail is the highest candidate percentile with at least ten
    samples beyond it."""
    if not samples_ms:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples_ms)
    p50 = statistics.median(ordered)
    for pct in _TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return p50, pct, _percentile(ordered, pct)
    return p50, 50.0, p50


def _percentile(ordered, pct):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- wrapper installation ------------------------------------------------


def _text_key(value):
    return hash(value) if isinstance(value, str) else id(value)


def _parse_before(tracer, args, kwargs):
    tracer.repeat("hdl.parse", _text_key(args[0]))


def _elaborate_before(tracer, args, kwargs):
    top = kwargs.get("top", args[1] if len(args) > 1 else None)
    tracer.repeat("sim.elaborate", (_text_key(args[0]), top))


def _uvm_before(tracer, args, kwargs):
    test = args[0]
    tracer.repeat("uvm", (_text_key(test.source), test.top))


def _uvm_after(tracer, args, kwargs, result):
    simulator = result.simulator
    if simulator is not None:
        tracer.count("sim.cycles", int(getattr(simulator, "time", 0)) // 10)
        tracer.count("sim.events", int(getattr(simulator, "event_count", 0)))


def _cover_before(tracer, args, kwargs):
    instance = args[0]
    tracer.repeat("cover", (instance.instance_id,
                            _text_key(instance.buggy_source)))


def _repair_after(tracer, args, kwargs, proposal):
    if proposal.valid and proposal.applied:
        tracer.count("core.repair.applied")


def _cache_get_after(tracer, args, kwargs, record):
    if record is not None:
        tracer.count("runner.cache_hits")


def _unit_after(tracer, args, kwargs, record):
    _sid, _parent, _name, start, end = tracer.spans[-1]
    tracer.unit_ms.append((end - start) * 1000.0)
    tracer.flush_shard()


def _patch(tracer, module_name, attr, span, **hooks):
    # ``repro.sim.elaborate`` and ``repro.sim.backend`` are shadowed by
    # same-named functions on the package: import submodules by name.
    owner = importlib.import_module(module_name)
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    setattr(owner, path[-1],
            tracer.wrap(span, getattr(owner, path[-1]), **hooks))


#: (span, [(module, attribute)], hooks).  Every module-level binding a
#: campaign resolves an entry point through is listed.
ENTRY_POINTS = (
    ("hdl.parse", [("repro.hdl.parser", "parse_source"),
                   ("repro.hdl", "parse_source"),
                   ("repro.lint.linter", "parse_source"),
                   ("repro.locate.engine", "parse_source")],
     {"before": _parse_before}),
    ("lint", [("repro.lint.linter", "Linter.lint")], {}),
    ("locate", [("repro.locate.engine", "LocalizationEngine.analyze")], {}),
    ("sim.elaborate", [("repro.sim.elaborate", "elaborate"),
                       ("repro.sim", "elaborate"),
                       ("repro.sim.backend", "elaborate"),
                       ("repro.sim.engine", "elaborate"),
                       ("repro.sim.compile.engine", "elaborate"),
                       ("repro.sim.compile.xcheck", "elaborate"),
                       ("repro.sim.compile.lanes", "elaborate")],
     {"before": _elaborate_before}),
    ("sim.kernel", [("repro.sim.engine", "Simulator.poke"),
                    ("repro.sim.engine", "Simulator.set"),
                    ("repro.sim.engine", "Simulator.settle"),
                    ("repro.sim.engine", "Simulator.tick"),
                    ("repro.sim.compile.engine", "CompiledSimulator.poke"),
                    ("repro.sim.compile.engine", "CompiledSimulator.set"),
                    ("repro.sim.compile.engine", "CompiledSimulator.tick")],
     {}),
    ("uvm", [("repro.uvm.test", "UVMTest.run")],
     {"before": _uvm_before, "after": _uvm_after}),
    ("cover", [("repro.experiments.runner", "collect_unit_coverage")],
     {"before": _cover_before}),
    ("llm", [("repro.llm.mock", "MockLLM.complete")], {}),
    ("core.preprocess", [("repro.core.preprocess", "Preprocessor.run")], {}),
    ("core.repair", [("repro.core.repair", "RepairAgent.propose")],
     {"after": _repair_after}),
    ("baselines", [("repro.baselines.meic", "MEIC.repair"),
                   ("repro.baselines.direct", "DirectLLM.repair"),
                   ("repro.baselines.strider", "Strider.repair"),
                   ("repro.baselines.rtlrepair", "RTLRepair.repair")], {}),
    ("experiments.fr_oracle", [("repro.experiments.runner",
                                "evaluate_fix")], {}),
    ("runner.campaign", [("repro.runner.scheduler", "run_units"),
                         ("repro.experiments.runner", "run_units")], {}),
    ("runner.unit", [("repro.experiments.runner", "run_unit")],
     {"after": _unit_after}),
    ("runner.cache", [("repro.runner.cache", "ResultCache.put")], {}),
    ("runner.cache", [("repro.runner.cache", "ResultCache.get")],
     {"after": _cache_get_after}),
    # The scheduler calls it as ``concurrent.futures.wait``.
    ("runner.wait", [("concurrent.futures", "wait")], {}),
    ("errgen", [("repro.errgen.generator", "generate_dataset"),
                ("repro.experiments.fig5", "generate_dataset"),
                ("repro.experiments.fig6", "generate_dataset"),
                ("repro.experiments.fig7", "generate_dataset"),
                ("repro.experiments.table2", "generate_dataset"),
                ("repro.experiments.table3", "generate_dataset")], {}),
    ("errgen.validate", [("repro.errgen.generator", "_validate")], {}),
)


def install(shard_dir=None):
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the
    :class:`Tracer` they record into."""
    tracer = Tracer(shard_dir)
    for span, bindings, hooks in ENTRY_POINTS:
        for module_name, attr in bindings:
            _patch(tracer, module_name, attr, span, **hooks)
    _install_kernel_settle(tracer)
    return tracer


def _install_kernel_settle(tracer):
    """Bill the compiled kernel's ``settle`` to ``sim.kernel``.

    ``CompiledSimulator`` binds the generated ``settle`` as an instance
    attribute, so the class-level wrapper never sees it; the ``bind``
    callable ``get_kernel`` returns is wrapped to time it instead.
    """
    def bind_with_timed_settle(bind):
        @functools.wraps(bind)
        def timed_bind(design):
            kernel = dict(bind(design))
            kernel["settle"] = tracer.wrap("sim.kernel", kernel["settle"])
            return kernel
        return timed_bind

    def timed_get_kernel(get_kernel):
        @functools.wraps(get_kernel)
        def call(*args, **kwargs):
            bind, source = get_kernel(*args, **kwargs)
            return bind_with_timed_settle(bind), source
        return tracer.wrap("sim.compile", call)

    for module_name in ("repro.sim.compile.cache", "repro.sim.compile",
                        "repro.sim.compile.engine",
                        "repro.sim.compile.lanes"):
        module = importlib.import_module(module_name)
        module.get_kernel = timed_get_kernel(module.get_kernel)
