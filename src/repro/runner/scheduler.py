"""Campaign execution: one cache-aware, fault-tolerant dispatch loop.

The scheduler owns no experiment semantics.  A :class:`WorkUnit` is
executed by ``repro.experiments.runner.run_unit`` (imported lazily so
the experiments layer can itself depend on this package without an
import cycle); everything here is generic plumbing: resolve cache
hits, dispatch the misses, persist each finished record from the
parent process, and return records in grid order.

One loop dispatches at every ``jobs``.  Above 1 it submits to a
``ProcessPoolExecutor`` as wide as ``jobs``; at 1 to an in-process
executor whose ``submit`` runs the unit before it returns (no worker,
no pickling, and the per-process memos persist across units).  Every
unit is seeded from its own fields and shares no mutable state with
its siblings, so results are bit-identical at any ``jobs`` — the only
observable difference is wall-clock time.

A pool outlives its campaign when it can, so the per-process memos
of its workers stay warm for the next one.  A ``jobs`` > 1 campaign
that ends with no ``fail_fast`` failure, pool breakage, deadline
reclaim or interrupt *parks* its pool.  The next campaign in the
process takes the parked pool when its ``jobs`` and ``os.environ``
equal those the workers forked with: the environment is what carries
``REPRO_TELEMETRY``, ``REPRO_FORENSICS`` and ``REPRO_FAULT_PLAN`` to
them.  Otherwise the parked pool is retired, its threads joined,
before a new pool forks.  A parked pool is also retired at
interpreter exit.  Reuse cannot change a record, because every unit
is a pure function of its fields; a ``jobs`` 1 campaign leaves a
parked pool where it is.

Fault tolerance (see :mod:`repro.runner.faults`): campaigns are
run-to-completion by default.  Every task not answered by the cache
is in exactly one state:

- *pending*: never run, or collateral of a pool the scheduler killed
  itself;
- *waiting*: struck or suspected; it re-runs solo once its
  deterministic backoff has passed;
- *running*: its future, its solo flag and its reclaim deadline;
- *landed*: its record, a cache hit or a poisoned record.

One transition takes a task out of *running*, whatever the outcome: a
record lands; a unit that raised is quarantined at once (re-running a
pure function of its fields would raise identically); a
``UnitTimeout`` is a strike; a broken pool makes every running task a
suspect, re-checked against the on-disk cache in case a sibling shard
landed its record meanwhile.  One blame rule decides strikes: a
failure is a strike only when the task ran alone, or when its own
alarm or deadline fired.  A solo task runs alone until it finishes,
so a unit is never poisoned for a sibling's crash.  At
``faults.MAX_STRIKES`` strikes a task lands as a structured
``"poisoned"`` record and the campaign continues; ``fail_fast``
instead stops dispatch at the first failure, lets running units land,
and raises it.  Retries never apply to landed records, so a faulty
run's surviving records stay bit-identical to a fault-free
``--jobs 1`` run.

Observability: each executed unit ships one ``StatsDelta`` (a
:meth:`repro.obs.metrics.MetricsRegistry.delta` dict) back with its
record — kernel-cache movement and per-unit wall seconds — and the
runner folds them into a per-campaign registry.  The historical
``kernel_stats`` dict is a read-only view over that registry;
fault-tolerance movement lands under ``faults.*``
(:attr:`CampaignRunner.fault_stats`).  When telemetry is enabled
(``repro.obs.sink``), workers additionally flush span shards per unit;
none of this touches ``cache_key()`` or record bytes.
"""

import atexit
import collections
import concurrent.futures
import contextlib
import dataclasses
import os
import signal
import sys
import time

from repro.forensics import bundle as forensics
from repro.obs import sink, trace
from repro.obs.metrics import GLOBAL as _global_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runner import faultinject, faults
from repro.runner.cache import ResultCache
from repro.runner.faults import CampaignInterrupted, UnitTimeout
from repro.runner.report import ProgressReporter

#: Poll interval of the dispatch loop: bounds how quickly the
#: scheduler notices an expired deadline or a waiting task's backoff.
_TICK = 0.25

#: Scheduler-side deadline for one dispatched unit: the worker-side
#: alarm gets ``unit_timeout``, and only if the worker cannot deliver
#: even the *timeout* within this envelope (the alarm is masked, the
#: interpreter is wedged in C) does the parent kill the pool to
#: reclaim it.
_DEADLINE_SLACK = 1.5
_DEADLINE_GRACE = 2.0

_POOL_BROKEN = (concurrent.futures.BrokenExecutor,)


def execute_unit(unit):
    """Run one work unit to completion (top-level: picklable).

    The experiments layer is imported lazily; in a pool worker this
    happens once per process on the first unit it receives.
    """
    from repro.experiments.runner import run_unit

    return run_unit(unit)


def _unit_label(unit):
    """Human-readable unit identity for spans and slow-unit reports."""
    label = getattr(unit, "unit_id", None)
    if label:
        return label
    key = getattr(unit, "cache_key", None)
    return key() if callable(key) else type(unit).__name__


def _unit_key(unit):
    key = getattr(unit, "cache_key", None)
    return key() if callable(key) else None


def _execute_with_stats(executor, unit, timeout=None):
    """Run ``executor(unit)`` and ship the metrics movement it caused
    (top-level: picklable for pool workers).

    The kernel cache (and every other instrumented layer) records into
    the process-global registry; shipping per-unit deltas back with
    each record lets the parent aggregate a campaign-wide picture
    regardless of how units were distributed over worker processes.

    ``timeout`` arms the worker-side wall-clock alarm: running past it
    raises a picklable :class:`UnitTimeout` back to the scheduler.
    """
    sink.maybe_init_worker()
    forensics.maybe_init_worker()
    label = _unit_label(unit)
    sink.mark_open("unit", label)
    before = _global_metrics.snapshot()
    start = time.perf_counter()
    try:
        with trace.span("unit", cat="scheduler", label=label):
            with faults.unit_alarm(timeout, label):
                faultinject.check_unit(label, key=_unit_key(unit))
                record = executor(unit)
    except BaseException:
        # Ship whatever spans closed before the failure; the parent
        # decides whether this unit is retried or quarantined.
        sink.flush_spans()
        raise
    _global_metrics.observe("unit.seconds", time.perf_counter() - start)
    _global_metrics.inc("units.executed")
    sink.flush_spans()
    # Capture AFTER the span flush so the bundle's span slice can read
    # this unit's shard; capture only observes the finished record.
    if forensics.enabled():
        forensics.capture_unit_failure(unit, record)
        sink.flush_spans()  # don't bill forensic re-run spans to a peer
    return record, _global_metrics.delta(before)


class _Task:
    """One grid position and its failure history: ``strikes`` counts
    the failures blamed on it, ``not_before`` is the earliest time it
    may leave *waiting*.  While it runs, ``solo`` says nothing runs
    beside it and ``deadline`` is its scheduler-side reclaim time
    (``None`` without a unit timeout)."""

    __slots__ = ("position", "strikes", "not_before", "solo", "deadline")

    def __init__(self, position):
        self.position = position
        self.strikes = 0
        self.not_before = 0.0
        self.solo = False
        self.deadline = None


def _blame(exc, task, reclaimed):
    """The one blame rule: ``(kind, strike)`` for a task that left
    *running* with ``exc``.  A failure is a strike only when the task
    ran alone, or when its own alarm or deadline fired.  ``reclaimed``
    is when the scheduler killed this task's pool to reclaim an
    overdue unit (``None`` if it did not); its other tasks are
    collateral, kind ``None``."""
    if isinstance(exc, UnitTimeout):
        return "timeout", True
    if not isinstance(exc, _POOL_BROKEN):
        return "exception", False
    if reclaimed is None:
        return "worker-death", task.solo
    if task.deadline <= reclaimed:
        return "timeout", True
    return None, False


class _InlineExecutor(concurrent.futures.Executor):
    """The ``jobs`` 1 executor: ``submit`` runs the call in this
    process and returns its finished future.  Interrupts propagate
    rather than landing in the future."""

    def submit(self, fn, /, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except CampaignInterrupted:
            raise
        except Exception as exc:
            future.set_exception(exc)
        return future


def _kill_pool(pool):
    """SIGKILL every worker process of a pool (the executor then
    reports BrokenProcessPool for all of its running futures)."""
    # _processes is None once shutdown() has run, not just absent.
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:
            pass


def _retire_pool(pool, kill):
    """Shut a pool down and join its threads.

    ``shutdown(wait=False)`` would drop the executor's handle on its
    manager thread, leaving that thread and the call queue's feeder
    running beside the next pool's fork.  ``kill`` SIGKILLs the
    workers first (a broken, reclaimed or interrupted pool), so the
    join never waits on a wedged unit; ``shutdown`` drops the process
    map, so the kill must come before it.
    """
    if kill:
        _kill_pool(pool)
    pool.shutdown(wait=True)


#: ``(key, pool)``: the pool the last clean ``jobs`` > 1 campaign
#: parked, and the ``(jobs, environment)`` its workers forked with; or
#: ``None``.
_parked = None


def _retire_parked():
    """Retire the parked pool, if there is one."""
    global _parked
    parked, _parked = _parked, None
    if parked is not None:
        _retire_pool(parked[1], kill=False)


atexit.register(_retire_parked)


def _raise_on_sigterm(_signum, _frame):
    raise CampaignInterrupted("terminated (SIGTERM)")


def _pool_worker_init():
    """Pool-worker signal hygiene: forked workers inherit the parent's
    graceful-shutdown SIGTERM handler and the default SIGINT handler,
    so a parent-side interrupt or pool teardown would make every worker
    print a spurious traceback.  The parent owns shutdown; workers just
    die quietly."""
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGINT, signal.SIG_IGN)


class CampaignRunner:
    """Executes a list of work units with caching and parallelism.

    ``executor`` is the unit-execution primitive — any picklable
    module-level callable taking one unit (the default runs campaign
    work units through the experiments layer; the fuzz campaign passes
    :func:`repro.fuzz.campaign.execute_fuzz_unit`).  Units only need a
    ``cache_key()`` method when a cache is attached.

    ``policy`` (a :class:`repro.runner.faults.FaultPolicy`) governs
    timeouts, retry backoff and fail-fast; ``poisoned_factory``
    builds the structured record a quarantined unit lands as
    (``factory(unit, failure_dict) -> record``; the default handles
    campaign work units and falls back to a plain verdict dict for
    unit families without an ``instance``).
    """

    def __init__(self, jobs=1, cache=None, reporter=None, executor=None,
                 policy=None, poisoned_factory=None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.reporter = reporter
        self.executor = executor if executor is not None else execute_unit
        self.policy = policy if policy is not None \
            else faults.get_default_policy()
        self.poisoned_factory = poisoned_factory
        #: Structured summaries of quarantined units from the last run.
        self.quarantined = []
        #: Per-campaign metrics: every executed unit's StatsDelta folds
        #: in here (kernel cache, unit wall seconds).
        self.metrics = MetricsRegistry()

    @property
    def kernel_stats(self):
        """Compiled-kernel cache movement across all executed units
        (read-only view over the campaign metrics registry)."""
        return {
            "compiled": self.metrics.counter("kernel.compiled"),
            "memo_hits": self.metrics.counter("kernel.memo_hits"),
        }

    @property
    def fault_stats(self):
        """Fault-tolerance movement: re-dispatches, quarantines, pool
        respawns, failed cache writes, and their causes, counting one
        worker death per pool breakage the scheduler did not cause
        (read-only metrics view)."""
        return {
            "retries": self.metrics.counter("faults.retries"),
            "quarantined": self.metrics.counter("faults.quarantined"),
            "pool_respawns": self.metrics.counter("faults.pool_respawns"),
            "timeouts": self.metrics.counter("faults.timeouts"),
            "worker_deaths": self.metrics.counter("faults.worker_deaths"),
            "cache_write_errors": self.metrics.counter(
                "faults.cache_write_errors"),
        }

    def _absorb(self, delta, from_worker):
        """Fold one unit's StatsDelta into the campaign registry.

        Deltas produced by pool workers are also folded into this
        process's global registry so the telemetry flush at scope exit
        sees the whole campaign; in-process execution already recorded
        there directly.
        """
        self.metrics.absorb(delta)
        if from_worker:
            _global_metrics.absorb(delta)

    def _bump(self, name, value=1):
        """Parent-side fault counter: campaign registry + telemetry."""
        self.metrics.inc(name, value)
        _global_metrics.inc(name, value)

    def _rolling_eta(self, remaining):
        """Remaining-seconds estimate from the rolling per-unit window
        (None until an executed unit has been observed)."""
        if remaining <= 0:
            return None
        hist = self.metrics.histogram("unit.seconds")
        median = hist.rolling_median() if hist is not None else None
        if median is None:
            return None
        return remaining * median / self.jobs

    def run(self, units, progress=None):
        """Execute ``units``; returns records in the same order.

        ``progress``, if given, is called as ``progress(done, total)``
        after every resolved unit (cached or executed).  Raises
        :class:`CampaignInterrupted` on SIGINT/SIGTERM — after
        cancelling pending work, flushing telemetry, and emitting the
        partial-progress summary (finished units are already cached).
        """
        units = list(units)
        total = len(units)
        results = [None] * total
        done = cached = 0
        self.quarantined = []

        def advance(is_hit):
            nonlocal done, cached
            done += 1
            cached += 1 if is_hit else 0
            if self.reporter is not None:
                self.reporter.update(done, cached=cached,
                                     kernels=self.kernel_stats,
                                     eta_seconds=self._rolling_eta(
                                         total - done))
            if progress is not None:
                progress(done, total)

        def resolve_cached(position):
            """Land the cached record for one position, if any."""
            if self.cache is None:
                return None
            record = self.cache.get(units[position].cache_key())
            if record is None:
                return None
            instance = getattr(units[position], "instance", None)
            if instance is not None and not isinstance(record, dict):
                _restamp(record, instance)
            results[position] = record
            # Warm-cache runs still bundle their failures (the
            # content-addressed id makes re-captures idempotent).
            if forensics.enabled():
                forensics.capture_unit_failure(units[position], record)
            advance(True)
            return record

        def land(position, record):
            results[position] = record
            self._store(units[position], record)
            advance(False)

        tasks = [
            _Task(position) for position in range(total)
            if resolve_cached(position) is None
        ]

        restore_sigterm = self._install_sigterm()
        try:
            try:
                if tasks:
                    self._dispatch(units, tasks, land, resolve_cached)
            except KeyboardInterrupt as exc:
                raise CampaignInterrupted("interrupted (SIGINT)",
                                          done=done, total=total) from exc
            except CampaignInterrupted as exc:
                raise CampaignInterrupted(exc.reason, done=done,
                                          total=total) from None
        except CampaignInterrupted:
            if self.reporter is not None:
                self.reporter.interrupted(done, total, cached=cached)
            raise
        finally:
            restore_sigterm()
            # The spans buffered so far must survive even an abort —
            # historically this flush was skipped on exception paths.
            sink.flush_spans()

        if self.reporter is not None:
            self.reporter.finish(kernels=self.kernel_stats,
                                 faults=self.fault_stats)
        return results

    def _install_sigterm(self):
        """Route SIGTERM through the same graceful-shutdown path as
        Ctrl-C; returns a restore callable (no-op off the main
        thread)."""
        try:
            previous = signal.signal(signal.SIGTERM, _raise_on_sigterm)
        except (ValueError, OSError, AttributeError):
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)

    # -- dispatch ------------------------------------------------------

    def _spawn_pool(self, key):
        """The executor for one dispatch: in process at ``jobs`` 1;
        above, the parked pool if its workers forked under ``key``,
        else a new pool, which forks only after the parked one is
        retired."""
        global _parked
        if self.jobs == 1:
            return _InlineExecutor()
        if _parked is not None and _parked[0] == key:
            pool, _parked = _parked[1], None
            return pool
        _retire_parked()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_pool_worker_init)

    def _deadline(self):
        """Scheduler-side reclaim deadline for one dispatch, or None
        when timeouts are off."""
        timeout = self.policy.unit_timeout
        if not timeout:
            return None
        return time.monotonic() + timeout * _DEADLINE_SLACK + _DEADLINE_GRACE

    def _dispatch(self, units, tasks, land, resolve_cached):
        """Move every task from *pending* to *landed* (see the module
        docstring for the states)."""
        global _parked
        policy = self.policy
        pending = collections.deque(tasks)
        waiting = collections.deque()
        running = {}      # future -> task
        failure = None    # the first failure, under fail_fast
        reclaimed = None  # when the scheduler killed the current pool
        clean = True      # no pool broke or was reclaimed
        # What a pool's workers inherit when they fork.
        key = (self.jobs, dict(os.environ))
        pool = self._spawn_pool(key)

        def submit(task, solo):
            task.solo = solo
            try:
                future = pool.submit(
                    _execute_with_stats, self.executor,
                    units[task.position], policy.unit_timeout,
                )
            except _POOL_BROKEN as exc:
                # A worker died since the last wait: this task never
                # ran, so it joins that crash's suspects unblamed.
                future = concurrent.futures.Future()
                future.set_exception(exc)
                task.solo = False
            task.deadline = self._deadline()
            running[future] = task

        def leave_running(task, exc, future=None):
            """The one transition out of *running*."""
            nonlocal failure
            if exc is None:
                record, delta = future.result()
                self._absorb(delta, from_worker=self.jobs > 1)
                land(task.position, record)
                return
            kind, strike = _blame(exc, task, reclaimed)
            if kind == "timeout":
                self._bump("faults.timeouts")
            if policy.fail_fast and kind is not None and failure is None:
                failure = exc
            if failure is not None:
                return
            if strike:
                task.strikes += 1
            if kind == "exception" or task.strikes >= faults.MAX_STRIKES:
                self._quarantine(units, task.position, kind, exc,
                                 task.strikes, land)
                return
            if resolve_cached(task.position) is not None:
                return
            self._bump("faults.retries")
            if kind is None:
                pending.appendleft(task)
            else:
                task.not_before = time.monotonic() + \
                    faults.backoff_seconds(policy, task.strikes)
                waiting.append(task)

        completed = False
        try:
            while True:
                # Dispatch.  Nothing runs beside a solo task; a waiting
                # task runs solo, ahead of every pending one; pending
                # tasks fill the pool and no more, so a deadline times
                # execution, not queueing.
                if failure is None and not any(
                        task.solo for task in running.values()):
                    if not waiting:
                        while pending and len(running) < self.jobs:
                            submit(pending.popleft(), solo=False)
                    elif not running and \
                            waiting[0].not_before <= time.monotonic():
                        submit(waiting.popleft(), solo=True)
                if not running:
                    if failure is not None or not waiting:
                        break
                    time.sleep(max(0.0, waiting[0].not_before
                                   - time.monotonic()))
                    continue

                done, _ = concurrent.futures.wait(
                    running, timeout=_TICK,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                broken = None
                for future in done:
                    exc = future.exception()
                    if isinstance(exc, _POOL_BROKEN):
                        broken = exc
                    else:
                        leave_running(running.pop(future), exc, future)

                if broken is not None:
                    # Every running task is a suspect of the breakage,
                    # which is one worker death unless the scheduler
                    # killed the pool itself.
                    clean = False
                    if reclaimed is None:
                        self._bump("faults.worker_deaths")
                    suspects = list(running.values())
                    running.clear()
                    _retire_pool(pool, kill=True)
                    for task in suspects:
                        leave_running(task, broken)
                    if failure is None:
                        self._bump("faults.pool_respawns")
                        pool = self._spawn_pool(key)
                        reclaimed = None
                    continue
                # A worker that cannot even deliver its UnitTimeout
                # (alarm masked, interpreter wedged in C) is reclaimed
                # by killing its pool.
                now = time.monotonic()
                if reclaimed is None and any(
                        task.deadline is not None and now > task.deadline
                        for task in running.values()):
                    reclaimed = now
                    clean = False
                    _kill_pool(pool)
            completed = True
        finally:
            if completed and clean and failure is None and self.jobs > 1:
                _parked = (key, pool)
            else:
                _retire_pool(pool, kill=not completed)
        if failure is not None:
            raise failure

    def _quarantine(self, units, position, kind, exc, strikes, land):
        """Land a structured poisoned record for one unit and let the
        campaign continue.  A unit that raised goes straight here:
        re-running a pure function of its fields would raise
        identically, so exceptions are never retried."""
        unit = units[position]
        failure = faults.failure_detail(kind, exc, label=_unit_label(unit),
                                        strikes=strikes)
        record = self._make_poisoned(unit, failure)
        self._bump("faults.quarantined")
        self.quarantined.append({"unit": _unit_label(unit), "kind": kind,
                                 "error": failure.get("error")})
        print(f"[campaign] QUARANTINED {_unit_label(unit)} "
              f"({kind}: {failure.get('error')})",
              file=sys.stderr, flush=True)
        if forensics.enabled():
            forensics.capture_poisoned(unit, failure)
        land(position, record)

    def _make_poisoned(self, unit, failure):
        if self.poisoned_factory is not None:
            return self.poisoned_factory(unit, failure)
        if getattr(unit, "instance", None) is not None:
            from repro.experiments.runner import make_poisoned_record

            return make_poisoned_record(unit, failure)
        return {"ok": False, "poisoned": True,
                "unit": _unit_label(unit), "failure": failure}

    # -- storage ---------------------------------------------------------

    def _store(self, unit, record):
        if self.cache is None:
            return
        policy = self.policy
        last_error = None
        for attempt in range(faults.CACHE_WRITE_RETRIES):
            try:
                self.cache.put(unit.cache_key(), record)
                return
            except OSError as exc:
                last_error = exc
                if policy.fail_fast:
                    raise
                time.sleep(faults.backoff_seconds(policy, attempt + 1))
        # The record is still returned in-memory; only persistence
        # degraded.  A cache write is infrastructure, never a verdict.
        self._bump("faults.cache_write_errors")
        print(f"[campaign] WARNING: could not cache record for "
              f"{_unit_label(unit)}: {last_error!r}",
              file=sys.stderr, flush=True)


def _restamp(record, instance):
    """Overwrite a cached record's grid metadata from the requesting
    instance.

    The cache key hashes only execution inputs (sources, method,
    attempts, seeds, config) — labels like ``paper_class`` are
    bucketing metadata a driver may relabel (fig6 folds half of
    ``incorrect_bitwidth`` into ``declaration_errors``), so a record
    cached by one driver must adopt the labels of the grid that is
    asking, not the one that happened to execute first.
    """
    record.instance_id = instance.instance_id
    record.module_name = instance.module_name
    record.category = instance.category
    record.kind = instance.kind
    record.paper_class = instance.paper_class


def run_units(units, jobs=1, cache_dir=None, progress=None,
              show_progress=False, cache=None,
              executor=None, telemetry=False,
              forensics_capture=False, unit_timeout=None,
              fail_fast=False, poisoned_factory=None):
    """Convenience front door used by the experiment drivers.

    ``cache_dir`` of ``None`` disables memoization; an explicit
    ``cache`` object (any ``get``/``put`` store, e.g. a
    :class:`ResultCache` with a custom codec) wins over ``cache_dir``.
    ``show_progress`` attaches a stderr :class:`ProgressReporter`;
    ``executor`` overrides the campaign
    unit-execution primitive.  ``telemetry`` writes span
    and metrics shards under ``<cache-dir>/telemetry/`` (requires
    ``cache_dir``; records are unaffected — timing is sidecar-only).
    ``forensics_capture`` archives every failing unit as a debug
    bundle under ``<cache-dir>/forensics/`` (requires ``cache_dir``;
    records and cache keys are unaffected — capture is sidecar-only,
    exactly like telemetry).

    ``unit_timeout`` / ``fail_fast`` override those fields of the
    process-default :class:`~repro.runner.faults.FaultPolicy`.
    ``poisoned_factory`` builds quarantine records for custom unit
    families.
    """
    units = list(units)
    policy = faults.get_default_policy()
    if unit_timeout is not None or fail_fast:
        policy = dataclasses.replace(
            policy,
            unit_timeout=(unit_timeout if unit_timeout is not None
                          else policy.unit_timeout),
            fail_fast=fail_fast or policy.fail_fast,
        )

    telemetry_dir = (
        os.path.join(os.fspath(cache_dir), "telemetry")
        if telemetry and cache_dir else None
    )
    forensics_dir = (
        os.path.join(os.fspath(cache_dir), "forensics")
        if forensics_capture and cache_dir else None
    )
    if cache is None and cache_dir:
        cache = ResultCache(cache_dir)
    reporter = ProgressReporter(len(units)) \
        if show_progress and units else None
    runner = CampaignRunner(jobs=jobs, cache=cache, reporter=reporter,
                            executor=executor, policy=policy,
                            poisoned_factory=poisoned_factory)
    with sink.telemetry_scope(telemetry_dir):
        with forensics.scope(forensics_dir):
            with trace.span("campaign", cat="scheduler",
                            units=len(units), jobs=runner.jobs):
                return runner.run(units, progress=progress)


def default_jobs():
    """A sensible ``--jobs auto`` value: physical parallelism, capped."""
    return min(8, os.cpu_count() or 1)
