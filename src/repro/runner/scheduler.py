"""Campaign execution: serial or process-pool, cache-aware,
fault-tolerant.

The scheduler owns no experiment semantics.  A :class:`WorkUnit` is
executed by ``repro.experiments.runner.run_unit`` (imported lazily so
the experiments layer can itself depend on this package without an
import cycle); everything here is generic plumbing: resolve cache
hits, fan the misses out over a ``ProcessPoolExecutor``, persist each
finished record from the parent process, and return records in grid
order.

Because every unit is seeded from its own fields and shares no mutable
state with its siblings, results are bit-identical whether ``jobs`` is
1 (plain in-process loop) or N — the only observable difference is
wall-clock time.

Fault tolerance (see :mod:`repro.runner.faults`): campaigns are
run-to-completion by default.  Infrastructure failures — a worker
killed mid-unit (``BrokenProcessPool``), a unit past its
``unit_timeout`` wall-clock budget, cache I/O errors — are retried
with bounded deterministic backoff; after a pool breakage the pool is
respawned, each suspect is re-checked against the on-disk cache (a
sibling shard may have landed its record meanwhile), and the rest
re-run *solo* so crash blame is unambiguous.  A unit
that kills its worker twice, or an exception the unit itself raises
(deterministic — retrying cannot change it), becomes a structured
``"poisoned"`` record and the campaign continues; ``fail_fast``
restores abort-on-first-error.  Retries never apply to landed
records, so a faulty run's surviving records stay bit-identical to a
fault-free ``--jobs 1`` run.

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

#: Poll interval of the parallel dispatch loop: bounds how quickly the
#: scheduler notices an expired deadline or a pending probation task.
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
    """One dispatchable grid position plus its failure history:
    ``strikes`` counts the infrastructure failures blamed on it,
    ``not_before`` is the deterministic-backoff earliest re-dispatch
    time."""

    __slots__ = ("position", "strikes", "not_before")

    def __init__(self, position):
        self.position = position
        self.strikes = 0
        self.not_before = 0.0


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
    timeouts, retry/quarantine and fail-fast; ``poisoned_factory``
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
        respawns, failed cache writes, and their causes (read-only
        metrics view)."""
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
                if tasks and self.jobs == 1:
                    self._run_serial(units, tasks, land, resolve_cached)
                elif tasks:
                    self._run_pool(units, tasks, land, resolve_cached)
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

    # -- serial path -----------------------------------------------------

    def _run_serial(self, units, tasks, land, resolve_cached):
        policy = self.policy
        queue = collections.deque(tasks)
        while queue:
            task = queue.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                record, delta = _execute_with_stats(
                    self.executor, units[task.position],
                    policy.unit_timeout)
            except (KeyboardInterrupt, CampaignInterrupted):
                raise
            except UnitTimeout as exc:
                self._bump("faults.timeouts")
                if policy.fail_fast:
                    raise
                self._after_infra_failure(task, "timeout", exc, units,
                                          land, resolve_cached,
                                          requeue=queue.appendleft)
            except Exception as exc:
                if policy.fail_fast:
                    raise
                self._quarantine(units, task.position, "exception", exc,
                                 task.strikes, land)
            else:
                self._absorb(delta, from_worker=False)
                land(task.position, record)

    # -- parallel path ---------------------------------------------------

    def _spawn_pool(self, workers):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_worker_init)

    @staticmethod
    def _kill_pool(pool):
        """Reclaim a pool whose worker is wedged: SIGKILL every worker
        process (the executor then reports BrokenProcessPool for all
        in-flight futures, which the dispatch loop recovers from)."""
        # _processes is None once shutdown() has run, not just absent.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:
                pass

    def _deadline(self):
        """Scheduler-side reclaim deadline for one dispatch, or None
        when timeouts are off."""
        timeout = self.policy.unit_timeout
        if not timeout:
            return None
        return time.monotonic() + timeout * _DEADLINE_SLACK + _DEADLINE_GRACE

    def _run_pool(self, units, tasks, land, resolve_cached):
        policy = self.policy
        queue = collections.deque(tasks)
        probation = collections.deque()
        workers = min(self.jobs, max(1, len(tasks)))
        pool = self._spawn_pool(workers)
        in_flight = {}    # future -> (task, solo)
        deadlines = {}    # future -> monotonic reclaim time
        killed = []       # tasks whose deadline forced a pool kill
        first_error = None
        interrupted = False

        def submit(task, solo):
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
                solo = False
            in_flight[future] = (task, solo)
            deadline = self._deadline()
            if deadline is not None:
                deadlines[future] = deadline

        try:
            while queue or probation or in_flight:
                if first_error is not None and not in_flight:
                    break
                now = time.monotonic()
                if first_error is None:
                    if probation:
                        # Probation dispatches run strictly solo:
                        # if the worker dies now, blame is unambiguous.
                        if not in_flight:
                            task = probation[0]
                            if task.not_before <= now:
                                probation.popleft()
                                submit(task, solo=True)
                            else:
                                time.sleep(
                                    min(task.not_before - now, _TICK))
                                continue
                    else:
                        # Window = pool width, so every submitted task
                        # starts immediately and deadlines measure
                        # actual execution, not queue time.
                        while queue and len(in_flight) < workers:
                            submit(queue.popleft(), solo=False)
                if not in_flight:
                    continue

                done_futures, _ = concurrent.futures.wait(
                    in_flight, timeout=_TICK,
                    return_when=concurrent.futures.FIRST_COMPLETED)

                broken_exc = None
                broken_suspects = []
                for future in done_futures:
                    task, solo = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        payload = future.result()
                    except concurrent.futures.CancelledError:
                        continue
                    except UnitTimeout as exc:
                        self._bump("faults.timeouts")
                        if policy.fail_fast:
                            if first_error is None:
                                first_error = exc
                                pool.shutdown(wait=False,
                                              cancel_futures=True)
                            continue
                        if first_error is None:
                            self._after_infra_failure(
                                task, "timeout", exc, units, land,
                                resolve_cached,
                                requeue=probation.append)
                        continue
                    except _POOL_BROKEN as exc:
                        broken_exc = exc
                        broken_suspects.append((task, solo))
                        continue
                    except Exception as exc:
                        if policy.fail_fast:
                            # First failure wins; drop the queued units
                            # but keep draining so already-running
                            # siblings still land in the cache instead
                            # of being recomputed on retry.
                            if first_error is None:
                                first_error = exc
                                pool.shutdown(wait=False,
                                              cancel_futures=True)
                            continue
                        if first_error is None:
                            self._quarantine(units, task.position,
                                             "exception", exc,
                                             task.strikes, land)
                        continue
                    if task in killed:
                        # Raced its own reclaim and won: the result is
                        # valid, and the kill must not be blamed on it.
                        killed.remove(task)
                    record, delta = payload
                    self._absorb(delta, from_worker=True)
                    land(task.position, record)

                if broken_exc is not None:
                    # The pool is gone: every in-flight future fails.
                    # Fold the stragglers in as suspects too, respawn,
                    # and re-check each suspect against the cache (a
                    # sibling shard may have landed its record).
                    for future, (task, solo) in list(in_flight.items()):
                        broken_suspects.append((task, solo))
                    in_flight.clear()
                    deadlines.clear()
                    if policy.fail_fast and first_error is None:
                        first_error = broken_exc
                    pool.shutdown(wait=False)
                    if first_error is None:
                        self._bump("faults.pool_respawns")
                        pool = self._spawn_pool(workers)
                        deadline_kill = bool(killed)
                        for task, solo in broken_suspects:
                            if deadline_kill and task not in killed:
                                # Collateral of a reclaim we initiated:
                                # the cause is known, no strike.
                                if self._still_pending(task,
                                                       resolve_cached):
                                    self._bump("faults.retries")
                                    queue.appendleft(task)
                                continue
                            kind = ("timeout" if task in killed
                                    else "worker-death")
                            if task in killed:
                                self._bump("faults.timeouts")
                            else:
                                self._bump("faults.worker_deaths")
                            self._after_infra_failure(
                                task, kind, broken_exc, units, land,
                                resolve_cached,
                                requeue=probation.append,
                                precise=(solo or task in killed))
                        killed.clear()

                # Scheduler-side deadline: a worker that cannot even
                # deliver its UnitTimeout (alarm masked, interpreter
                # wedged in C) is reclaimed by killing the pool.
                if first_error is None and deadlines:
                    now = time.monotonic()
                    overdue = [future for future, when in deadlines.items()
                               if now > when]
                    if overdue:
                        for future in overdue:
                            killed.append(in_flight[future][0])
                            deadlines.pop(future, None)
                        self._kill_pool(pool)

            if first_error is not None:
                raise first_error
        except (KeyboardInterrupt, CampaignInterrupted):
            interrupted = True
            raise
        finally:
            if interrupted:
                # Kill before shutdown: shutdown() drops the process
                # map, and waiting for a wedged worker would hang the
                # very Ctrl-C the user just pressed.
                self._kill_pool(pool)
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)

    # -- failure handling (shared by both paths) -------------------------

    def _still_pending(self, task, resolve_cached):
        """Whether a task still needs to run: its record may have
        landed in the cache before a crash (a sibling shard sharing
        the cache directory), in which case it resolves as a hit."""
        return resolve_cached(task.position) is None

    def _after_infra_failure(self, task, kind, exc, units, land,
                             resolve_cached, requeue, precise=True):
        """Strike a task for an infrastructure failure and decide:
        retry with deterministic backoff, or quarantine.

        ``precise`` says blame is unambiguous (a timeout reported by
        the task's own future, or a crash while running solo).  Only
        precise failures are strikes, so a unit is never poisoned for
        a sibling's crash; an imprecise suspect just re-runs solo,
        where its next failure is precise.
        """
        policy = self.policy
        if precise:
            task.strikes += 1
            if task.strikes >= policy.max_strikes:
                self._quarantine(units, task.position, kind, exc,
                                 task.strikes, land)
                return
        if not self._still_pending(task, resolve_cached):
            return
        task.not_before = time.monotonic() + \
            faults.backoff_seconds(policy, task.strikes)
        self._bump("faults.retries")
        requeue(task)

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
        for attempt in range(max(1, policy.cache_write_retries)):
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
              show_progress=False, reporter=None, cache=None,
              executor=None, telemetry=False,
              forensics_capture=False, unit_timeout=None,
              fail_fast=False, policy=None, poisoned_factory=None):
    """Convenience front door used by the experiment drivers.

    ``cache_dir`` of ``None`` disables memoization; an explicit
    ``cache`` object (any ``get``/``put`` store, e.g. a
    :class:`ResultCache` with a custom codec) wins over ``cache_dir``.
    ``show_progress`` attaches a stderr :class:`ProgressReporter`
    (explicit ``reporter`` wins); ``executor`` overrides the campaign
    unit-execution primitive.  ``telemetry`` writes span
    and metrics shards under ``<cache-dir>/telemetry/`` (requires
    ``cache_dir``; records are unaffected — timing is sidecar-only).
    ``forensics_capture`` archives every failing unit as a debug
    bundle under ``<cache-dir>/forensics/`` (requires ``cache_dir``;
    records and cache keys are unaffected — capture is sidecar-only,
    exactly like telemetry).

    ``unit_timeout`` / ``fail_fast`` override those fields of the
    process-default :class:`~repro.runner.faults.FaultPolicy`; an
    explicit ``policy`` wins over both.  ``poisoned_factory`` builds
    quarantine records for custom unit families.
    """
    units = list(units)
    if policy is None:
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
    if reporter is None and show_progress and units:
        reporter = ProgressReporter(len(units))
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
