"""Fault-tolerance layer tests.

Covers the fault-injection harness itself (plan scoping, budget
claims, site/identity matching), corrupt-cache quarantine, the
per-unit wall-clock alarm, retry/backoff and poison-unit quarantine
on both the serial and pool paths, scheduler-side deadline reclaim of
wedged workers, shared-cache resume after a pool crash, failed cache
writes, the scheduler's one-terminal-state-per-unit property, graceful
interrupts, and the CLI exit codes that surface all of it.

Pool tests are marked ``campaign`` (they spawn worker processes) like
the rest of the parallel-runner suite.
"""

import collections
import json
import os
import signal
import time

import pytest

from repro.obs.metrics import GLOBAL as global_metrics
from repro.runner import (
    CampaignInterrupted,
    CampaignRunner,
    FaultPolicy,
    ResultCache,
    UnitTimeout,
)
from repro.runner import faultinject, faults
from repro.runner.faultinject import InjectedFault
from repro.runner.report import ProgressReporter


# -- toy units (module-level for pool picklability) --------------------------

class ToyUnit:
    def __init__(self, n):
        self.n = n

    @property
    def unit_id(self):
        return f"toy-{self.n}"

    def cache_key(self):
        return f"toykey-{self.n:04d}"


def run_toy(unit):
    faultinject.check_unit(unit.unit_id, key=unit.cache_key())
    return {"n": unit.n, "ok": True}


def run_toy_interrupt(unit):
    if unit.n == 1:
        raise KeyboardInterrupt
    return {"n": unit.n, "ok": True}


def toy_poisoned(unit, failure):
    return {"n": unit.n, "ok": False, "poisoned": True,
            "failure": dict(failure)}


def toys(count=4):
    return [ToyUnit(n) for n in range(count)]


def quick_policy(**overrides):
    overrides.setdefault("backoff", 0.01)
    return FaultPolicy(**overrides)


# -- fault-injection harness -------------------------------------------------

class TestFaultInjection:
    def test_noop_without_plan(self):
        assert faultinject.FAULT_PLAN_ENV not in os.environ
        faultinject.check_unit("anything", key="k")  # must not raise
        assert not faultinject.maybe_tear("k")

    def test_plan_scope_sets_and_restores_env(self):
        plan = faultinject.make_plan([])
        with faultinject.plan_scope(plan):
            assert faultinject.FAULT_PLAN_ENV in os.environ
            loaded = json.loads(os.environ[faultinject.FAULT_PLAN_ENV])
            assert loaded["faults"] == []
        assert faultinject.FAULT_PLAN_ENV not in os.environ

    def test_match_is_substring_of_identity(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "needle", "kind": "raise",
             "times": 5},
        ])
        with faultinject.plan_scope(plan):
            faultinject.check_unit("hay", key="stack")  # no match
            with pytest.raises(InjectedFault):
                faultinject.check_unit("the-needle-unit")
            with pytest.raises(InjectedFault):
                faultinject.check_unit("label", key="xx-needle-xx")

    def test_times_budget_is_exhaustible(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "boom", "kind": "raise",
             "times": 2},
        ])
        fired = 0
        with faultinject.plan_scope(plan):
            for _ in range(5):
                try:
                    faultinject.check_unit("boom")
                except InjectedFault:
                    fired += 1
        assert fired == 2

    def test_site_mismatch_never_fires(self):
        plan = faultinject.make_plan([
            {"site": "cache-write", "match": "", "kind": "raise",
             "times": 9},
        ])
        with faultinject.plan_scope(plan):
            faultinject.check_unit("anything")  # wrong site: no-op

    def test_tear_only_answers_cache_write_site(self):
        plan = faultinject.make_plan([
            {"site": "cache-write", "match": "key-a", "kind": "tear",
             "times": 1},
        ])
        with faultinject.plan_scope(plan):
            assert not faultinject.maybe_tear("key-b")
            assert faultinject.maybe_tear("key-a")
            assert not faultinject.maybe_tear("key-a")  # budget spent


# -- per-unit alarm ----------------------------------------------------------

class TestUnitAlarm:
    def test_fires_and_is_picklable(self):
        import pickle

        with pytest.raises(UnitTimeout) as info:
            with faults.unit_alarm(0.1, "slow-unit"):
                time.sleep(5)
        clone = pickle.loads(pickle.dumps(info.value))
        assert "slow-unit" in str(clone)

    def test_cleared_after_scope(self):
        with faults.unit_alarm(5.0, "fast-unit"):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_none_timeout_is_a_noop(self):
        with faults.unit_alarm(None, "untimed"):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


# -- corrupt-cache quarantine ------------------------------------------------

class TestCorruptCacheQuarantine:
    def _cache(self, tmp_path, schema=1):
        return ResultCache(tmp_path, subdir="units", encode=dict,
                           decode=dict, schema=schema)

    def test_corrupt_entry_moved_and_counted(self, tmp_path, capsys):
        cache = self._cache(tmp_path)
        cache.put("abc", {"x": 1})
        with open(cache._path("abc"), "w") as handle:
            handle.write('{"torn')
        before = global_metrics.counters.get("unit_cache.corrupt", 0)
        assert cache.get("abc") is None
        after = global_metrics.counters.get("unit_cache.corrupt", 0)
        assert after == before + 1
        assert "corrupt cache entry" in capsys.readouterr().err
        corrupt_dir = os.path.join(tmp_path, "corrupt")
        assert os.listdir(corrupt_dir) == ["units-abc.json"]
        assert not os.path.exists(cache._path("abc"))

    def test_schema_mismatch_is_silent_miss_not_quarantine(
            self, tmp_path, capsys):
        self._cache(tmp_path, schema=1).put("abc", {"x": 1})
        newer = self._cache(tmp_path, schema=2)
        assert newer.get("abc") is None
        assert capsys.readouterr().err == ""
        assert not os.path.isdir(os.path.join(tmp_path, "corrupt"))
        assert os.path.exists(newer._path("abc"))

    def test_wrong_shape_payload_is_quarantined(self, tmp_path):
        cache = self._cache(tmp_path)
        with open(cache._path("abc"), "w") as handle:
            json.dump(["not", "a", "dict"], handle)
        assert cache.get("abc") is None
        assert os.listdir(os.path.join(tmp_path, "corrupt"))

    def test_torn_write_via_fault_plan_roundtrips_to_quarantine(
            self, tmp_path):
        cache = self._cache(tmp_path)
        plan = faultinject.make_plan([
            {"site": "cache-write", "match": "abc", "kind": "tear",
             "times": 1},
        ])
        with faultinject.plan_scope(plan):
            cache.put("abc", {"x": 1})
        assert self._cache(tmp_path).get("abc") is None
        assert os.listdir(os.path.join(tmp_path, "corrupt"))
        # the slot is reusable after quarantine
        cache.put("abc", {"x": 1})
        assert self._cache(tmp_path).get("abc") == {"x": 1}


# -- serial scheduler paths --------------------------------------------------

class TestSerialFaults:
    def test_deterministic_exception_quarantines_and_continues(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "raise",
             "times": 9},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=1, executor=run_toy,
                                    poisoned_factory=toy_poisoned,
                                    policy=quick_policy())
            records = runner.run(toys(3))
        assert [r.get("poisoned", False) for r in records] == \
            [False, True, False]
        assert records[1]["failure"]["kind"] == "exception"
        assert "InjectedFault" in records[1]["failure"]["error"]
        assert runner.fault_stats["quarantined"] == 1
        # deterministic failures are never retried
        assert runner.fault_stats["retries"] == 0

    def test_fail_fast_restores_raise_semantics(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "raise",
             "times": 9},
        ])
        with faultinject.plan_scope(plan):
            with pytest.raises(InjectedFault):
                CampaignRunner(
                    jobs=1, executor=run_toy,
                    policy=quick_policy(fail_fast=True),
                ).run(toys(3))

    def test_timeout_retries_then_quarantines(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "hang",
             "seconds": 30, "times": 9},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(
                jobs=1, executor=run_toy, poisoned_factory=toy_poisoned,
                policy=quick_policy(unit_timeout=0.2),
            )
            records = runner.run(toys(3))
        assert records[1]["poisoned"]
        assert records[1]["failure"]["kind"] == "timeout"
        assert runner.fault_stats["timeouts"] == 2
        assert runner.fault_stats["retries"] == 1
        assert runner.fault_stats["quarantined"] == 1

    def test_timeout_retry_succeeds_when_transient(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "hang",
             "seconds": 30, "times": 1},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(
                jobs=1, executor=run_toy,
                policy=quick_policy(unit_timeout=0.2),
            )
            records = runner.run(toys(3))
        assert [r["n"] for r in records] == [0, 1, 2]
        assert not any(r.get("poisoned") for r in records)
        assert runner.fault_stats["timeouts"] == 1

    def test_backoff_is_deterministic(self):
        policy = FaultPolicy(backoff=0.1)
        assert faults.backoff_seconds(policy, 1) == pytest.approx(0.1)
        assert faults.backoff_seconds(policy, 2) == pytest.approx(0.2)
        assert faults.backoff_seconds(policy, 3) == pytest.approx(0.4)

    def test_keyboard_interrupt_becomes_campaign_interrupted(self):
        runner = CampaignRunner(jobs=1, executor=run_toy_interrupt)
        with pytest.raises(CampaignInterrupted) as info:
            runner.run(toys(3))
        assert info.value.done == 1
        assert info.value.total == 3

    def test_poisoned_record_round_trips_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path, subdir="toys", encode=dict,
                            decode=dict, schema=1)
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "raise",
             "times": 9},
        ])
        with faultinject.plan_scope(plan):
            first = CampaignRunner(
                jobs=1, cache=cache, executor=run_toy,
                poisoned_factory=toy_poisoned, policy=quick_policy(),
            ).run(toys(2))
        # warm pass, no fault plan: the poisoned record must resolve
        # from cache — the unit is NOT silently re-executed.
        warm_cache = ResultCache(tmp_path, subdir="toys", encode=dict,
                                 decode=dict, schema=1)
        warm = CampaignRunner(jobs=1, cache=warm_cache,
                              executor=run_toy).run(toys(2))
        assert warm_cache.hits == 2
        assert warm == first
        assert warm[1]["poisoned"]


# -- pool scheduler paths ----------------------------------------------------

@pytest.mark.campaign
class TestPoolFaults:
    def test_single_crash_recovers_bit_identically(self):
        reference = CampaignRunner(jobs=1, executor=run_toy).run(toys(6))
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-2", "kind": "crash",
             "times": 1},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=2, executor=run_toy,
                                    policy=quick_policy())
            records = runner.run(toys(6))
        assert records == reference
        assert runner.fault_stats["pool_respawns"] >= 1
        assert runner.fault_stats["worker_deaths"] >= 1
        assert runner.fault_stats["quarantined"] == 0

    def test_repeat_crasher_quarantined_siblings_survive(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-3", "kind": "crash",
             "times": 99},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=2, executor=run_toy,
                                    poisoned_factory=toy_poisoned,
                                    policy=quick_policy())
            records = runner.run(toys(6))
        poisoned = [r for r in records if r.get("poisoned")]
        assert len(poisoned) == 1
        assert poisoned[0]["n"] == 3
        assert poisoned[0]["failure"]["kind"] == "worker-death"
        assert sorted(r["n"] for r in records
                      if not r.get("poisoned")) == [0, 1, 2, 4, 5]
        assert runner.quarantined[0]["unit"] == "toy-3"

    def test_worker_alarm_reclaims_hang(self):
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "hang",
             "seconds": 60, "times": 99},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=2, executor=run_toy,
                                    poisoned_factory=toy_poisoned,
                                    policy=quick_policy(unit_timeout=0.5))
            records = runner.run(toys(4))
        poisoned = [r for r in records if r.get("poisoned")]
        assert [r["n"] for r in poisoned] == [1]
        assert poisoned[0]["failure"]["kind"] == "timeout"
        # the worker-side alarm delivered the timeout — no pool kill
        assert runner.fault_stats["pool_respawns"] == 0
        assert runner.fault_stats["timeouts"] == 2

    def test_scheduler_deadline_reclaims_wedged_worker(self):
        # block_alarm masks SIGALRM in the worker, so only the
        # parent-side deadline (pool kill + respawn) can reclaim it.
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-1", "kind": "hang",
             "seconds": 120, "block_alarm": True, "times": 99},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=2, executor=run_toy,
                                    poisoned_factory=toy_poisoned,
                                    policy=quick_policy(unit_timeout=0.5))
            records = runner.run(toys(4))
        poisoned = [r for r in records if r.get("poisoned")]
        assert [r["n"] for r in poisoned] == [1]
        assert poisoned[0]["failure"]["kind"] == "timeout"
        assert runner.fault_stats["pool_respawns"] >= 1
        assert sorted(r["n"] for r in records
                      if not r.get("poisoned")) == [0, 2, 3]

    def test_fault_budget_survives_pool_respawn(self):
        # times=2 on a crash: both budget claims must be honoured
        # across the respawned pool (claim files, not process memory),
        # then the third attempt succeeds.
        plan = faultinject.make_plan([
            {"site": "unit", "match": "toy-0", "kind": "crash",
             "times": 2},
        ])
        with faultinject.plan_scope(plan):
            runner = CampaignRunner(jobs=2, executor=run_toy,
                                    poisoned_factory=toy_poisoned,
                                    policy=quick_policy(max_strikes=4))
            records = runner.run(toys(3))
        assert not any(r.get("poisoned") for r in records)
        assert sorted(r["n"] for r in records) == [0, 1, 2]
        assert runner.fault_stats["worker_deaths"] >= 2


# -- shared-cache landing after a pool crash ---------------------------------

class _LateLandingCache(ResultCache):
    """Simulates a sibling shard landing one unit's record mid-run:
    the first read of ``late_key`` misses; any read after that (the
    post-crash cache recheck) finds the record on disk."""

    def __init__(self, cache_dir, late_key, late_record):
        super().__init__(cache_dir, subdir="toys", encode=dict,
                         decode=dict, schema=1)
        self._late_key = late_key
        self._late_record = late_record
        self._late_reads = 0
        self.late_writes = 0

    def get(self, key):
        if key == self._late_key:
            self._late_reads += 1
            if self._late_reads > 1 and \
                    not os.path.exists(self._path(key)):
                super().put(key, self._late_record)
        return super().get(key)

    def put(self, key, record):
        if key == self._late_key:
            self.late_writes += 1
        super().put(key, record)


@pytest.mark.campaign
def test_crash_suspect_landed_by_sibling_shard_resolves_from_cache(
        tmp_path):
    """A unit caught in flight by a sibling's worker crash, whose
    record another shard landed in the shared cache meanwhile, must
    resolve from the cache and never re-run."""
    units = toys(3)
    reference = CampaignRunner(jobs=1, executor=run_toy).run(units)

    late = units[0]
    cache = _LateLandingCache(tmp_path, late.cache_key(), reference[0])
    plan = faultinject.make_plan([
        # keeps toy-0 in flight while toy-1 takes the pool down
        {"site": "unit", "match": late.cache_key(), "kind": "hang",
         "seconds": 5, "times": 1},
        {"site": "unit", "match": units[1].cache_key(), "kind": "crash",
         "times": 1},
    ])
    with faultinject.plan_scope(plan):
        runner = CampaignRunner(jobs=2, cache=cache, executor=run_toy,
                                policy=quick_policy())
        records = runner.run(units)
    assert records == reference
    assert runner.fault_stats["pool_respawns"] == 1
    # the post-crash recheck actually read the late-landed record...
    assert cache._late_reads > 1
    # ...and this campaign never re-executed (so never re-wrote) it —
    # the sibling-shard plant goes through super().put, bypassing the
    # counter, so any write here would be a scheduler re-run.
    assert cache.late_writes == 0


# -- cache write failures ----------------------------------------------------

class _ReadOnlyCache(ResultCache):
    """A cache whose every write fails, like a full or read-only
    disk."""

    def put(self, key, record):
        raise OSError(28, "No space left on device")


def test_failed_cache_writes_are_counted_and_reported(tmp_path):
    import io

    stream = io.StringIO()
    units = toys(3)
    runner = CampaignRunner(
        jobs=1, executor=run_toy,
        cache=_ReadOnlyCache(tmp_path, subdir="toys", encode=dict,
                             decode=dict, schema=1),
        reporter=ProgressReporter(len(units), stream=stream),
        policy=quick_policy(),
    )
    records = runner.run(units)
    # persistence degraded, verdicts did not
    assert records == CampaignRunner(jobs=1, executor=run_toy).run(units)
    assert runner.fault_stats["cache_write_errors"] == len(units)
    assert runner.fault_stats["retries"] == 0
    assert "fault tolerance: " in stream.getvalue()
    assert "3 cache write error(s)" in stream.getvalue()


# -- termination property ----------------------------------------------------

#: Fault kinds the termination property draws from.  None of them
#: hangs, so every plan runs in well under a second.
_POOL_KINDS = ("crash", "raise", "tear")
_SERIAL_KINDS = ("raise", "tear")  # a crash would kill this process


def _draw_plan(rng, units, kinds):
    """A seeded fault plan over ``units``: each unit gets no fault or
    one of ``kinds``.  Crashes fire once or on every dispatch; a raise
    is deterministic, so it fires on every dispatch; a tear fires
    once."""
    entries = {}
    for unit in units:
        kind = rng.choice((None,) + kinds)
        if kind is not None:
            times = {"crash": rng.choice((1, 9)), "raise": 9,
                     "tear": 1}[kind]
            entries[unit.cache_key()] = (kind, times)
    faults_list = [
        {"site": "cache-write" if kind == "tear" else "unit",
         "match": key, "kind": kind, "times": times}
        for key, (kind, times) in sorted(entries.items())
    ]
    return entries, faultinject.make_plan(faults_list)


class _CountingCache(ResultCache):
    def __init__(self, cache_dir):
        super().__init__(cache_dir, subdir="toys", encode=dict,
                         decode=dict, schema=1)
        self.landed = collections.Counter()

    def put(self, key, record):
        self.landed[key] += 1
        super().put(key, record)


@pytest.mark.parametrize("jobs,kinds", [
    pytest.param(2, _POOL_KINDS, marks=pytest.mark.campaign, id="pool"),
    pytest.param(1, _SERIAL_KINDS, id="serial"),
])
@pytest.mark.parametrize("plan_seed", range(8))
def test_every_unit_ends_in_exactly_one_terminal_state(
        tmp_path, jobs, kinds, plan_seed):
    """Under any mix of crashes, raises and torn writes, every unit
    lands exactly one record: poisoned with the matching kind when
    its fault is a raise or a crash that outlasts ``max_strikes``,
    otherwise the fault-free ``jobs=1`` record."""
    import random

    units = toys(6)
    reference = CampaignRunner(jobs=1, executor=run_toy).run(units)
    entries, plan = _draw_plan(random.Random(plan_seed), units, kinds)
    policy = quick_policy()
    cache = _CountingCache(tmp_path)
    with faultinject.plan_scope(plan):
        records = CampaignRunner(
            jobs=jobs, cache=cache, executor=run_toy,
            poisoned_factory=toy_poisoned, policy=policy,
        ).run(units)

    assert cache.landed == {unit.cache_key(): 1 for unit in units}
    for unit, record, expected in zip(units, records, reference):
        kind, times = entries.get(unit.cache_key(), (None, 0))
        if kind == "raise":
            assert record["failure"]["kind"] == "exception"
        elif kind == "crash" and times >= policy.max_strikes:
            assert record["failure"]["kind"] == "worker-death"
        else:
            assert record == expected, (unit.unit_id, kind, times)


# -- CLI surfaces ------------------------------------------------------------

class TestCliExitCodes:
    def test_campaign_quarantine_exits_3(self, capsys):
        from repro.cli import main

        plan = faultinject.make_plan([
            {"site": "unit", "match": "", "kind": "raise", "times": 1},
        ])
        with faultinject.plan_scope(plan):
            code = main(["campaign", "--modules", "counter_12",
                         "--methods", "uvllm", "--attempts", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "QUARANTINED" in err

    def test_campaign_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.runner
        from repro.cli import main

        def interrupted(*args, **kwargs):
            raise CampaignInterrupted("interrupted (SIGINT)", done=1,
                                      total=4)

        monkeypatch.setattr(repro.runner, "run_units", interrupted)
        code = main(["campaign", "--modules", "counter_12",
                     "--methods", "uvllm", "--attempts", "1"])
        assert code == 130
        assert "re-run the same command to resume" in \
            capsys.readouterr().err

    def test_report_surfaces_fault_counters(self):
        from repro.obs.export import render_summary, summarize
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.inc("faults.retries", 3)
        metrics.inc("faults.quarantined", 1)
        metrics.inc("unit_cache.corrupt", 2)
        report = summarize([], metrics)
        assert report["faults"] == {"retries": 3, "quarantined": 1,
                                    "cache_corrupt": 2}
        text = render_summary(report)
        assert "Fault tolerance" in text
        assert "retries" in text

    def test_finish_summary_formats_fault_stats(self):
        from repro.runner.report import format_fault_stats

        line = format_fault_stats({"retries": 2, "quarantined": 1,
                                   "pool_respawns": 1, "timeouts": 1,
                                   "worker_deaths": 0,
                                   "cache_write_errors": 4})
        assert "2 retried" in line
        assert "1 quarantined" in line
        assert "1 timeout" in line
        assert "4 cache write error(s)" in line


# -- fuzz campaign integration -----------------------------------------------

class TestFuzzPoisoning:
    def test_poisoned_verdict_counted_and_excluded_from_failures(
            self, tmp_path):
        from repro.fuzz.campaign import run_fuzz

        plan = faultinject.make_plan([
            {"site": "unit", "match": "fuzz::d0::", "kind": "raise",
             "times": 9},
        ])
        with faultinject.plan_scope(plan):
            summary = run_fuzz(2, seed=0, cycles=8, jobs=1,
                               cache_dir=tmp_path)
        assert summary["poisoned"] == 1
        assert all(not v.get("poisoned") for v in summary["failures"])
        # warm pass without the plan: the poisoned verdict resolves
        # from cache and is still reported as poisoned.
        warm = run_fuzz(2, seed=0, cycles=8, jobs=1,
                        cache_dir=tmp_path)
        assert warm["poisoned"] == 1
        assert warm["cached"] == 2
