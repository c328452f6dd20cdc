"""Campaign runner: grid expansion, sharding, caching, parallelism.

The load-bearing guarantees:

- parallel execution is bit-identical to serial (the scheduler only
  reorders work, never semantics);
- the on-disk cache is a pure memo — warm runs return the same records
  without executing anything, and corrupt entries degrade to misses;
- round-robin shards partition the grid exactly once.
"""

import dataclasses
import json
import os

import pytest

import repro.experiments.runner as runner_module
from repro.errgen.generator import generate_dataset
from repro.experiments.runner import run_method_on_instance, run_methods
from repro.runner import (
    CACHE_SCHEMA_VERSION,
    CampaignRunner,
    FaultPolicy,
    ResultCache,
    WorkUnit,
    expand_grid,
    format_progress,
    parse_shard,
    run_units,
    shard_units,
)
from repro.runner import scheduler
from repro.runner.report import ProgressReporter

MODULE = "counter_12"
METHODS = ("uvllm", "strider")


@pytest.fixture(scope="module")
def instances():
    return generate_dataset(
        seed=0, per_operator=1, target=None, modules=[MODULE],
    )


@pytest.fixture(scope="module")
def units(instances):
    return expand_grid(instances, METHODS, attempts=2)


class TestGrid:
    def test_expansion_shape(self, instances, units):
        assert len(units) == len(instances) * len(METHODS)
        assert [u.index for u in units] == list(range(len(units)))
        # instance-major, method-minor: the legacy serial record order
        assert units[0].method == METHODS[0]
        assert units[1].method == METHODS[1]
        assert units[0].instance is units[1].instance

    def test_cache_key_stable_and_discriminating(self, instances):
        base = expand_grid(instances[:1], ("uvllm",), attempts=2)[0]
        again = expand_grid(instances[:1], ("uvllm",), attempts=2)[0]
        assert base.cache_key() == again.cache_key()
        variants = [
            expand_grid(instances[:1], ("meic",), attempts=2)[0],
            expand_grid(instances[:1], ("uvllm",), attempts=3)[0],
            expand_grid(instances[:1], ("uvllm",), attempts=2,
                        base_seed=7)[0],
            expand_grid(instances[:1], ("uvllm",), attempts=2,
                        config_overrides={"ms_iterations": 5})[0],
            expand_grid(instances[1:2], ("uvllm",), attempts=2)[0],
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_unit_id_mentions_method_and_overrides(self, instances):
        unit = expand_grid(instances[:1], ("uvllm",), attempts=2,
                           config_overrides={"ms_iterations": 5})[0]
        assert "uvllm" in unit.unit_id
        assert "ms_iterations=5" in unit.unit_id


class TestShard:
    def test_parse_shard(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)
        for bad in ("0/4", "5/4", "x/4", "3", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_partition_covers_grid_exactly_once(self, units, count):
        shards = [shard_units(units, i, count) for i in range(count)]
        seen = [u.index for shard in shards for u in shard]
        assert sorted(seen) == list(range(len(units)))
        assert len(seen) == len(set(seen))

    def test_bad_shard_rejected(self, units):
        with pytest.raises(ValueError):
            shard_units(units, 2, 2)


class TestCache:
    def test_cold_then_warm(self, units, tmp_path):
        cold_cache = ResultCache(tmp_path)
        cold = CampaignRunner(jobs=1, cache=cold_cache).run(units)
        assert cold_cache.hits == 0
        assert cold_cache.writes == len(units)
        # Each entry is byte-identical to the deep-copying asdict codec
        # the cache used to write with.
        for unit, record in zip(units, cold):
            key = unit.cache_key()
            with open(os.path.join(cold_cache.unit_dir, key + ".json")) as f:
                assert f.read() == json.dumps({
                    "schema": cold_cache.schema, "key": key,
                    "record": dataclasses.asdict(record),
                })

        warm_cache = ResultCache(tmp_path)
        warm = CampaignRunner(jobs=1, cache=warm_cache).run(units)
        assert warm_cache.hits == len(units)
        assert warm_cache.misses == 0
        assert warm == cold

    def test_corrupt_entry_is_a_miss(self, units, tmp_path):
        cache = ResultCache(tmp_path)
        records = CampaignRunner(jobs=1, cache=cache).run(units[:1])
        path = os.path.join(cache.unit_dir,
                            units[0].cache_key() + ".json")
        with open(path, "w") as handle:
            handle.write("{not json")
        fresh = ResultCache(tmp_path)
        again = CampaignRunner(jobs=1, cache=fresh).run(units[:1])
        assert fresh.misses == 1
        assert again == records
        # the corrupt bytes are quarantined for inspection, not lost
        corrupt_dir = os.path.join(tmp_path, "corrupt")
        assert os.path.isdir(corrupt_dir) and os.listdir(corrupt_dir)

    def test_schema_bump_invalidates(self, units, tmp_path):
        cache = ResultCache(tmp_path)
        CampaignRunner(jobs=1, cache=cache).run(units[:1])
        path = os.path.join(cache.unit_dir,
                            units[0].cache_key() + ".json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        fresh = ResultCache(tmp_path)
        assert fresh.get(units[0].cache_key()) is None

    def test_cache_hit_adopts_requesting_grid_labels(self, instances,
                                                     tmp_path):
        import copy

        # Execute and cache under the generator's original labels...
        unit = expand_grid(instances[:1], ("strider",), attempts=1)[0]
        CampaignRunner(jobs=1, cache=ResultCache(tmp_path)).run([unit])
        # ...then request the identical content under a relabelled
        # instance, the way fig6 folds bitwidth errors into
        # "declaration_errors".
        relabelled = copy.copy(instances[0])
        relabelled.paper_class = "declaration_errors"
        alias = expand_grid([relabelled], ("strider",), attempts=1)[0]
        assert alias.cache_key() == unit.cache_key()
        cache = ResultCache(tmp_path)
        [record] = CampaignRunner(jobs=1, cache=cache).run([alias])
        assert cache.hits == 1
        assert record.paper_class == "declaration_errors"

    def test_dataset_memo_distinguishes_validate(self):
        validated = generate_dataset(
            seed=0, per_operator=1, target=None, modules=[MODULE],
            validate=True,
        )
        unvalidated = generate_dataset(
            seed=0, per_operator=1, target=None, modules=[MODULE],
            validate=False,
        )
        assert unvalidated is not validated

    def test_dataset_disk_cache_roundtrip(self, instances, tmp_path):
        from repro.errgen import generator

        generate_dataset(seed=0, per_operator=1, target=None,
                         modules=[MODULE], cache_dir=tmp_path)
        # Drop the in-process memo so the second call must hit disk.
        generator._dataset_cache.clear()
        try:
            reloaded = generate_dataset(
                seed=0, per_operator=1, target=None, modules=[MODULE],
                cache_dir=tmp_path,
            )
        finally:
            generator._dataset_cache.clear()
        assert reloaded == instances


@pytest.mark.campaign
class TestParallel:
    def test_parallel_matches_serial(self, units):
        serial = run_units(units, jobs=1)
        parallel = run_units(units, jobs=4)
        assert parallel == serial

    def test_parallel_with_cache_warms_serial(self, units, tmp_path):
        parallel = run_units(units, jobs=2, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        warm = CampaignRunner(jobs=1, cache=cache).run(units)
        assert cache.hits == len(units)
        assert warm == parallel

    def test_clean_campaigns_reuse_one_warm_pool(self, units):
        # The second campaign runs on the workers of the first, whose
        # per-process memos already hold every unit's runs.
        serial = run_units(units, jobs=1)
        first = run_units(units, jobs=2)
        pool = scheduler._parked[1]
        workers = sorted(pool._processes)
        second = run_units(units, jobs=2)
        assert scheduler._parked[1] is pool
        assert sorted(pool._processes) == workers
        assert first == second == serial


class TestFailurePaths:
    def test_serial_failure_keeps_earlier_results(self, units, tmp_path):
        bad = WorkUnit(index=99, instance=units[0].instance,
                       method="nope", attempts=1)
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            CampaignRunner(
                jobs=1, cache=cache,
                policy=FaultPolicy(fail_fast=True),
            ).run([units[0], bad])
        # the unit that finished before the failure stays cached
        assert ResultCache(tmp_path).get(units[0].cache_key()) is not None

    def test_serial_failure_quarantines_by_default(self, units,
                                                   tmp_path):
        bad = WorkUnit(index=99, instance=units[0].instance,
                       method="nope", attempts=1)
        runner = CampaignRunner(jobs=1, cache=ResultCache(tmp_path))
        records = runner.run([units[0], bad])
        # the campaign runs to completion: the raising unit becomes a
        # structured poisoned record, its sibling executes normally.
        assert len(records) == 2
        assert records[0].failure_kind is None
        assert records[1].stage == "poisoned"
        assert records[1].failure_kind == "exception"
        assert "unknown method" in records[1].failure_detail["error"]
        assert runner.fault_stats["quarantined"] == 1

    @pytest.mark.campaign
    def test_parallel_failure_propagates(self, units):
        bad = WorkUnit(index=99, instance=units[0].instance,
                       method="nope", attempts=1)
        with pytest.raises(ValueError):
            run_units([bad] + list(units[:4]), jobs=2, fail_fast=True)

    @pytest.mark.campaign
    def test_parallel_failure_quarantines_by_default(self, units):
        bad = WorkUnit(index=99, instance=units[0].instance,
                       method="nope", attempts=1)
        records = run_units([bad] + list(units[:4]), jobs=2)
        assert len(records) == 5
        assert records[0].stage == "poisoned"
        assert all(r.failure_kind is None for r in records[1:])

    def test_empty_shard_exits_zero(self, instances):
        from repro.cli import main

        # counter_12 x uvllm is a small grid; shard 16/16 is empty but
        # the sweep as a whole is still covered by the other shards.
        assert main(["campaign", "--modules", MODULE, "--methods",
                     "uvllm", "--attempts", "1", "--shard",
                     "16/16"]) == 0


class TestRunMethodsRouting:
    def test_record_order_is_instance_major(self, instances):
        records = run_methods(instances[:2], METHODS, attempts=1)
        expected = [
            (inst.instance_id, method)
            for inst in instances[:2] for method in METHODS
        ]
        assert [(r.instance_id, r.method) for r in records] == expected

    def test_progress_counts_units(self, instances):
        calls = []
        run_methods(instances[:2], METHODS, attempts=1,
                    progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (4, 4)
        assert [done for done, _ in calls] == [1, 2, 3, 4]

    def test_base_seed_shifts_attempt_seeds(self, instances):
        inst = instances[0]
        default = run_method_on_instance("uvllm", inst, attempts=1)
        shifted = run_method_on_instance("uvllm", inst, attempts=1,
                                         base_seed=1)
        assert default.instance_id == shifted.instance_id
        # seed 1's attempt must equal attempt #2 of a 2-attempt run
        # when attempt #1 misses; at minimum the call must be legal and
        # deterministic.
        again = run_method_on_instance("uvllm", inst, attempts=1,
                                       base_seed=1)
        assert shifted == again

    def test_overrides_rejected_for_baselines(self, instances):
        with pytest.raises(ValueError):
            run_method_on_instance(
                "strider", instances[0], attempts=1,
                config_overrides={"ms_iterations": 5},
            )

    def test_no_module_level_linter_singleton(self):
        assert not hasattr(runner_module, "_linter")


class TestReporting:
    def test_format_progress_eta_from_executed_only(self):
        line = format_progress(done=10, total=100, elapsed=5.0, cached=5)
        assert "10/100" in line and "(5 cached)" in line
        # 5 executed in 5s -> 1 unit/s -> 90 remaining ~ 1.5m
        assert "eta 1.5m" in line

    def test_format_progress_complete(self):
        line = format_progress(done=4, total=4, elapsed=2.0)
        assert "eta" not in line

    def test_reporter_throttles(self):
        lines = []

        class Stream:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        ticks = iter([0.0, 0.1, 0.2, 10.0, 10.1])
        reporter = ProgressReporter(
            total=3, stream=Stream(), min_interval=5.0,
            clock=lambda: next(ticks),
        )
        reporter.update(1)   # throttled (0.1 - -inf? first emit allowed)
        reporter.update(2)   # within interval -> suppressed
        reporter.update(3)   # final unit -> always emitted
        reporter.finish()
        text = "".join(lines)
        assert "3/3" in text and "finished" in text
        assert "2/3" not in text  # suppressed by the throttle
