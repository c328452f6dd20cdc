"""Observability subsystem: tracer, metrics registry, shard merge.

The load-bearing guarantees:

- the tracer is a strict no-op when disabled (shared singleton, no
  buffering) and records correctly-parented spans when enabled;
- metrics merge is commutative and associative, so shards fold to the
  same totals in any order;
- telemetry shard merge produces deterministic bytes and a ``--jobs N``
  run merges to the same deterministic counters as ``--jobs 1``;
- telemetry is sidecar-only: cached records are byte-identical with
  telemetry on or off.
"""

import hashlib
import json
import os

import pytest

from repro.errgen.generator import generate_dataset
from repro.hdl import parser
from repro.lint import linter
from repro.obs import export, sink, trace
from repro.obs.metrics import MetricsRegistry
from repro.runner import expand_grid, run_units
from repro.runner.report import format_progress
from repro.uvm import test as uvm_test

MODULE = "counter_12"


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.reset()
    yield
    trace.reset()


@pytest.fixture(scope="module")
def units():
    instances = generate_dataset(
        seed=0, per_operator=1, target=None, modules=[MODULE],
    )
    return expand_grid(instances[:4], ("uvllm",), attempts=1)


class TestTracer:
    def test_disabled_is_noop_singleton(self):
        assert not trace.enabled()
        a = trace.span("x")
        b = trace.span("y", cat="z", attr=1)
        assert a is b  # no per-call allocation on the disabled path
        with a:
            a.set(more=2)
        assert trace.finished() == []

    def test_nesting_and_attrs(self):
        trace.enable(True)
        with trace.span("outer", cat="test") as outer:
            with trace.span("inner", value=3) as inner:
                inner.set(value=4)
            assert inner.parent == outer.sid
        spans = trace.drain()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner_d, outer_d = spans
        assert inner_d["parent"] == outer_d["sid"]
        assert outer_d["parent"] == 0
        assert inner_d["attrs"] == {"value": 4}
        assert inner_d["dur"] >= 0
        assert trace.finished() == []  # drain empties the buffer

    def test_exception_recorded_and_propagated(self):
        trace.enable(True)
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("x")
        (span,) = trace.drain()
        assert span["attrs"]["error"] == "RuntimeError"

    def test_span_dicts_are_json_pure(self):
        trace.enable(True)
        with trace.span("a", n=1, label="x"):
            pass
        (span,) = trace.drain()
        assert json.loads(json.dumps(span)) == span


class TestMetrics:
    def _sample(self, pairs):
        reg = MetricsRegistry()
        for name, value in pairs:
            if isinstance(value, int):
                reg.inc(name, value)
            else:
                reg.observe(name, value)
        return reg.snapshot()

    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.observe("h", 0.5)
        reg.observe("h", 1.5)
        assert reg.counter("a") == 3
        hist = reg.histogram("h")
        assert hist.count == 2
        assert hist.minimum == 0.5 and hist.maximum == 1.5
        assert hist.mean() == pytest.approx(1.0)

    def test_delta_then_absorb_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("c", 5)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.inc("c", 2)
        reg.observe("h", 3.0)
        delta = reg.delta(before)
        assert delta["counters"] == {"c": 2}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(3.0)

        other = MetricsRegistry()
        other.absorb(before)
        other.absorb(delta)
        snap = other.snapshot()
        assert snap["counters"] == {"c": 7}
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == pytest.approx(4.0)

    def test_merge_commutative_and_associative(self):
        parts = [
            self._sample([("x", 1), ("t", 0.25), ("y", 3)]),
            self._sample([("x", 2), ("t", 4.0)]),
            self._sample([("z", 7), ("t", 0.5), ("u", 0.125)]),
        ]

        def fold(order):
            reg = MetricsRegistry()
            for index in order:
                reg.absorb(parts[index])
            return json.dumps(reg.snapshot(), sort_keys=True)

        baseline = fold([0, 1, 2])
        assert fold([2, 1, 0]) == baseline
        assert fold([1, 2, 0]) == baseline
        # associativity: fold a pre-merged pair, then the third
        pair = MetricsRegistry()
        pair.absorb(parts[1])
        pair.absorb(parts[2])
        assoc = MetricsRegistry()
        assoc.absorb(pair.snapshot())
        assoc.absorb(parts[0])
        assert json.dumps(assoc.snapshot(), sort_keys=True) == baseline

    def test_rolling_median(self):
        reg = MetricsRegistry()
        for value in (1.0, 1.0, 1.0, 100.0):
            reg.observe("unit", value)
        assert reg.histogram("unit").rolling_median() == pytest.approx(1.0)


class TestShardMerge:
    def _write_shards(self, path, naming_offset=0):
        """Synthesize a fixed span/metrics population as shard files."""
        os.makedirs(path, exist_ok=True)
        spans = [
            {"kind": "span", "name": "unit", "cat": "s", "sid": i + 1,
             "parent": 0, "pid": 100 + (i % 2), "ts": 10.0 + i,
             "dur": 0.5, "attrs": {"label": f"u{i}"}}
            for i in range(4)
        ]
        reg = MetricsRegistry()
        reg.inc("units.executed", 4)
        reg.observe("unit.seconds", 0.5)
        metrics_line = {"kind": "metrics", "data": reg.snapshot()}
        return spans, metrics_line

    def _dump(self, path, lines, name):
        with open(os.path.join(path, name), "w") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True) + "\n")

    def test_merged_bytes_deterministic_across_shardings(self, tmp_path):
        spans, metrics_line = self._write_shards(str(tmp_path))
        # Layout A: one shard per span, metrics first alphabetically.
        dir_a = tmp_path / "a"
        os.makedirs(dir_a)
        self._dump(str(dir_a), [metrics_line], "aaa-metrics.jsonl")
        for i, span in enumerate(spans):
            self._dump(str(dir_a), [span], f"spans-{i}.jsonl")
        # Layout B: everything in one shard, spans in reverse order.
        dir_b = tmp_path / "b"
        os.makedirs(dir_b)
        self._dump(str(dir_b), list(reversed(spans)) + [metrics_line],
                   "zzz-all.jsonl")
        assert sink.merged_bytes(str(dir_a)) == sink.merged_bytes(str(dir_b))
        assert sink.merged_bytes(str(dir_a))  # non-empty

    def test_read_shards_merges_metrics(self, tmp_path):
        spans, metrics_line = self._write_shards(str(tmp_path))
        self._dump(str(tmp_path), spans[:2] + [metrics_line], "s1.jsonl")
        self._dump(str(tmp_path), spans[2:] + [metrics_line], "s2.jsonl")
        got_spans, metrics = sink.read_shards(str(tmp_path))
        assert len(got_spans) == 4
        assert metrics.counter("units.executed") == 8
        assert metrics.histogram("unit.seconds").count == 2

    def test_telemetry_scope_writes_and_restores(self, tmp_path):
        tdir = str(tmp_path / "telemetry")
        assert not trace.enabled()
        with sink.telemetry_scope(tdir):
            assert trace.enabled()
            assert os.environ.get(trace.TELEMETRY_ENV) == tdir
            with trace.span("campaign", cat="test"):
                pass
        assert not trace.enabled()
        assert os.environ.get(trace.TELEMETRY_ENV) is None
        spans, _metrics = sink.read_shards(tdir)
        assert [s["name"] for s in spans] == ["campaign"]


@pytest.mark.campaign
class TestCampaignTelemetry:
    def _run(self, units, cache_dir, jobs, telemetry):
        return run_units(list(units), jobs=jobs, cache_dir=cache_dir,
                         telemetry=telemetry)

    def _unit_digests(self, cache_dir):
        unit_dir = os.path.join(cache_dir, "units")
        return {
            name: hashlib.sha256(
                open(os.path.join(unit_dir, name), "rb").read()
            ).hexdigest()
            for name in sorted(os.listdir(unit_dir))
        }

    def test_records_identical_with_telemetry_on_or_off(self, units,
                                                        tmp_path):
        dir_on = str(tmp_path / "on")
        dir_off = str(tmp_path / "off")
        self._run(units, dir_on, jobs=1, telemetry=True)
        self._run(units, dir_off, jobs=1, telemetry=False)
        assert self._unit_digests(dir_on) == self._unit_digests(dir_off)
        assert os.path.isdir(os.path.join(dir_on, "telemetry"))
        assert not os.path.isdir(os.path.join(dir_off, "telemetry"))

    def test_jobs2_merges_like_jobs1(self, units, tmp_path):
        dir_1 = str(tmp_path / "j1")
        dir_2 = str(tmp_path / "j2")
        self._run(units, dir_1, jobs=1, telemetry=True)
        self._run(units, dir_2, jobs=2, telemetry=True)
        spans_1, metrics_1 = sink.read_shards(
            os.path.join(dir_1, "telemetry"))
        spans_2, metrics_2 = sink.read_shards(
            os.path.join(dir_2, "telemetry"))
        # Deterministic aggregates agree; wall times legitimately vary.
        assert (metrics_1.counter("units.executed")
                == metrics_2.counter("units.executed") == len(units))
        assert ({s["name"] for s in spans_1}
                == {s["name"] for s in spans_2})
        labels_1 = sorted(s["attrs"]["label"] for s in spans_1
                          if s["name"] == "unit")
        labels_2 = sorted(s["attrs"]["label"] for s in spans_2
                          if s["name"] == "unit")
        assert labels_1 == labels_2 == sorted(u.unit_id for u in units)

    def test_expected_phase_spans_present(self, units, tmp_path):
        # Earlier tests ran the same campaign in this process: start
        # cold, or every UVM run replays from the memo unelaborated.
        parser._memo.clear()
        linter._memo.clear()
        uvm_test._memo.clear()
        cache_dir = str(tmp_path / "phases")
        self._run(units, cache_dir, jobs=1, telemetry=True)
        spans, _ = sink.read_shards(os.path.join(cache_dir, "telemetry"))
        names = {s["name"] for s in spans}
        for expected in ("campaign", "unit", "attempt", "simulate",
                         "parse", "elaborate", "cache-read",
                         "cache-write", "repair-llm"):
            assert expected in names, f"missing {expected} span"

    def test_summary_and_chrome_trace(self, units, tmp_path):
        cache_dir = str(tmp_path / "report")
        self._run(units, cache_dir, jobs=1, telemetry=True)
        spans, metrics = sink.read_shards(
            os.path.join(cache_dir, "telemetry"))
        report = export.summarize(spans, metrics, top=3)
        assert report["phases"]["unit"]["count"] == len(units)
        assert len(report["slowest_units"]) <= 3
        assert report["slowest_units"] == sorted(
            report["slowest_units"], key=lambda r: -r["seconds"])
        rendered = export.render_summary(report)
        assert "Per-phase wall time" in rendered
        assert "Slowest units" in rendered

        doc = export.chrome_trace(spans)
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid",
                                  "tid", "args"}
        json.dumps(doc)  # must be serializable as-is

    def test_front_end_memos_counted_and_tagged(self, units, tmp_path):
        parser._memo.clear()
        linter._memo.clear()
        uvm_test._memo.clear()
        cache_dir = str(tmp_path / "memo")
        self._run(units, cache_dir, jobs=1, telemetry=True)
        spans, metrics = sink.read_shards(
            os.path.join(cache_dir, "telemetry"))
        tags = [s["attrs"]["memo"] for s in spans if s["name"] == "parse"]
        assert metrics.counter("parse.memo_hits") == tags.count("hit") > 0
        assert metrics.counter("parse.memo_misses") == tags.count("miss") > 0
        assert metrics.counter("lint.memo_hits") > 0
        assert metrics.counter("lint.memo_misses") > 0
        report = export.summarize(spans, metrics)
        assert 0 < report["caches"]["parse_memo"] < 1
        assert 0 < report["caches"]["lint_memo"] < 1
        rendered = export.render_summary(report)
        assert "parse_memo" in rendered and "lint_memo" in rendered


class TestCacheRates:
    @pytest.mark.parametrize("memo, compiled, memo_rate", [
        (20, 10, 20 / 30),
        (20, 8, 20 / 28),
    ])
    def test_kernel_rates(self, memo, compiled, memo_rate):
        """Every memo miss ran codegen, so misses are ``compiled``."""
        metrics = MetricsRegistry()
        metrics.inc("kernel.memo_hits", memo)
        metrics.inc("kernel.compiled", compiled)
        caches = export.summarize([], metrics)["caches"]
        assert caches["kernel_memo"] == pytest.approx(memo_rate)


class TestModuleThroughput:
    def test_memo_hits_do_not_inflate_cycles_per_sec(self):
        def simulate(dur, cycles, **attrs):
            return {"name": "simulate", "dur": dur,
                    "attrs": {"module": "m", "cycles": cycles,
                              "events": cycles // 10, **attrs}}

        spans = [simulate(0.5, 1000, memo="miss"),
                 simulate(0.25, 500),
                 simulate(1e-5, 1000, memo="hit")]
        metrics = MetricsRegistry()
        metrics.inc("uvm.memo_hits", 1)
        metrics.inc("uvm.memo_misses", 1)
        report = export.summarize(spans, metrics)
        row = report["modules"]["m"]
        assert (row["runs"], row["memo_hits"]) == (3, 1)
        assert (row["cycles"], row["events"]) == (1500, 150)
        assert row["seconds"] == pytest.approx(0.75)
        assert row["cycles_per_sec"] == pytest.approx(2000)
        assert report["caches"]["uvm_memo"] == pytest.approx(0.5)
        rendered = export.render_summary(report)
        assert "uvm_memo 50%" in rendered
        assert "3 runs     1 memo hits" in rendered
        assert "2000 cyc/s" in rendered
        assert "| m | 3 | 1 | 750.0ms | 2000 |" in export.render_summary(
            report, markdown=True)


class TestProgressEta:
    def test_fallback_formula_without_estimate(self):
        line = format_progress(10, 100, 5.0, cached=5)
        assert "eta 1.5m" in line

    def test_rolling_estimate_wins(self):
        line = format_progress(10, 100, 5.0, cached=5, eta_seconds=9.0)
        assert "eta 9.0s" in line

    def test_no_eta_when_done(self):
        line = format_progress(100, 100, 5.0, eta_seconds=9.0)
        assert "eta" not in line
