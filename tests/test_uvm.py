"""UVM framework tests: sequences, driver, scoreboard, coverage, log."""

import pytest

from repro.bench import get_module, make_fr_sequence, make_hr_sequence
from repro.cover.model import CoverModel, CoverPoint
from repro.refmodel.base import CombModel
from repro.uvm import (
    DirectedSequence,
    DriveProtocol,
    RandomSequence,
    ResetSequence,
    Transaction,
    UVMLog,
    run_uvm_test,
)
from repro.uvm.log import PAT_MS


class TestSequences:
    def test_random_sequence_deterministic(self):
        spec = {"a": (0, 255)}
        first = [t.fields for t in RandomSequence(spec, 10, seed=1)]
        second = [t.fields for t in RandomSequence(spec, 10, seed=1)]
        assert first == second

    def test_choice_fields_get_corner_bias(self):
        """corner_weight applies to explicit choice lists: the first
        and last choices are over-represented (they used to get no
        corner bias at all)."""
        spec = {"mode": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}
        values = [
            t.fields["mode"]
            for t in RandomSequence(spec, 400, seed=3, corner_weight=0.5)
        ]
        corner = sum(1 for v in values if v in (0, 9))
        interior = sum(1 for v in values if v not in (0, 9))
        # ~50% corner draws + uniform residue vs 20% under no bias.
        assert corner > 0.4 * len(values)
        assert interior > 0  # still explores the middle

    def test_choice_corner_bias_full_weight(self):
        spec = {"mode": [3, 7, 11]}
        values = {
            t.fields["mode"]
            for t in RandomSequence(spec, 50, seed=0, corner_weight=1.0)
        }
        assert values == {3, 11}

    def test_single_choice_field_has_no_corner_roll(self):
        spec = {"mode": [5]}
        values = {
            t.fields["mode"]
            for t in RandomSequence(spec, 10, seed=0, corner_weight=1.0)
        }
        assert values == {5}

    def test_random_sequence_seed_changes_stream(self):
        spec = {"a": (0, 255)}
        first = [t.fields for t in RandomSequence(spec, 20, seed=1)]
        second = [t.fields for t in RandomSequence(spec, 20, seed=2)]
        assert first != second

    def test_random_sequence_respects_ranges(self):
        for txn in RandomSequence({"a": (3, 9)}, 50, seed=0):
            assert 3 <= txn["a"] <= 9

    def test_choice_list_spec(self):
        for txn in RandomSequence({"m": [0, 2]}, 20, seed=0):
            assert txn["m"] in (0, 2)

    def test_reset_sequence_meta(self):
        txns = list(ResetSequence(cycles=2))
        assert len(txns) == 2
        assert all(t.meta.get("reset") for t in txns)

    def test_glitch_reset_meta(self):
        txns = list(ResetSequence(cycles=1, glitch=True))
        assert txns[0].meta.get("reset_glitch")

    def test_directed_sequence_copies(self):
        base = Transaction({"a": 1})
        seq = DirectedSequence([base])
        first = list(seq)[0]
        second = list(seq)[0]
        assert first.txn_id != second.txn_id
        assert first.fields == second.fields


class TestTransaction:
    def test_field_access(self):
        txn = Transaction({"a": 5})
        assert txn["a"] == 5
        assert txn.get("b", 9) == 9
        assert "a" in txn

    def test_hold_cycles_floor(self):
        assert Transaction({}, hold_cycles=0).hold_cycles == 1

    def test_ids_monotonic(self):
        assert Transaction({}).txn_id < Transaction({}).txn_id


class TestScoreboardAndLog:
    def test_passing_run_has_full_pass_rate(self):
        bench = get_module("adder_8bit")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert result.all_passed
        assert result.pass_rate == 1.0
        assert result.checked > 0

    def test_buggy_run_logs_mismatches(self):
        bench = get_module("adder_8bit")
        buggy = bench.source.replace("a + b + cin", "a - b + cin")
        result = run_uvm_test(
            buggy, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert not result.all_passed
        assert result.mismatches
        assert 0.0 <= result.pass_rate < 1.0
        assert "sum" in result.mismatch_signals

    def test_log_format_matches_pat_ms(self):
        bench = get_module("adder_8bit")
        buggy = bench.source.replace("a + b + cin", "a - b + cin")
        result = run_uvm_test(
            buggy, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        text = result.log.format()
        assert any(PAT_MS.match(line) for line in text.splitlines())

    def test_log_roundtrip(self):
        bench = get_module("adder_8bit")
        buggy = bench.source.replace("a + b + cin", "a - b + cin")
        result = run_uvm_test(
            buggy, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        parsed = UVMLog.parse(result.log.format())
        assert parsed.error_count == result.log.error_count
        assert parsed.mismatches()[0].signal == \
            result.log.mismatches()[0].signal

    def test_elaboration_failure_reported(self):
        bench = get_module("adder_8bit")
        result = run_uvm_test(
            "module adder_8bit(input a; endmodule",
            make_hr_sequence(bench), bench.protocol, bench.model(),
            bench.compare_signals,
        )
        assert not result.ok
        assert result.error

    @pytest.mark.parametrize("backend", ["interp", "compiled", "xcheck"])
    def test_eval_error_fails_the_run(self, backend):
        """An expression the design cannot evaluate while it settles (a
        replication count driven by an input) fails the run as an
        elaboration error instead of escaping the harness."""
        source = ("module m(input [1:0] n, input a, output [7:0] y);\n"
                  "    assign y = {n{a}};\nendmodule\n")

        class Model(CombModel):
            def compute(self, inputs):
                return {"y": 0}

        result = run_uvm_test(
            source, DirectedSequence([Transaction({"n": 1, "a": 1})]),
            DriveProtocol(clock=None, reset=None), Model(), ["y"],
            backend=backend,
        )
        assert not result.ok
        assert "replication count is unknown" in result.error
        assert [(e.severity, e.component) for e in result.log.entries] \
            == [("UVM_ERROR", "ELAB")]

    def test_mismatch_records_carry_inputs(self):
        bench = get_module("adder_8bit")
        buggy = bench.source.replace("a + b + cin", "a - b + cin")
        result = run_uvm_test(
            buggy, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        record = result.mismatches[0]
        assert set(record.inputs) <= {"a", "b", "cin"}
        assert record.time >= 0


class TestCoverage:
    def test_auto_bins(self):
        point = CoverPoint.auto("a", width=8)
        assert point.total >= 4

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 12, 16])
    def test_auto_bins_disjoint_and_complete(self, width):
        """One sample lands in exactly one bin (the corner bins used
        to overlap the first/last quartiles and inflate `covered`)."""
        point = CoverPoint.auto("a", width=width)
        top = (1 << width) - 1
        probes = {0, 1, top - 1, top, top // 2, top // 4}
        for value in probes:
            if not 0 <= value <= top:
                continue
            matches = [
                i for i, (lo, hi) in enumerate(point.bins)
                if lo <= value <= hi
            ]
            assert len(matches) == 1, (width, value, point.bins)

    def test_auto_bins_have_corner_bins(self):
        point = CoverPoint.auto("a", width=8)
        assert (0, 0) in point.bins
        assert (255, 255) in point.bins

    def test_auto_bins_sample_hits_single_bin(self):
        point = CoverPoint.auto("a", width=8)
        point.sample(0)
        assert point.covered == 1

    def test_sample_with_x_state_is_skipped(self):
        from repro.sim.values import Value

        point = CoverPoint.auto("a", width=4)
        coverage = CoverModel(points=[point])
        coverage.sample({"a": Value.all_x(4)})
        assert point.covered == 0
        coverage.sample({"a": Value(3, 4)})
        assert point.covered == 1

    def test_sample_missing_signal_is_skipped(self):
        point = CoverPoint.auto("a", width=4)
        coverage = CoverModel(points=[point])
        coverage.sample({"b": 3})
        assert point.covered == 0

    def test_empty_covergroup_is_fully_covered(self):
        coverage = CoverModel()
        assert coverage.coverage == 1.0
        assert coverage.sample({"a": 1}) == 0  # no points: a no-op
        assert coverage.report().splitlines() == [
            "covergroup cover:", "  TOTAL: 100.0%",
        ]

    def test_point_with_no_bins_is_fully_covered(self):
        point = CoverPoint("a", bins=[])
        assert point.coverage == 1.0

    def test_report_formatting(self):
        point = CoverPoint("a", bins=[(0, 0), (1, 14), (15, 15)])
        coverage = CoverModel(points=[point])
        coverage.sample({"a": 0})
        coverage.sample({"a": 7})
        assert coverage.report().splitlines() == [
            "covergroup cover:",
            "  coverpoint a: 2/3 bins (66.7%)",
            "  TOTAL: 66.7%",
        ]

    def test_sampling(self):
        point = CoverPoint.auto("a", width=4)
        coverage = CoverModel(points=[point])
        for value in range(16):
            coverage.sample({"a": value})
        assert coverage.coverage == 1.0

    def test_partial_coverage(self):
        point = CoverPoint.auto("a", width=8)
        coverage = CoverModel(points=[point])
        coverage.sample({"a": 0})
        assert 0.0 < coverage.coverage < 1.0

    def test_report_text(self):
        point = CoverPoint.auto("a", width=4)
        coverage = CoverModel(points=[point])
        coverage.sample({"a": 3})
        assert "coverpoint a" in coverage.report()

    def test_full_suite_coverage_near_complete(self):
        bench = get_module("adder_8bit")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert result.coverage >= 0.95  # paper: "nearly 100% coverage"


class TestProtocol:
    def test_reset_polarity_helpers(self):
        low = DriveProtocol(reset="rst_n", reset_active_low=True)
        assert low.reset_assert_value() == 0
        high = DriveProtocol(reset="rst", reset_active_low=False)
        assert high.reset_assert_value() == 1

    def test_comb_protocol_not_clocked(self):
        assert not DriveProtocol(clock=None).is_clocked


class TestGlitchReset:
    def test_glitch_distinguishes_sync_reset(self):
        """The async-reset glitch must catch a sync-ified reset."""
        bench = get_module("counter_12")
        buggy = bench.source.replace(
            "always @(posedge clk or negedge rst_n)",
            "always @(posedge clk)",
        )
        result = run_uvm_test(
            buggy, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert not result.all_passed

    def test_golden_passes_glitch(self):
        bench = get_module("counter_12")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert result.all_passed


class TestFrSuiteStrictness:
    def test_fr_suite_is_larger_than_hr(self):
        bench = get_module("counter_12")
        hr = sum(1 for _ in make_hr_sequence(bench))
        fr = sum(1 for _ in make_fr_sequence(bench))
        assert fr > hr
