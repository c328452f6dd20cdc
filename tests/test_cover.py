"""Coverage subsystem tests: model, code coverage, DB, closure loop.

Covers the four pillars of `repro.cover`:

- the rich functional model (crosses, transitions, probes, holes);
- backend-invariant structural code coverage (interp == compiled);
- the mergeable, deterministic coverage database;
- the closed-loop coverage-driven stimulus engine.
"""

import hashlib
import json

import pytest

from repro.bench.registry import (
    all_modules,
    get_module,
    make_coverage_evaluator,
    make_coverage_model,
    make_hr_sequence,
)
from repro.cover import (
    CoverModel,
    CoverageDB,
    CoverageDrivenSequence,
    CoverageMergeError,
    format_holes,
    holes_of,
    point_for_field,
)
from repro.sim.backend import make_simulator
from repro.sim.values import Value
from repro.uvm.driver import Driver
from repro.uvm.sequence import RandomSequence
from repro.uvm.test import run_uvm_test


def make_small_model():
    a = point_for_field("a", (0, 15), bin_count=2)
    b = point_for_field("b", (0, 3))
    model = CoverModel(name="small", points=[a, b])
    model.add_cross(a, b)
    model.add_transitions("s", [(0, 1), (1, 2), (2, 0)], name="s_arcs")
    model.probes.append("s")
    return model


class TestCoverModel:
    def test_point_for_field_range_and_choices(self):
        ranged = point_for_field("a", (0, 255))
        assert (0, 0) in ranged.bins and (255, 255) in ranged.bins
        chosen = point_for_field("m", [3, 1, 3, 2])
        assert chosen.bins == [(1, 1), (2, 2), (3, 3)]

    def test_cross_requires_simultaneous_bins(self):
        model = make_small_model()
        model.sample({"a": 0, "s": 0})  # b missing: cross not sampled
        assert model.crosses[0].covered == 0
        model.sample({"a": 0, "b": 2, "s": 0})
        assert model.crosses[0].covered == 1

    def test_cross_total_is_cartesian_product(self):
        model = make_small_model()
        expected = len(model.points[0].bins) * len(model.points[1].bins)
        assert model.crosses[0].total == expected

    def test_transition_needs_consecutive_samples(self):
        model = make_small_model()
        model.sample({"s": 0})
        model.sample({"s": 1})
        model.sample({"s": 2})
        trans = model.transitions[0]
        assert set(trans.hits) == {0, 1}  # 0->1 and 1->2, not 2->0

    def test_transition_x_breaks_the_chain(self):
        model = make_small_model()
        model.sample({"s": 0})
        model.sample({"s": Value.all_x(2)})
        model.sample({"s": 1})
        assert model.transitions[0].covered == 0  # 0->x->1 is no arc

    def test_reset_trackers_keeps_hits(self):
        model = make_small_model()
        model.sample({"s": 0})
        model.sample({"s": 1})
        model.reset_trackers()
        model.sample({"s": 2})  # no 1->2: history was cleared
        assert set(model.transitions[0].hits) == {0}

    def test_sample_returns_new_hit_count(self):
        model = make_small_model()
        first = model.sample({"a": 0, "b": 0})
        again = model.sample({"a": 0, "b": 0})
        assert first == 3  # point a, point b, cross
        assert again == 0

    def test_report_mentions_every_item(self):
        model = make_small_model()
        report = model.report()
        assert "coverpoint a" in report
        assert "cross axb" in report
        assert "transition s_arcs" in report

    def test_holes_and_formatting(self):
        model = make_small_model()
        model.sample({"a": 0, "b": 0, "s": 0})
        model.sample({"s": 1})
        holes = holes_of(model, drivable_fields=["a", "b"])
        kinds = {h.kind for h in holes}
        assert kinds == {"point", "cross", "transition"}
        text = format_holes(holes, limit=3)
        assert "and" in text and "more" in text
        # transition holes over the probe are not field-targetable
        probe_holes = [h for h in holes if h.kind == "transition"]
        assert all(not h.fields for h in probe_holes)

    def test_serialization_is_json_pure(self):
        model = make_small_model()
        model.sample({"a": 5, "b": 1, "s": 0})
        data = model.to_dict()
        assert data == json.loads(json.dumps(data))


class TestCodeCoverage:
    @pytest.mark.parametrize(
        "name", ["fsm_seq", "alu", "sync_fifo", "traffic_light",
                 "calendar", "radix2_div", "adder_16bit", "div_16bit"],
    )
    def test_backend_invariant_maps(self, name):
        """interp and compiled must produce identical stmt/branch/
        toggle maps for the same DUT and stimulus."""
        maps = {}
        for backend in ("interp", "compiled"):
            bench = get_module(name)
            sim = make_simulator(bench.source, backend=backend,
                                 top=bench.top, code_coverage=True)
            driver = Driver(sim, bench.protocol)
            cov = sim.code_coverage

            def hook(txn, cycle):
                cov.sample_stable()

            driver.apply_reset()
            for txn in make_hr_sequence(bench):
                driver.drive(txn, hook)
            maps[backend] = cov.finalize(sim).to_dict()
        assert maps["interp"] == maps["compiled"]

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_replay_stores_stay_in_shadow(self, backend):
        """Replay runs a comb body's whole, bit, ``+:`` and memory-word
        stores into overlays: branches on the temporary between them
        see the replay's own writes, and the design keeps its state."""
        source = """
        module m(input [3:0] a, input [1:0] sel, output reg [3:0] y);
            reg [3:0] t;
            reg [3:0] mem [0:3];
            always @(*) begin
                t = a;
                if (t[3]) y = 4'd1; else y = 4'd2;
                t[3] = ~t[3];
                if (t[3]) y = 4'd3; else y = 4'd4;
                t[sel +: 2] = 2'b11;
                if (t == 4'b1111) y = 4'd5; else y = 4'd6;
                mem[sel] = t;
                if (mem[sel] == t) y = t; else y = 4'd0;
            end
        endmodule
        """
        sim = make_simulator(source, backend=backend, code_coverage=True)
        cov = sim.code_coverage
        design = sim.design
        ifs = sorted(cov.branch_domain,
                     key=lambda sid: int(sid.split(".s")[1]))
        assert len(ifs) == 4

        def state():
            return (
                {name: (s.value.bits, s.value.xmask, s.value.signed)
                 for name, s in design.signals.items()},
                {name: [(w.bits, w.xmask) for w in m.words]
                 for name, m in design.memories.items()},
            )

        for a, sel, taken, final in [
            (0b1000, 0, "TFFT", 0b0011),   # t: 1000, 0000, 0011
            (0b0011, 2, "FTTT", 0b1111),   # t: 0011, 1011, 1111
            (0b0110, 1, "FTFT", 0b1110),   # t: 0110, 1110, 1110
        ]:
            sim.set("a", 0b0101)
            sim.set("sel", 3)
            # Drive without settling, so what replay computes differs
            # from the design's settled values and words.
            sim.poke("a", a)
            sim.poke("sel", sel)
            before = state()
            cov.branch_hits.clear()
            cov.sample_stable()
            assert state() == before
            assert cov.branch_hits == {
                f"{sid}:{outcome}": 1 for sid, outcome in zip(ifs, taken)
            }
            sim.settle()
            assert sim.get_int("y") == final
            assert sim.peek_memory("mem", sel).to_int() == final

    def test_untaken_branch_reported_uncovered(self):
        source = """
        module m(input clk, input a, output reg q);
            always @(posedge clk) begin
                if (a)
                    q <= 1'b1;
                else
                    q <= 1'b0;
            end
        endmodule
        """
        sim = make_simulator(source, backend="interp",
                             code_coverage=True)
        sim.poke("a", 1)
        sim.tick("clk")
        cov = sim.code_coverage
        taken = [k for k in cov.branch_hits if k.endswith(":T")]
        untaken = [
            k for sid in cov.branch_domain
            for k in (f"{sid}:F",) if k not in cov.branch_hits
        ]
        assert taken and untaken
        assert cov.branch_coverage < 1.0

    def test_toggle_from_trace(self):
        source = """
        module m(input clk, input a, output reg q);
            always @(posedge clk) q <= a;
        endmodule
        """
        sim = make_simulator(source, code_coverage=True)
        sim.poke("a", 0)
        sim.tick("clk")  # q: x -> 0 (x transitions never count)
        sim.poke("a", 1)
        sim.tick("clk")  # q: 0 -> 1, a rise
        sim.poke("a", 0)
        sim.tick("clk")  # q: 1 -> 0, a fall
        cov = sim.code_coverage.finalize(sim)
        assert cov.toggle["q"]["rise"] == 1
        assert cov.toggle["q"]["fall"] == 1

    def test_xcheck_backend_collects_on_ref_side(self):
        bench = get_module("edge_detect")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals, backend="xcheck",
            code_coverage=True,
        )
        assert result.ok
        assert result.coverage_detail["code"]["stmts"]


class TestUVMIntegration:
    def test_rich_model_through_uvm_run(self):
        bench = get_module("fsm_seq")
        model = make_coverage_model(bench)
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals, coverage=model,
            code_coverage=True,
        )
        assert result.ok and result.all_passed
        assert model.transitions[0].covered > 0  # FSM arcs probed
        detail = result.coverage_detail
        assert detail["functional"]["transitions"]
        assert detail["code"]["stmts"]

    def test_default_flat_coverage_still_works(self):
        bench = get_module("adder_8bit")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        assert result.ok
        assert result.coverage_detail == {}  # default model: no counters


class TestCoveragePinned:
    """Coverage output over the 27 golden benches, pinned to a digest.

    Per bench and backend the digest covers the HR-suite run's
    ``coverage_detail`` under the bench's rich model with code
    coverage on, and the ``repr`` of the default-model run's
    ``TestResult.coverage``.  Both backends must land on the same
    digest; a change to coverage collection that is meant to move
    these numbers re-pins it and says why.
    """

    DIGEST = "8d9523a282593564be464bcede7378d9e688d667d5cabb280f22286e1e51de6a"

    @staticmethod
    def _digest(backend):
        digest = hashlib.sha256()
        for bench in all_modules():
            def run(**options):
                return run_uvm_test(
                    bench.source, make_hr_sequence(bench), bench.protocol,
                    bench.model(), bench.compare_signals, top=bench.top,
                    backend=backend, **options,
                )

            rich = run(coverage=make_coverage_model(bench),
                       code_coverage=True)
            default = run()
            assert rich.ok and default.ok, bench.name
            digest.update(bench.name.encode("ascii"))
            digest.update(json.dumps(rich.coverage_detail, sort_keys=True,
                                     separators=(",", ":")).encode("ascii"))
            digest.update(repr(default.coverage).encode("ascii"))
        return digest.hexdigest()

    def test_coverage_output_pinned(self):
        digests = {b: self._digest(b) for b in ("interp", "compiled")}
        assert digests["interp"] == digests["compiled"]
        assert digests["interp"] == self.DIGEST


class TestCoverageDB:
    def fragment(self, group="m", hits=("0",)):
        return {
            "functional": {
                group: {
                    "points": {
                        "a": {
                            "bins": [[0, 0], [1, 14], [15, 15]],
                            "hits": {h: 1 for h in hits},
                        }
                    },
                    "crosses": {},
                    "transitions": {},
                }
            },
            "code": {
                f"{group}#i0": {
                    "stmts": {"p0.s0": 2},
                    "branches": {"p0.s1:T": 1},
                    "totals": {"stmt": 2, "branch": 2},
                    "toggle": {"q": {"rise": 1, "fall": 0, "width": 1}},
                }
            },
        }

    def test_merge_sums_counters(self):
        db = CoverageDB()
        db.add_fragment(self.fragment(hits=("0",)))
        db.add_fragment(self.fragment(hits=("0", "2")))
        point = db.functional["m"]["points"]["a"]
        assert point["hits"] == {"0": 2, "2": 1}
        assert db.code["m#i0"]["stmts"]["p0.s0"] == 4

    def test_merge_is_order_independent_bytes(self):
        one = CoverageDB()
        one.add_fragment(self.fragment(hits=("0",)))
        one.add_fragment(self.fragment("n", hits=("1",)))
        two = CoverageDB()
        two.add_fragment(self.fragment("n", hits=("1",)))
        two.add_fragment(self.fragment(hits=("0",)))
        assert one.dumps() == two.dumps()
        assert one.content_key() == two.content_key()

    def test_merge_rejects_mismatched_bins(self):
        db = CoverageDB()
        db.add_fragment(self.fragment())
        other = self.fragment()
        other["functional"]["m"]["points"]["a"]["bins"] = [[0, 15]]
        with pytest.raises(CoverageMergeError):
            db.add_fragment(other)

    def test_roundtrip_and_save(self, tmp_path):
        db = CoverageDB()
        db.add_fragment(self.fragment())
        path = db.save(tmp_path)
        loaded = CoverageDB.load(path)
        assert loaded.dumps() == db.dumps()
        # content-addressed: saving identical content reuses the path
        assert db.save(tmp_path) == path

    def test_merge_paths_and_summary(self, tmp_path):
        a = CoverageDB().add_fragment(self.fragment(hits=("0",)))
        b = CoverageDB().add_fragment(self.fragment(hits=("1", "2")))
        merged = CoverageDB.merge_paths(
            [a.write(tmp_path / "a.json"), b.write(tmp_path / "b.json")]
        )
        assert merged.functional_summary()["m"] == 1.0
        assert "functional m: 3/3 bins" in merged.report()

    def test_toggle_masks_union(self):
        db = CoverageDB()
        db.add_fragment(self.fragment())
        extra = self.fragment()
        extra["code"]["m#i0"]["toggle"]["q"] = {
            "rise": 0, "fall": 1, "width": 1,
        }
        db.add_fragment(extra)
        assert db.code["m#i0"]["toggle"]["q"] == {
            "rise": 1, "fall": 1, "width": 1,
        }


class TestClosureLoop:
    def test_deterministic_stream(self):
        bench = get_module("alu")
        streams = []
        for _ in range(2):
            seq = CoverageDrivenSequence(
                bench.field_ranges, count=24, seed=7,
                model_factory=lambda: make_coverage_model(bench),
            )
            streams.append([t.fields for t in seq])
        assert streams[0] == streams[1]

    def test_budget_is_a_hard_ceiling(self):
        bench = get_module("alu")
        seq = CoverageDrivenSequence(
            bench.field_ranges, count=10, seed=0,
            model_factory=lambda: make_coverage_model(bench),
        )
        assert len(list(seq)) <= 10

    @pytest.mark.parametrize(
        "name", ["adder_8bit", "alu", "fsm_seq", "traffic_light",
                 "ram_dp"],
    )
    def test_driven_closes_at_least_fixed_random(self, name):
        """The acceptance bar: at equal budget, the closure loop ends
        at >= the fixed-random baseline's functional coverage."""
        bench = get_module(name)
        budget = bench.hr_count
        random_model = make_coverage_model(bench)
        make_coverage_evaluator(bench)(
            random_model,
            list(RandomSequence(bench.field_ranges, count=budget,
                                seed=0, hold_cycles=bench.hold_cycles)),
        )
        driven = CoverageDrivenSequence(
            bench.field_ranges, count=budget, seed=0,
            model_factory=lambda: make_coverage_model(bench),
            evaluator=make_coverage_evaluator(bench),
            hold_cycles=bench.hold_cycles,
        )
        consumed = len(list(driven))
        assert consumed <= budget
        assert driven.model.coverage >= random_model.coverage

    def test_input_space_targeting_without_dut(self):
        """With the default (DUT-free) evaluator, hole targeting must
        beat plain random on cross closure at the same budget."""
        ranges = {"a": (0, 255), "b": (0, 255)}
        seq = CoverageDrivenSequence(ranges, count=64, seed=1)
        list(seq)
        random_model = CoverModel(points=[
            point_for_field("a", ranges["a"]),
            point_for_field("b", ranges["b"]),
        ])
        random_model.add_cross(*random_model.points)
        for txn in RandomSequence(ranges, count=64, seed=1):
            random_model.sample(txn.fields)
        assert seq.model.coverage >= random_model.coverage

    def test_hr_sequence_coverage_mode(self):
        bench = get_module("fsm_seq")
        sequence = make_hr_sequence(bench, stimulus="coverage")
        result = run_uvm_test(
            bench.source, sequence, bench.protocol, bench.model(),
            bench.compare_signals,
        )
        assert result.ok and result.all_passed

    def test_unknown_stimulus_mode_rejected(self):
        bench = get_module("fsm_seq")
        with pytest.raises(ValueError):
            list(make_hr_sequence(bench, stimulus="telepathy"))


class TestCampaignCoverage:
    def test_records_carry_mergeable_fragments(self):
        from repro.errgen.generator import generate_for_module
        from repro.experiments.runner import run_method_on_instance

        bench = get_module("counter_12")
        instance = generate_for_module(bench, per_operator=1, seed=0)[0]
        record = run_method_on_instance("uvllm", instance, attempts=1)
        assert record.coverage["functional"]["counter_12"]["points"]
        code = record.coverage["code"][instance.instance_id]
        assert code["stmts"] and code["dut"] in ("buggy", "golden")
        db = CoverageDB.from_records([record, record])
        assert db.functional_coverage() > 0.0

    def test_fragment_json_roundtrip_stable(self):
        from repro.errgen.generator import generate_for_module
        from repro.experiments.runner import run_method_on_instance

        bench = get_module("edge_detect")
        instance = generate_for_module(bench, per_operator=1, seed=0)[0]
        record = run_method_on_instance("meic", instance, attempts=1)
        assert record.coverage == json.loads(
            json.dumps(record.coverage)
        )


class TestCoverageCLI:
    def test_merge_report_and_fail_under(self, tmp_path, capsys):
        from repro.cli import main

        db = CoverageDB().add_fragment({
            "functional": {
                "m": {
                    "points": {
                        "a": {"bins": [[0, 0], [1, 1]],
                              "hits": {"0": 1}},
                    },
                    "crosses": {}, "transitions": {},
                }
            },
            "code": {},
        })
        path = str(tmp_path / "db.json")
        db.write(path)
        out_path = str(tmp_path / "merged.json")
        code = main(["coverage", path, path, "--out", out_path,
                     "--holes"])
        captured = capsys.readouterr()
        assert code == 0
        assert "functional m: 1/2 bins" in captured.out
        assert "a in [1, 1]" in captured.out
        merged = CoverageDB.load(out_path)
        assert merged.functional["m"]["points"]["a"]["hits"] == {"0": 2}
        assert main(["coverage", path, "--fail-under", "90"]) == 1
