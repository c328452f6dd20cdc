"""CLI and VCD export tests."""

import pytest

from repro.bench import get_module, make_hr_sequence
from repro.cli import main
from repro.sim.vcd import dump_simulator, dump_vcd, _identifier
from repro.uvm import run_uvm_test


class TestVcd:
    def _simulated(self):
        bench = get_module("counter_12")
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals,
        )
        return result.simulator

    def test_header_sections(self):
        text = dump_simulator(self._simulated())
        assert "$timescale" in text
        assert "$enddefinitions $end" in text
        assert "$var reg 4" in text  # the 4-bit counter output register

    def test_time_markers_monotonic(self):
        text = dump_simulator(self._simulated())
        times = [
            int(line[1:]) for line in text.splitlines()
            if line.startswith("#")
        ]
        assert times == sorted(times)
        assert times[0] == 0

    def test_value_changes_reference_declared_ids(self):
        text = dump_simulator(self._simulated())
        declared = set()
        for line in text.splitlines():
            if line.startswith("$var"):
                declared.add(line.split()[3])
        for line in text.splitlines():
            if line.startswith("b"):
                declared_id = line.split()[-1]
                assert declared_id in declared

    def test_scalar_and_vector_formats(self):
        from repro.sim.values import Value

        text = dump_vcd(
            {"bit": [(0, Value(1, 1))], "vec": [(0, Value(5, 4))]},
            {"bit": 1, "vec": 4},
        )
        assert "\n1" in text or "1!" in text  # scalar format
        assert "b0101" in text

    def test_x_rendering(self):
        from repro.sim.values import Value

        text = dump_vcd(
            {"s": [(0, Value.all_x(1))]}, {"s": 1}
        )
        assert "x" in text.splitlines()[-1]

    def test_identifier_uniqueness(self):
        ids = {_identifier(i) for i in range(500)}
        assert len(ids) == 500

    def test_file_output(self, tmp_path):
        path = tmp_path / "wave.vcd"
        dump_simulator(self._simulated(), path=str(path))
        assert path.read_text().startswith("$comment")


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "counter_12" in out
        assert "sync_fifo" in out

    def test_lint_clean_file(self, tmp_path, capsys):
        path = tmp_path / "ok.v"
        path.write_text(get_module("adder_8bit").source)
        assert main(["lint", str(path)]) == 0

    def test_lint_broken_file(self, tmp_path):
        path = tmp_path / "bad.v"
        path.write_text("module m(input a; endmodule")
        assert main(["lint", str(path)]) == 1

    def test_verify_repairs_bug(self, tmp_path, capsys):
        bench = get_module("counter_12")
        path = tmp_path / "buggy.v"
        out_path = tmp_path / "fixed.v"
        path.write_text(
            bench.source.replace("out + 4'd1", "out - 4'd1")
        )
        code = main([
            "verify", str(path), "--bench", "counter_12",
            "--output", str(out_path),
        ])
        assert code == 0
        assert "out + 4'd1" in out_path.read_text()

    def test_inject_produces_buggy_source(self, capsys):
        assert main(["inject", "counter_12"]) == 0
        out = capsys.readouterr().out
        assert "module counter_12" in out
        assert out != get_module("counter_12").source

    def test_simulate_golden(self, tmp_path, capsys):
        vcd_path = tmp_path / "w.vcd"
        code = main([
            "simulate", "--bench", "adder_8bit", "--vcd", str(vcd_path),
        ])
        assert code == 0
        assert vcd_path.exists()

    def test_simulate_failing_dut(self, tmp_path):
        bench = get_module("adder_8bit")
        path = tmp_path / "bad.v"
        path.write_text(
            bench.source.replace("a + b + cin", "a - b + cin")
        )
        code = main([
            "simulate", "--bench", "adder_8bit", "--file", str(path),
        ])
        assert code == 1


def _canon(trace):
    """Backend-neutral comparable form of a value-change trace."""
    return {
        name: [(when, value.bits, value.xmask, value.width)
               for when, value in events]
        for name, events in trace.items()
    }


class TestVcdRoundTrip:
    """dump → parse must reproduce the canonical trace exactly —
    the property forensic bundle diffing stands on."""

    def _scalar_simulator(self, backend, bench_name="counter_12"):
        bench = get_module(bench_name)
        result = run_uvm_test(
            bench.source, make_hr_sequence(bench), bench.protocol,
            bench.model(), bench.compare_signals, backend=backend,
        )
        assert result.ok
        return result.simulator

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_round_trip_scalar_backends(self, backend):
        from repro.sim.vcd import parse_vcd

        simulator = self._scalar_simulator(backend)
        parsed = parse_vcd(dump_simulator(simulator))
        assert _canon(parsed["trace"]) == _canon(simulator.trace)
        for name, width in parsed["widths"].items():
            assert simulator.signal_width(name) == width

    def test_internal_fsm_state_is_probed(self):
        """DUT-internal state registers (not just compare ports) land
        in the dump, declared as regs."""
        from repro.sim.vcd import parse_vcd

        simulator = self._scalar_simulator("interp",
                                           bench_name="fsm_seq")
        text = dump_simulator(simulator)
        parsed = parse_vcd(text)
        assert "state" in parsed["trace"]
        assert parsed["kinds"]["state"] == "reg"
        assert parsed["widths"]["state"] == 2

    def test_hierarchical_scopes_round_trip(self):
        from repro.sim.values import Value
        from repro.sim.vcd import parse_vcd

        trace = {
            "top_sig": [(0, Value(1, 1))],
            "u_sub.state": [(0, Value(2, 2)), (10, Value(3, 2))],
            "u_sub.u_leaf.q": [(5, Value(1, 1))],
        }
        widths = {"top_sig": 1, "u_sub.state": 2, "u_sub.u_leaf.q": 1}
        text = dump_vcd(trace, widths)
        assert "$scope module u_sub $end" in text
        assert "$scope module u_leaf $end" in text
        assert text.count("$upscope $end") == 3
        parsed = parse_vcd(text)
        assert _canon(parsed["trace"]) == _canon(trace)
        assert parsed["widths"] == widths

    def test_abort_note_round_trips_as_comment(self):
        from repro.sim.values import Value
        from repro.sim.vcd import parse_vcd

        text = dump_vcd(
            {"s": [(0, Value(1, 1))]}, {"s": 1},
            abort_note="aborted at t=40: runaway deltas",
        )
        parsed = parse_vcd(text)
        assert "aborted at t=40: runaway deltas" in parsed["comments"]
