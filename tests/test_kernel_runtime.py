"""The compiled backend's accounting and the kernel runtime's edge cases.

Modelled seconds are charged on ``event_count`` and ``time``, so a
poke, tick or committer that drops or doubles one event moves records.
The pin below covers every golden bench's HR stimulus; the edge-case
tests compare :class:`CompiledSimulator` with the reference
:class:`Simulator` on drives no bench exercises."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.registry import all_modules
from repro.sim import benchmark
from repro.sim.compile import cache as kernel_cache
from repro.sim.compile.engine import CompiledSimulator
from repro.sim.elaborate import elaborate
from repro.sim.engine import Simulator
from repro.sim.values import Value


@pytest.fixture(autouse=True)
def _fresh_kernel_memo():
    kernel_cache.clear_memo()
    yield
    kernel_cache.clear_memo()


#: sha256 over ``(bench, trace, event_count, time, trace entries)`` of
#: the compiled backend driving each golden bench's HR stimulus.
ACCOUNTING_DIGEST = (
    "79599476166ec31319bef3b5c32df73de2a165495c2266d772c933efb405481d"
)


def test_compiled_accounting_pinned(monkeypatch):
    made = []
    make_simulator = benchmark.make_simulator

    def capture(*args, **kwargs):
        made.append(make_simulator(*args, **kwargs))
        return made[-1]

    # Drive each bench exactly as ``bench_sim.py`` does, keeping the
    # simulator ``drive`` builds.
    monkeypatch.setattr(benchmark, "make_simulator", capture)
    digest = hashlib.sha256()
    for bench in sorted(all_modules(), key=lambda b: b.name):
        vectors = benchmark.materialize(bench)
        for trace in (True, False):
            benchmark.drive(bench, "compiled", vectors, trace)
            sim = made[-1]
            assert isinstance(sim, CompiledSimulator) and sim.levelized
            entries = sum(len(h) for h in sim.trace.values())
            assert trace or entries == 0
            digest.update(repr(
                (bench.name, trace, sim.event_count, sim.time, entries)
            ).encode())
    assert digest.hexdigest() == ACCOUNTING_DIGEST


def _both(source):
    return Simulator(elaborate(source)), CompiledSimulator(elaborate(source))


def _same(ref, dut, *names):
    for name in names:
        assert dut.get(name) == ref.get(name), name
        assert dut.get(name).signed == ref.get(name).signed, name
    assert dut.event_count == ref.event_count
    assert dut.time == ref.time
    assert dut.trace == ref.trace


MEMORY_WAKE = """
module m(input clk, input [2:0] addr, input [7:0] d, input [7:0] b,
         output reg [7:0] y);
    reg [7:0] mem [0:3];
    always @(posedge clk) mem[addr] <= d;
    always @(mem) y = b;
endmodule
"""


def test_out_of_range_memory_nba_counts_and_wakes():
    """An NBA write past the memory's range changes no word, yet it
    counts one event and wakes the memory's comb listeners, as
    ``_notify_memory_write`` does: the listener below reads ``b``,
    which is not in its sensitivity list, so only that wake-up can
    carry the new ``b`` into ``y``."""
    ref, dut = _both(MEMORY_WAKE)
    assert dut.levelized and not dut.fallback_reasons
    for sim in (ref, dut):
        sim.poke("clk", 0)
        sim.poke("d", 9)
        sim.set("b", 5)
    _same(ref, dut, "y")
    before = dut.get("y")
    for sim in (ref, dut):
        sim.poke("addr", 6)
        sim.tick()
    _same(ref, dut, "y")
    assert dut.get("y") != before and dut.get_int("y") == 5
    assert all(dut.peek_memory("mem", i).xmask for i in range(4))


EDGE_ORDER = """
module m(input clk, input rst, output reg [7:0] seen,
         output reg [7:0] hits);
    initial begin seen = 0; hits = 0; end
    always @(posedge rst or clk) seen = {seen[5:0], 2'd3};
    always @(posedge clk) seen = {seen[5:0], 2'd1};
    always @(negedge clk) seen = {seen[5:0], 2'd2};
    always @(posedge clk or clk) hits = hits + 1;
endmodule
"""


def test_mixed_edge_listeners_queue_once_in_listener_order():
    """``clk`` has posedge, negedge and anyedge listeners, one process
    twice.  Each edge queues every firing process once, in listener
    order: ``seen`` logs the run order, ``hits`` the run count."""
    ref, dut = _both(EDGE_ORDER)
    assert "clk" in dut._kernel_ticks and "clk" in dut._kernel_pokes
    for value in (1, 0, 1, 0):
        for sim in (ref, dut):
            sim.set("clk", value)
        _same(ref, dut, "seen", "hits")
    assert dut.get_int("seen") == 0b11011110  # ..., 3, 1, 3, 2
    assert dut.get_int("hits") == 4
    for sim in (ref, dut):
        sim.tick(cycles=3)
    _same(ref, dut, "seen", "hits")
    assert dut.get_int("hits") == 10


SIGNED_PORT = """
module m(input signed [7:0] a, output signed [8:0] y);
    assign y = a;
endmodule
"""


@pytest.mark.parametrize("drive", ["poke", "set"])
def test_signed_port_drives_agree(drive):
    """Ints (negative included), narrower unsigned and signed
    ``Value``s land in a signed port as the same slot value."""
    ref, dut = _both(SIGNED_PORT)
    values = [5, Value(3, 4), -3, Value(0xF, 4, 0, True),
              Value(0xFE, 8, 0, True), 253, Value(1, 2, 2),
              Value(0x1FF, 9, 0, True)]
    for value in values:
        for sim in (ref, dut):
            getattr(sim, drive)("a", value)
            if drive == "poke":
                sim.settle()
            sim.step_time(1)
        _same(ref, dut, "a", "y")
        assert dut.get("a").signed and dut.get("a").width == 8


def test_bench_sim_gate_compares_speedups(tmp_path):
    """``bench_sim.py --baseline`` gates on compiled/interp speedups:
    a host that runs both backends at half speed passes, a compiled
    backend that loses a quarter of its speedup fails."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_sim.py"
    spec = importlib.util.spec_from_file_location("bench_sim", script)
    bench_sim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sim)
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_text(json.dumps(
        {"modules": {"m": {"compiled_cps": 200.0, "speedup": 5.0}}}
    ))
    slow_host = {"m": {"compiled_cps": 100.0, "speedup": 5.0}}
    _, ratio = bench_sim.compare_to_baseline(slow_host, baseline, 0.2)
    assert ratio == pytest.approx(1.0)
    slower_kernel = {"m": {"compiled_cps": 200.0, "speedup": 3.75}}
    lines, ratio = bench_sim.compare_to_baseline(slower_kernel, baseline, 0.2)
    assert ratio == pytest.approx(0.75) and "REGRESSION" in lines[-1]
