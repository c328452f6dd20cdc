"""Unit tests for the compiled-backend subsystem: the backend
registry, the levelizer (including its event-driven fallback on
combinational cycles), codegen shapes (dict-dispatch case lowering,
NBA ordering, x-propagation), the xcheck divergence machinery, and the
engine satellites (bisect ``trace_at``, negedge-aware ``tick``)."""

import pytest

from repro.sim.backend import (
    BACKENDS,
    backend,
    canonical_backend,
    get_default_backend,
    make_simulator,
    set_default_backend,
    use_backend,
)
from repro.sim.compile.engine import CompiledSimulator
from repro.sim.compile.levelize import levelize
from repro.sim.compile.xcheck import XCheckDivergence, XCheckSimulator
from repro.sim.elaborate import elaborate
from repro.sim.engine import SimulationError, Simulator
from repro.sim.values import Value


# -- backend registry --------------------------------------------------------

def test_registry_names():
    assert backend("interp") is Simulator
    assert backend("compiled") is CompiledSimulator
    assert backend("xcheck") is XCheckSimulator
    assert canonical_backend("Interpreter") == "interp"
    with pytest.raises(ValueError, match="unknown simulation backend"):
        backend("verilator")
    assert set(BACKENDS) == {"interp", "compiled", "xcheck"}


def test_default_backend_scoping():
    # The ambient default is "interp" unless the suite itself runs
    # under REPRO_SIM_BACKEND (the CI compiled-backend leg does).
    ambient = get_default_backend()
    assert ambient in BACKENDS
    with use_backend("compiled"):
        assert get_default_backend() == "compiled"
        sim = make_simulator("module m(input a, output y); "
                             "assign y = ~a; endmodule")
        assert isinstance(sim, CompiledSimulator)
    assert get_default_backend() == ambient
    previous = set_default_backend("xcheck")
    try:
        assert previous == ambient
        assert get_default_backend() == "xcheck"
    finally:
        set_default_backend(previous)
    assert get_default_backend() == ambient


def test_make_simulator_accepts_design_object():
    design = elaborate("module m(input a, output y); assign y = a; "
                       "endmodule")
    sim = make_simulator(design, backend="compiled")
    assert isinstance(sim, CompiledSimulator)
    with pytest.raises(SimulationError, match="xcheck"):
        make_simulator(design, backend="xcheck")


# -- levelization ------------------------------------------------------------

CHAIN = """
module chain(input [3:0] a, output [3:0] d);
    wire [3:0] b, c;
    assign c = b + 1;
    assign b = a + 1;
    assign d = c + 1;
endmodule
"""

COMB_LOOP = """
module loop(input a, output y);
    wire p, q;
    assign p = q | a;
    assign q = p & a;
    assign y = q;
endmodule
"""


def test_levelizer_orders_chain():
    design = elaborate(CHAIN)
    order = levelize(design)
    assert order is not None
    names = [p.name for p in order]
    # b's driver must precede c's, which precedes d's.
    assert names.index("assign@4") > names.index("assign@5")
    assert names.index("assign@6") > names.index("assign@4")
    sim = CompiledSimulator(design)
    assert sim.levelized
    sim.set("a", 3)
    assert sim.get_int("d") == 6


def test_levelizer_falls_back_on_comb_loop():
    design = elaborate(COMB_LOOP)
    assert levelize(design) is None
    sim = CompiledSimulator(design)
    assert not sim.levelized
    # The cyclic design still simulates (event-driven fallback) and
    # reaches the same fixpoint as the interpreter.
    ref = Simulator(elaborate(COMB_LOOP))
    for value in (0, 1, 0):
        sim.set("a", value)
        ref.set("a", value)
        assert sim.get("y") == ref.get("y")


def test_chain_settles_in_one_sweep():
    """Levelized settle evaluates the 3-assign chain without the
    worklist's glitch re-evaluations (fewer events than the LIFO
    interpreter on the same stimulus is allowed; correctness already
    covered — this pins the sweep actually running levelized)."""
    sim = CompiledSimulator(elaborate(CHAIN))
    assert sim.levelized
    assert sim.compiled_process_count == 3
    sim.set("a", 1)
    sim.set("a", 2)
    assert sim.get_int("d") == 5


# -- codegen shapes ----------------------------------------------------------

CASE_DUT = """
module casey(input [1:0] sel, input [7:0] a, b, c, output reg [7:0] y);
    always @(*) begin
        case (sel)
            2'd0: y = a;
            2'd1: y = b;
            2'd2: y = c;
            default: y = 8'hff;
        endcase
    end
endmodule
"""


def test_case_lowered_to_dict_dispatch():
    sim = CompiledSimulator(elaborate(CASE_DUT))
    source = sim.kernel_source
    assert ".get((" in source  # the dict probe
    sim.poke("a", 0x11)
    sim.poke("b", 0x22)
    sim.poke("c", 0x33)
    for sel, expected in ((0, 0x11), (1, 0x22), (2, 0x33), (3, 0xFF)):
        sim.set("sel", sel)
        assert sim.get_int("y") == expected


def test_case_x_subject_matches_interpreter():
    # An x subject must fall to the default arm on both backends.
    for backend_name in ("interp", "compiled"):
        sim = make_simulator(CASE_DUT, backend=backend_name)
        sim.poke("a", 1)
        sim.poke("b", 2)
        sim.poke("c", 3)
        sim.settle()  # sel never driven: all-x
        assert sim.get_int("y") == 0xFF


NBA_SWAP = """
module swap(input clk, input rst_n, output reg [3:0] p, q);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) begin
            p <= 4'd5;
            q <= 4'd9;
        end else begin
            p <= q;
            q <= p;
        end
    end
endmodule
"""


def test_nba_swap_semantics():
    """Non-blocking swap must read pre-edge values on both backends."""
    for backend_name in ("interp", "compiled", "xcheck"):
        sim = make_simulator(NBA_SWAP, backend=backend_name)
        sim.poke("clk", 0)
        sim.set("rst_n", 0)
        sim.set("rst_n", 1)
        assert (sim.get_int("p"), sim.get_int("q")) == (5, 9)
        sim.tick()
        assert (sim.get_int("p"), sim.get_int("q")) == (9, 5)
        sim.tick()
        assert (sim.get_int("p"), sim.get_int("q")) == (5, 9)


XPROP = """
module xprop(input [3:0] a, output [3:0] s, output [3:0] m,
             output anded, output ored);
    wire [3:0] u;  // never driven: x
    assign s = a + u;
    assign m = a & u;
    assign anded = &{a[0], u[0]};
    assign ored = a[0] | u[0];
endmodule
"""


def test_x_propagation_matches_interpreter():
    ref = make_simulator(XPROP, backend="interp")
    dut = make_simulator(XPROP, backend="compiled")
    for value in (0, 0b1111, 0b0101):
        ref.set("a", value)
        dut.set("a", value)
        for name in ("s", "m", "anded", "ored"):
            assert dut.get(name) == ref.get(name), name
            assert dut.get(name).xmask == ref.get(name).xmask, name
    # Arithmetic with an x operand is pessimistically all-x ...
    assert dut.get("s").is_all_x
    # ... while 0 & x is a known 0 and 1 | x a known 1.
    dut.set("a", 0)
    assert dut.get("m") == Value(0, 4)
    dut.set("a", 0b0001)
    assert dut.get_int("ored") == 1


def test_kernel_source_recorded():
    sim = CompiledSimulator(elaborate(CASE_DUT))
    assert sim.compiled_process_count == 1
    assert sim.interpreted_process_count == 0
    # Levelized designs fuse into one generated module, shared by
    # every simulator of the design.
    assert sim.levelized
    assert sim.kernel_source is not None
    assert CompiledSimulator(elaborate(CASE_DUT)).kernel_source \
        is sim.kernel_source
    assert "def _settle(sim):" in sim.kernel_source
    assert not sim.fallback_reasons


# -- xcheck ------------------------------------------------------------------

def test_xcheck_raises_on_injected_divergence():
    sim = make_simulator("module m(input [3:0] a, output [3:0] y); "
                         "assign y = a + 1; endmodule",
                         backend="xcheck")
    sim.set("a", 3)
    assert sim.get_int("y") == 4
    # Corrupt the compiled side behind xcheck's back; the next settle
    # comparison must catch it.
    signal = sim.dut.design.signals["y"]
    signal.value = Value(0xF, 4)
    with pytest.raises(XCheckDivergence, match="signal 'y'"):
        sim.set("a", 3)  # same value: settle+compare still runs


def test_xcheck_divergence_is_not_swallowed_by_uvm():
    from repro.bench.registry import get_module, make_hr_sequence
    from repro.uvm.test import run_uvm_test

    bench = get_module("adder_8bit")
    result = run_uvm_test(
        bench.source, make_hr_sequence(bench), bench.protocol,
        bench.model(), bench.compare_signals, top=bench.top,
        backend="xcheck",
    )
    assert result.ok  # healthy run passes through xcheck transparently
    assert result.simulator.compare_count > 0


# -- engine satellites -------------------------------------------------------

def test_trace_at_bisect_semantics():
    sim = Simulator("module t(input [7:0] a, output [7:0] y); "
                    "assign y = a; endmodule")
    for time, value in ((0, 1), (10, 2), (30, 7)):
        sim.time = time
        sim.set("a", value)
    history = sim.trace["y"]
    assert [when for when, _ in history] == [0, 10, 30]
    assert sim.trace_at("y", -1) is None
    assert sim.trace_at("y", 0).to_int() == 1
    assert sim.trace_at("y", 9).to_int() == 1
    assert sim.trace_at("y", 10).to_int() == 2
    assert sim.trace_at("y", 29).to_int() == 2
    assert sim.trace_at("y", 30).to_int() == 7
    assert sim.trace_at("y", 1000).to_int() == 7
    assert sim.trace_at("nonexistent", 5) is None


NEGEDGE = """
module neg(input clk, output reg [3:0] up, output reg [3:0] down);
    initial up = 0;
    initial down = 0;
    always @(posedge clk) up <= up + 1;
    always @(negedge clk) down <= down + 1;
endmodule
"""


def test_tick_still_fires_negedge_listeners():
    for backend_name in ("interp", "compiled"):
        sim = make_simulator(NEGEDGE, backend=backend_name)
        sim.poke("clk", 0)  # x -> 0 counts as a falling edge: down = 1
        sim.settle()
        sim.tick(cycles=3)
        assert sim.get_int("up") == 3
        assert sim.get_int("down") == 4


def test_tick_skips_settle_without_negedge_listeners():
    sim = make_simulator(NBA_SWAP, backend="interp")
    sim.poke("clk", 0)
    sim.set("rst_n", 1)
    calls = 0
    original = sim.settle

    def counting_settle():
        nonlocal calls
        calls += 1
        return original()

    sim.settle = counting_settle
    sim.tick(cycles=4)
    # rst_n is a negedge listener but clk only feeds posedge logic:
    # one settle per rising edge, none after the falls.
    assert calls == 4
    # The falling edges still happened and were traced.
    clk_history = sim.trace["clk"]
    assert sum(1 for _, v in clk_history if v.bits == 0) >= 4
