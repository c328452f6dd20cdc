"""Fused-kernel unit tests: whole-design settle/tick codegen, the
store-elision policy's observable-glitch guard, demoted processes
running *inside* the kernel at their topological level, flattened
hierarchy equivalence, and the per-process compilation cache (memo,
version/signature invalidation)."""

import hashlib

import pytest

from repro.bench.registry import all_modules
from repro.cover.code import CodeCoverage
from repro.errgen.generator import generate_dataset
from repro.experiments.runner import run_methods
from repro.fuzz.campaign import run_fuzz
from repro.runner.report import format_progress
from repro.runner.scheduler import CampaignRunner
from repro.sim.compile import cache as kernel_cache
from repro.sim.compile.engine import CompiledSimulator
from repro.sim.compile.kernel import build_kernel_source
from repro.sim.compile.levelize import levelize, sensitivity_complete
from repro.sim.elaborate import design_fingerprint, elaborate
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _isolated_kernel_cache():
    """Each test sees a fresh memo and zeroed counters."""
    kernel_cache.clear_memo()
    kernel_cache.reset_stats()
    yield
    kernel_cache.clear_memo()


HIERARCHY = """
module leaf(input [3:0] x, output [3:0] y);
    assign y = x ^ 4'b1010;
endmodule
module top(input clk, input [3:0] a, output reg [3:0] q,
           output [3:0] w);
    wire [3:0] mid;
    leaf u0(.x(a), .y(mid));
    leaf u1(.x(mid), .y(w));
    always @(posedge clk) q <= w;
endmodule
"""


def test_flattened_hierarchy_matches_interpreter():
    """Leaf pure-comb instances (and their port binds) inline into the
    parent kernel; values and traces stay bit-identical."""
    dut = CompiledSimulator(elaborate(HIERARCHY))
    ref = Simulator(elaborate(HIERARCHY))
    assert dut.levelized
    # Every process — leaf bodies, port binds, the seq reg — compiled.
    assert dut.compiled_process_count == len(dut.design.processes)
    assert not dut.fallback_reasons
    for value in (0, 5, 15, 5, 10):
        dut.poke("a", value)
        ref.poke("a", value)
        dut.settle()
        ref.settle()
        dut.tick()
        ref.tick()
        assert dut.get("w") == ref.get("w")
        assert dut.get("q") == ref.get("q")
    assert dut.trace == ref.trace


DEMOTED = """
module demo(input [7:0] a, input [1:0] ix, output [7:0] z,
            output [7:0] w);
    reg [7:0] mid;
    always @(*) begin
        mid = a;
        mid[ix + 1:ix] = 2'b11;
    end
    assign z = mid ^ 8'h0f;
    assign w = a + 1;
endmodule
"""


def test_demoted_process_runs_inside_kernel_at_its_level():
    """A runtime-":"-bound store demotes its process to the
    interpreter, but the design stays levelized and the downstream
    comb logic (z reads mid) sees its writes in topological order."""
    dut = CompiledSimulator(elaborate(DEMOTED))
    ref = Simulator(elaborate(DEMOTED))
    assert dut.levelized
    assert dut.fallback_reasons  # the always block demoted
    assert len(dut.fallback_reasons) == 1
    assert dut.compiled_process_count == len(dut.design.processes) - 1
    for a, ix in ((0x00, 0), (0xF0, 2), (0xAB, 3), (0xAB, 1), (0xFF, 0)):
        dut.poke("a", a)
        dut.poke("ix", ix)
        ref.poke("a", a)
        ref.poke("ix", ix)
        dut.settle()
        ref.settle()
        assert dut.get("z") == ref.get("z"), (a, ix)
        assert dut.get("w") == ref.get("w"), (a, ix)
    assert dut.trace == ref.trace


GLITCH = """
module glitch(input a, input c, input b, output reg t, output reg z);
    always @(*) begin
        t = 1'b0;
        if (c) t = 1'b1;
        if (a) t = 1'b1;
    end
    always @(t) z = b;
endmodule
"""


def test_incomplete_sensitivity_observer_disables_store_elision():
    """``always @(t) z = b`` reads b but only wakes on t — so glitch
    writes to t are observable and must NOT be elided.  The kernel's
    defer policy keeps t on the immediate write path, reproducing the
    interpreter's glitch wake-ups exactly."""
    design = elaborate(GLITCH)
    z_proc = next(p for p in design.processes
                  if p.kind == "comb" and "always@" in p.name
                  and not sensitivity_complete(p))
    assert z_proc is not None  # the @(t) process really is incomplete
    dut = CompiledSimulator(elaborate(GLITCH))
    ref = Simulator(elaborate(GLITCH))
    for sim in (dut, ref):
        sim.poke("a", 0)
        sim.poke("c", 1)
        sim.poke("b", 0)
        sim.settle()
    assert dut.get("z") == ref.get("z")
    # b changes alone: neither backend may wake the @(t) process.
    for sim in (dut, ref):
        sim.poke("b", 1)
        sim.settle()
    assert dut.get_int("z") == ref.get_int("z") == 0
    # a/c swap: t glitches 1 -> 0 -> 1 within one activation.  The
    # glitch wakes @(t) on the reference engine, which re-samples b.
    for sim in (dut, ref):
        sim.poke("a", 1)
        sim.poke("c", 0)
        sim.settle()
    assert dut.get_int("z") == ref.get_int("z") == 1
    assert dut.trace == ref.trace


def test_elision_applies_when_all_observers_are_complete():
    """With only sensitivity-complete listeners, intermediate stores
    collapse to one commit — values/traces still match the
    interpreter (the canonical trace drops same-time glitches)."""
    source = """
module ok(input a, input c, output reg t, output z);
    always @(*) begin
        t = 1'b0;
        if (c) t = 1'b1;
        if (a) t = 1'b1;
    end
    assign z = ~t;
endmodule
"""
    dut = CompiledSimulator(elaborate(source))
    ref = Simulator(elaborate(source))
    for a, c in ((0, 1), (1, 0), (0, 0), (1, 1), (0, 1)):
        dut.poke("a", a)
        dut.poke("c", c)
        ref.poke("a", a)
        ref.poke("c", c)
        dut.settle()
        ref.settle()
        assert dut.get("z") == ref.get("z")
    assert dut.trace == ref.trace
    # The deferred path commits fewer events than the interpreter's
    # glitchy worklist would have — allowed (scheduler-dependent).
    assert dut.event_count <= ref.event_count


ANYEDGE = """
module mixed(input clk, input rst, output reg [3:0] n);
    always @(posedge clk or rst) begin
        if (rst) n <= 4'd0;
        else n <= n + 1;
    end
endmodule
"""


def test_fused_tick_fires_anyedge_listeners():
    dut = CompiledSimulator(elaborate(ANYEDGE))
    ref = Simulator(elaborate(ANYEDGE))
    assert "clk" in dut._kernel_ticks
    for sim in (dut, ref):
        sim.poke("clk", 0)
        sim.set("rst", 1)
        sim.set("rst", 0)
        sim.tick(cycles=5)
    # rst release fires the anyedge listener too (n: 0 -> 1), then
    # five rising edges count to 6 — on both backends identically.
    assert dut.get_int("n") == ref.get_int("n") == 6
    assert dut.trace == ref.trace


def test_trace_off_skips_bookkeeping_in_both_backends():
    source = ("module m(input [3:0] a, output [3:0] y); "
              "assign y = a + 1; endmodule")
    for cls in (Simulator, CompiledSimulator):
        sim = cls(elaborate(source), trace=False)
        sim.set("a", 3)
        sim.set("a", 7)
        assert sim.get_int("y") == 8
        assert sim.trace == {}  # nothing recorded, not even seeds
        # The untraced write path is installed instance-wide.
        assert sim._write_signal.__func__ is \
            cls._write_signal_untraced
    # The trace-off kernel variant contains no trace code at all.
    sim = CompiledSimulator(elaborate(source), trace=False)
    assert "_tr" not in sim.kernel_source


SIGNED_CONCAT = """
module m(input [15:0] d, output reg signed [7:0] h, output reg [7:0] l,
         output neg);
    always @(*) {h, l} = d;
    assign neg = (h < 8'sd0);
endmodule
"""


def test_concat_store_normalizes_signedness_of_pieces():
    """A concat-store piece is constructed unsigned even when the
    whole RHS is signed; the deferred commit must still normalize it
    to the target signal's signedness (found by code review of the
    fused store path)."""
    dut = CompiledSimulator(elaborate(SIGNED_CONCAT))
    ref = Simulator(elaborate(SIGNED_CONCAT))
    for value in (0xF0F0, 0x0F0F, 0x80FF, 0x7F00):
        dut.set("d", value)
        ref.set("d", value)
        assert dut.get("h") == ref.get("h")
        assert dut.get("h").signed == ref.get("h").signed
        assert dut.get_int("neg") == ref.get_int("neg"), hex(value)
    assert dut.trace == ref.trace


ORDER_SENSITIVE = """
module m(input [3:0] a, input [3:0] b, output reg [3:0] q,
         output reg [3:0] g);
    always @(*) begin
        q = a;
        q = a + b;
    end
    always @(a) g = q;
endmodule
"""


def test_incomplete_reader_of_comb_written_signal_falls_back():
    """``always @(a) g = q`` reads comb-written q without listening to
    it — evaluation *order* is then observable, so the levelizer must
    refuse and keep the interpreter's worklist scheduling."""
    assert levelize(elaborate(ORDER_SENSITIVE)) is None
    dut = CompiledSimulator(elaborate(ORDER_SENSITIVE))
    ref = Simulator(elaborate(ORDER_SENSITIVE))
    assert not dut.levelized
    for a, b in ((3, 5), (1, 5), (1, 2), (7, 2)):
        dut.poke("a", a)
        dut.poke("b", b)
        ref.poke("a", a)
        ref.poke("b", b)
        dut.settle()
        ref.settle()
        assert dut.get("g") == ref.get("g"), (a, b)
    assert dut.trace == ref.trace


# -- compilation cache -------------------------------------------------------

CACHED_DUT = """
module cached(input clk, input [3:0] a, output reg [3:0] q);
    always @(posedge clk) q <= a;
endmodule
"""


def test_kernel_memo_hit_for_repeated_design():
    CompiledSimulator(elaborate(CACHED_DUT))
    first = kernel_cache.stats()
    assert first["compiled"] == 1
    CompiledSimulator(elaborate(CACHED_DUT))
    second = kernel_cache.stats()
    assert second["compiled"] == 1  # zero recompilations
    assert second["memo_hits"] == first["memo_hits"] + 1


def test_kernel_cache_key_varies_by_variant_and_content():
    a = elaborate(CACHED_DUT)
    assert kernel_cache.kernel_cache_key(a, True, False) != \
        kernel_cache.kernel_cache_key(a, False, False)
    assert kernel_cache.kernel_cache_key(a, True, False) != \
        kernel_cache.kernel_cache_key(a, True, True)
    # An elaboration-signature change (different width) changes the key.
    b = elaborate(CACHED_DUT.replace("[3:0]", "[7:0]"))
    assert design_fingerprint(a) != design_fingerprint(b)
    assert kernel_cache.kernel_cache_key(a, True, False) != \
        kernel_cache.kernel_cache_key(b, True, False)
    # Same source re-elaborated: identical fingerprint.
    assert design_fingerprint(a) == design_fingerprint(elaborate(CACHED_DUT))


def test_codegen_version_bump_invalidates(monkeypatch):
    design = elaborate(CACHED_DUT)
    key = kernel_cache.kernel_cache_key(design, True, False)
    monkeypatch.setattr(kernel_cache, "CODEGEN_VERSION",
                        kernel_cache.CODEGEN_VERSION + 1)
    design2 = elaborate(CACHED_DUT)
    assert kernel_cache.kernel_cache_key(design2, True, False) != key


def _build_cached_dut(_unit):
    CompiledSimulator(elaborate(CACHED_DUT))
    return {"ok": True}


class _Unit:
    def cache_key(self):
        return "u"


def test_scheduler_aggregates_kernel_stats():
    runner = CampaignRunner(jobs=1, executor=_build_cached_dut)
    records = runner.run([_Unit(), _Unit(), _Unit()])
    assert all(r == {"ok": True} for r in records)
    assert runner.kernel_stats["compiled"] == 1
    assert runner.kernel_stats["memo_hits"] == 2


def test_progress_line_surfaces_kernel_cache():
    line = format_progress(3, 10, 5.0, cached=1,
                           kernels={"compiled": 2, "memo_hits": 7})
    assert "kernels 2c/7h" in line
    quiet = format_progress(3, 10, 5.0, cached=1, kernels=None)
    assert "kernels" not in quiet


@pytest.mark.campaign
def test_campaigns_write_no_kernels(tmp_path):
    """Kernels live only in each process's memo: neither a pool
    campaign nor a fuzz run writes them under the cache directory, and
    pool workers that generate their own kernels post the serial
    records."""
    instances = generate_dataset(seed=0, per_operator=1, target=None,
                                 modules=["counter_12"])[:3]
    pooled = run_methods(instances, ("uvllm", "strider"), attempts=1,
                         jobs=2, cache_dir=tmp_path / "methods",
                         backend="compiled")
    assert not (tmp_path / "methods" / "compiled").exists()
    assert pooled == run_methods(instances, ("uvllm", "strider"),
                                 attempts=1, jobs=1, backend="compiled")

    summary = run_fuzz(count=4, cycles=6, cache_dir=tmp_path / "fuzz")
    assert summary["run"] == 4
    assert not (tmp_path / "fuzz" / "compiled").exists()


# -- a design that does not levelize runs on the interpreter -----------------

def test_comb_cycle_runs_on_interpreter():
    source = """
module loop(input a, output y);
    wire p, q;
    assign p = q | a;
    assign q = p & a;
    assign y = q;
endmodule
"""
    design = elaborate(source)
    assert levelize(design) is None
    sim = CompiledSimulator(design)
    assert not sim.levelized
    assert sim.kernel_source is None
    assert sim.compiled_process_count == 0
    assert set(sim.fallback_reasons) == set(design.processes)
    assert set(sim.fallback_reasons.values()) == {
        "design does not levelize"
    }
    ref = Simulator(elaborate(source))
    for value in (0, 1, 0, 1):
        sim.set("a", value)
        ref.set("a", value)
        assert sim.get("y") == ref.get("y")
        # Modelled seconds are charged on these, so they must match
        # the reference engine exactly, not just the settled values.
        assert sim.event_count == ref.event_count
        assert sim.time == ref.time
        assert sim.trace == ref.trace


# -- generated output is pinned to CODEGEN_VERSION ---------------------------

#: sha256 over the 108 generated kernels of the golden benches (see
#: the test below), per CODEGEN_VERSION.
KERNEL_DIGESTS = {
    2: "1215137a3e4e1207b7ebd29a35f5871a39d22e767b2b2656a1e47fe8c727a03b",
    3: "0d2c361c4d2eed1da0523073c1d69443030b3c0dc26f5f8633dda7c5ef61a6bd",
    4: "267d567b9d590a92f66f482aa6b70bd13ca846452821bc749edcf06b0a8acb76",
}


def test_kernel_output_pinned_to_codegen_version():
    """Generated kernels change only with a CODEGEN_VERSION bump, hold
    no design-independent code, and load no trace helper they never
    call.

    The digest catches unintended changes to generator output: a
    refactor of the generator that moves any kernel byte fails here
    until the change is deliberate, versioned and re-pinned."""
    digest = hashlib.sha256()
    for bench in sorted(all_modules(), key=lambda b: b.name):
        design = elaborate(bench.source, top=bench.top)
        for trace in (True, False):
            for coverage in (None, CodeCoverage(design)):
                source = build_kernel_source(
                    design, levelize(design), trace=trace,
                    coverage=coverage,
                    codegen_version=kernel_cache.CODEGEN_VERSION,
                )
                digest.update(source.encode())
                # Pokes, ticks and committers are runtime closures.
                assert not any(f"def {stem}" in source for stem in (
                    "_poke_", "_tick_", "_nc", "_nm"))
                # _settle loads the trace helpers only to call them.
                settle = source[source.index("def _settle(sim):"):
                                source.index("\n    return {")]
                assert ("_ta = " in settle) == ("_ta(" in settle), \
                    bench.name
    assert digest.hexdigest() == KERNEL_DIGESTS.get(
        kernel_cache.CODEGEN_VERSION
    ), (
        "generated kernel output changed: bump "
        "repro.sim.compile.cache.CODEGEN_VERSION and pin the new "
        f"digest {digest.hexdigest()} under it in KERNEL_DIGESTS"
    )
