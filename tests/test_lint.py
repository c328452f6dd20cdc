"""Linter rule and template tests."""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.bench import all_modules
from repro.errgen.mutations import ALL_OPERATORS
from repro.lint import (
    FIXABLE_WARNINGS,
    Linter,
    apply_warning_templates,
    lint_source,
)


def codes(source):
    return [d.code for d in lint_source(source).diagnostics]


class TestSyntaxDetection:
    def test_parse_error_reported(self):
        report = lint_source("module m(input a; endmodule")
        assert not report.parse_ok
        assert report.errors[0].code == "SYNTAX"

    def test_clean_module(self):
        report = lint_source(
            "module m(input a, output y);\nassign y = a;\nendmodule"
        )
        assert report.clean

    def test_verilator_style_format(self):
        report = lint_source("module m(input a; endmodule")
        assert report.format().startswith("%Error: dut.v:")


class TestRules:
    def test_undeclared_procedural_target_is_error(self):
        source = (
            "module m(input clk);\n"
            "always @(posedge clk) ghost <= 1'b1;\nendmodule"
        )
        assert "UNDECLARED" in codes(source)

    def test_implicit_wire_warning(self):
        source = (
            "module m(input a, output y);\nassign y = a & ghost;\nendmodule"
        )
        assert "IMPLICIT" in codes(source)

    def test_implicit_reported_at_earliest_use_at_any_hash_seed(self):
        # 'zz' is used three times on its first line: the report must
        # name the first use whatever order the hash seed gives a set.
        source = (
            "module m(input clk, output reg [3:0] q);\n"
            "  always @(posedge clk) q <= zz + zz + zz;\nendmodule"
        )
        script = (
            "import sys\nfrom repro.lint import lint_source\n"
            "report = lint_source(sys.stdin.read())\n"
            "print([str(d.location) for d in report.diagnostics "
            "if d.code == 'IMPLICIT'])"
        )
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            out = subprocess.run(
                [sys.executable, "-c", script], input=source, env=env,
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            assert out.strip() == "['2:30']", (seed, out)

    def test_procedural_assign_to_wire(self):
        source = (
            "module m(input clk);\nwire w;\n"
            "always @(posedge clk) w <= 1'b1;\nendmodule"
        )
        assert "PROCASSWIRE" in codes(source)

    def test_continuous_assign_to_reg(self):
        source = "module m(input a);\nreg r;\nassign r = a;\nendmodule"
        assert "CONTASSREG" in codes(source)

    def test_combdly(self):
        source = (
            "module m(input a, output reg y);\n"
            "always @(*) y <= a;\nendmodule"
        )
        assert "COMBDLY" in codes(source)

    def test_blkseq(self):
        source = (
            "module m(input clk, input a, output reg y);\n"
            "always @(posedge clk) y = a;\nendmodule"
        )
        assert "BLKSEQ" in codes(source)

    def test_blkseq_ignores_loop_index(self):
        source = (
            "module m(input clk, output reg [3:0] y);\ninteger i;\n"
            "always @(posedge clk) begin\n"
            "for (i = 0; i < 4; i = i + 1) y[i] <= 1'b0;\nend\nendmodule"
        )
        assert "BLKSEQ" not in codes(source)

    def test_sensmiss(self):
        source = (
            "module m(input a, input b, output reg y);\n"
            "always @(a) y = a & b;\nendmodule"
        )
        assert "SENSMISS" in codes(source)

    def test_syncasync_missing_reset_edge(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        assert "SYNCASYNC" in codes(source)

    def test_syncasync_not_fired_when_edge_present(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk or negedge rst_n) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        assert "SYNCASYNC" not in codes(source)

    def test_width_truncation(self):
        source = (
            "module m(input [8:0] a, output [3:0] y);\n"
            "assign y = a;\nendmodule"
        )
        assert "WIDTHTRUNC" in codes(source)

    def test_width_param_truncation(self):
        source = (
            "module m(input clk, output reg s);\n"
            "localparam BIG = 2'd2;\n"
            "always @(posedge clk) s <= BIG;\nendmodule"
        )
        assert "WIDTHTRUNC" in codes(source)

    def test_latch_inference(self):
        source = (
            "module m(input s, input a, output reg y);\n"
            "always @(*) begin\nif (s) y = a;\nend\nendmodule"
        )
        assert "LATCH" in codes(source)

    def test_no_latch_with_else(self):
        source = (
            "module m(input s, input a, output reg y);\n"
            "always @(*) begin\nif (s) y = a; else y = 1'b0;\nend\nendmodule"
        )
        assert "LATCH" not in codes(source)

    def test_multidriven(self):
        source = (
            "module m(input a, input b, output y);\n"
            "assign y = a;\nassign y = b;\nendmodule"
        )
        assert "MULTIDRIVEN" in codes(source)

    def test_case_incomplete(self):
        source = (
            "module m(input [1:0] s, output reg y);\n"
            "always @(*) begin\ncase (s) 2'd0: y = 1'b0;"
            " 2'd1: y = 1'b1; endcase\nend\nendmodule"
        )
        assert "CASEINCOMPLETE" in codes(source)

    def test_case_incomplete_reads_the_declared_width_table(self):
        # An integer subject has 32 bits, so two labels leave values out.
        source = (
            "module m(input clk, output reg y);\ninteger i;\n"
            "always @(posedge clk) begin\ncase (i) 0: y <= 1'b0;"
            " 1: y <= 1'b1; endcase\nend\nendmodule"
        )
        assert "CASEINCOMPLETE" in codes(source)

    def test_unused_input(self):
        source = (
            "module m(input a, input b, output y);\nassign y = a;\nendmodule"
        )
        assert "UNUSEDSIGNAL" in codes(source)

    def test_undriven_output(self):
        source = "module m(input a, output y);\nendmodule"
        assert "UNDRIVEN" in codes(source)

    def test_port_connect_unknown_port(self):
        source = (
            "module sub(input x, output y); assign y = x; endmodule\n"
            "module m(input a, output y);\nsub u(.nope(a), .y(y));\n"
            "endmodule"
        )
        assert "PORTCONNECT" in codes(source)

    def test_module_not_found(self):
        source = "module m(input a);\nghost u(.x(a));\nendmodule"
        assert "MODNOTFOUND" in codes(source)


class TestTemplates:
    def test_combdly_fix(self):
        source = (
            "module m(input a, output reg y);\n"
            "always @(*) y <= a;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 1
        assert "COMBDLY" not in codes(fixed)

    def test_blkseq_fix(self):
        source = (
            "module m(input clk, input a, output reg y);\n"
            "always @(posedge clk) y = a;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 1
        assert "BLKSEQ" not in codes(fixed)

    def test_sensmiss_fix_rewrites_to_star(self):
        source = (
            "module m(input a, input b, output reg y);\n"
            "always @(a) y = a & b;\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert "@(*)" in fixed

    def test_syncasync_fix_adds_edge(self):
        source = (
            "module m(input clk, input rst_n, output reg q);\n"
            "always @(posedge clk) begin\n"
            "if (!rst_n) q <= 1'b0; else q <= ~q;\nend\nendmodule"
        )
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert "negedge rst_n" in fixed
        assert "SYNCASYNC" not in codes(fixed)

    def test_combdly_fix_preserves_comparison(self):
        line_source = (
            "module m(input [3:0] a, output reg y);\n"
            "always @(*) if (a <= 4'd3) y <= 1'b1; else y <= 1'b0;\n"
            "endmodule"
        )
        report = lint_source(line_source)
        fixed, _ = apply_warning_templates(line_source, report.warnings)
        assert "a <= 4'd3" in fixed  # the comparison must survive

    def test_fix_rate_zero_for_unfixable(self):
        source = "module m(input a, output y);\nendmodule"  # UNDRIVEN
        report = lint_source(source)
        fixed, n = apply_warning_templates(source, report.warnings)
        assert n == 0
        assert fixed == source


class TestGoldenDesignsClean:
    @pytest.mark.parametrize("name", [b.name for b in all_modules()])
    def test_golden_has_no_errors_or_fixable_warnings(self, name):
        from repro.bench import get_module

        report = lint_source(get_module(name).source)
        assert not report.errors
        assert not report.warnings_with_code(*FIXABLE_WARNINGS)


@pytest.fixture(scope="module")
def mutant_corpus():
    """The golden sources plus every errgen mutant of them, deduplicated
    in first-seen order."""
    texts = {}
    for bench in all_modules():
        texts.setdefault(bench.source)
        for operator in ALL_OPERATORS:
            for site in operator.sites(bench.source):
                texts.setdefault(site.mutated_source)
    return list(texts)


class TestMutantCorpusPinned:
    """Lint output over every golden source and errgen mutant, pinned
    to a digest: a rule refactor must not move a single diagnostic."""

    @pytest.mark.parametrize("enabled, expected", [
        (None,
         "57fd4fa48e7c3e69cff1b955329f32050646e3c0231636bff35cd370130800f0"),
        (["WIDTH"],
         "b6ad41b74ea4206834492443fbe23b16e6018b6e2883a89d1b1a806e76612836"),
    ], ids=["all-rules", "width-only"])
    def test_digest(self, mutant_corpus, enabled, expected):
        linter = Linter(enabled)
        digest = hashlib.sha256()
        parsed = 0
        for text in mutant_corpus:
            report = linter.lint(text)
            parsed += report.parse_ok
            digest.update(repr((report.parse_ok, [
                (d.severity, d.code, d.message, d.location.line,
                 d.location.column, d.hint)
                for d in report.diagnostics
            ])).encode())
        assert (len(mutant_corpus), parsed) == (1196, 703)
        assert digest.hexdigest() == expected
