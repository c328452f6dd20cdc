"""Front-end memo: each distinct RTL text is parsed and linted once per
process, and every caller shares the result.

The load-bearing guarantees:

- no pass writes to a tree the parser returned, so sharing one tree
  among lint, locate, elaborate, every backend and forensics is safe;
- a syntax error replays as a fresh exception with the same message
  and location, and only syntax errors are remembered;
- lint results are keyed by text and rule set, and each call gets a
  report of its own;
- both memos stay within their bound, evicting the least recently
  used text.
"""

import pickle
import traceback

import pytest

from repro.bench import get_module, make_hr_sequence
from repro.forensics.diverge import fanin_cone
from repro.hdl import parser
from repro.hdl.errors import HdlSyntaxError
from repro.hdl.parser import parse_source
from repro.lint import linter
from repro.lint.linter import Linter
from repro.locate import LocalizationEngine
from repro.sim import elaborate
from repro.uvm import run_uvm_test


def _module(name):
    return (f"module {name}(input [7:0] a, output [3:0] y);\n"
            "assign y = a;\nendmodule\n")


def test_shared_tree_is_never_mutated():
    bench = get_module("counter_12")
    text = bench.source.replace("out + 4'd1", "out - 4'd1")
    tree = parse_source(text)
    before = (repr(tree), pickle.dumps(tree))

    Linter().lint(text)
    for backend in ("interp", "compiled", "xcheck"):
        result = run_uvm_test(
            text, make_hr_sequence(bench), bench.protocol, bench.model(),
            bench.compare_signals, backend=backend, code_coverage=True,
        )
        assert result.mismatches
    engine = LocalizationEngine()
    info = engine.analyze(text, result, iteration=engine.ms_iterations)
    assert info.mode == "SL" and info.suspicious_lines
    elaborate(text)
    assert "error" not in fanin_cone(text, "out")

    assert parse_source(text) is tree
    assert (repr(tree), pickle.dumps(tree)) == before


def test_syntax_error_replays_as_fresh_exception():
    text = "module memo_broken(input a; endmodule\n"
    raised = []
    for _ in range(3):
        with pytest.raises(HdlSyntaxError) as info:
            parse_source(text)
        raised.append(info.value)
    first, *replays = raised
    for exc in replays:
        assert exc is not first
        assert (exc.message, exc.location) == (first.message, first.location)
        assert (len(traceback.extract_tb(exc.__traceback__))
                <= len(traceback.extract_tb(first.__traceback__)))


def test_other_parser_exceptions_are_not_memoized(monkeypatch):
    text = _module("memo_crash")

    def crash(self):
        raise RecursionError("parser bug")

    monkeypatch.setattr(parser.Parser, "parse_source", crash)
    with pytest.raises(RecursionError):
        parse_source(text)
    assert text not in parser._memo
    monkeypatch.undo()
    assert parse_source(text).modules[0].name == "memo_crash"


def test_lint_memo_keys_on_rule_set():
    text = ("module memo_rules(input clk, input [7:0] a,"
            " output reg [3:0] y);\n"
            "always @(posedge clk) y = a;\nendmodule\n")
    width_only = [d.code for d in
                  Linter(enabled_rules=["WIDTH"]).lint(text).diagnostics]
    every_rule = [d.code for d in Linter().lint(text).diagnostics]
    assert width_only == ["WIDTHTRUNC"]
    assert every_rule == ["BLKSEQ", "WIDTHTRUNC"]
    assert [d.code for d in
            Linter(enabled_rules=["WIDTH"]).lint(text).diagnostics] == width_only


def test_lint_reports_are_not_shared():
    text = _module("memo_report")
    first = Linter().lint(text)
    codes = [d.code for d in first.diagnostics]
    assert codes
    first.diagnostics.clear()
    second = Linter().lint(text)
    assert second.diagnostics is not first.diagnostics
    assert [d.code for d in second.diagnostics] == codes


@pytest.mark.parametrize("memo, limit, call", [
    (parser._memo, parser.MEMO_LIMIT, parse_source),
    (linter._memo, linter.MEMO_LIMIT, Linter().lint),
], ids=["parse", "lint"])
def test_memo_is_a_bounded_lru(memo, limit, call):
    texts = [_module(f"memo_bound_{index}") for index in range(limit + 1)]
    for text in texts[:limit]:
        call(text)
    call(texts[0])  # now the most recently used
    call(texts[limit])
    assert len(memo) == limit
    keys = [key if isinstance(key, str) else key[0] for key in memo]
    assert texts[0] in keys
    assert texts[1] not in keys
