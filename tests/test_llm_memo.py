"""Repair-loop memos: the stand-in LLM's analyses (focus lines,
functional candidates, syntax repairs) and the FR verdict are each
computed once per process per distinct question.

The load-bearing guarantees:

- every prompt and response of a small campaign of all six methods is
  byte-identical to the code before the memos, cold and warm;
- a hit equals a fresh computation with the memo cleared, over the 27
  golden sources and errgen mutants of three modules;
- a caller's list is its own, and a shared ``CandidatePatch`` cannot
  be changed;
- questions that differ in anything the key covers never collide;
- the FR memo keys the backend, and exceptions are never stored.
"""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.bench import all_modules, get_module
from repro.errgen.generator import generate_dataset
from repro.experiments import runner
from repro.lint.linter import Linter
from repro.llm import repair_knowledge, syntax_knowledge
from repro.llm.client import LLMClient
from repro.llm.repair_knowledge import FunctionalRepairEngine
from repro.llm.syntax_knowledge import SyntaxRepairEngine
from repro.obs.metrics import GLOBAL as metrics
from repro.sim.backend import use_backend
from repro.sim.compile.xcheck import XCheckDivergence

#: sha256 of the compact JSON list of every ``(prompt, response text)``
#: pair ``LLMClient._record`` saw while :func:`_pin_campaign` ran,
#: recorded before the memos existed.
PROMPT_DIGEST = (
    "502b57b6be3ccd6a360374bbd91bc4f0c97120137cefe47203b18ec21cfdee4b"
)

MEMOS = (repair_knowledge._focus_memo, repair_knowledge._candidates_memo,
         syntax_knowledge._memo)

MUTANTS = generate_dataset(seed=0, per_operator=1, target=None,
                           modules=["counter_12", "accu", "fsm_seq"],
                           validate=False)

#: (label, source, mismatch signals) of every golden bench and mutant.
SOURCES = (
    [(bench.name, bench.source, tuple(bench.compare_signals))
     for bench in all_modules()]
    + [(mutant.instance_id, mutant.buggy_source,
        tuple(get_module(mutant.module_name).compare_signals))
       for mutant in MUTANTS]
)
SOURCE_IDS = [label for label, _source, _signals in SOURCES]
SYNTAX_SOURCES = [(bench.name, bench.source) for bench in all_modules()] + [
    (mutant.instance_id, mutant.buggy_source) for mutant in MUTANTS
    if mutant.kind == "syntax"
]


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS + (runner._FR_MEMO,):
        memo.clear()
    yield
    for memo in MEMOS + (runner._FR_MEMO,):
        memo.clear()


def _counts(prefix):
    return (metrics.counter(prefix + ".memo_hits"),
            metrics.counter(prefix + ".memo_misses"))


def _moved(prefix, before):
    """``(hits, misses)`` since a :func:`_counts` snapshot."""
    hits, misses = _counts(prefix)
    return hits - before[0], misses - before[1]


def _hit_and_fresh(memo, ask):
    """``(miss, hit, fresh)``: ``ask()`` cold, again, and again after
    ``memo`` is cleared.  The second call must be a hit."""
    miss = ask()
    before = _counts("llm")
    hit = ask()
    assert _moved("llm", before) == (1, 0)
    memo.clear()
    fresh = ask()
    return miss, hit, fresh


# -- every prompt and response is unchanged ----------------------------------


def _pin_campaign(monkeypatch):
    pairs = []
    record = LLMClient._record

    def recording(self, prompt, text):
        pairs.append((prompt, text))
        return record(self, prompt, text)

    monkeypatch.setattr(LLMClient, "_record", recording)
    instances = generate_dataset(seed=0, per_operator=1, target=None,
                                 modules=["counter_12", "accu"])
    records = runner.run_methods(instances, runner.METHODS, attempts=2,
                                 backend="compiled")
    monkeypatch.undo()
    digest = hashlib.sha256(
        json.dumps(pairs, separators=(",", ":")).encode()).hexdigest()
    return len(instances), len(records), len(pairs), digest


def test_prompts_and_responses_are_pinned(monkeypatch):
    cold = _pin_campaign(monkeypatch)
    assert cold == (19, 114, 328, PROMPT_DIGEST)
    before = _counts("llm")
    assert _pin_campaign(monkeypatch) == cold
    assert _moved("llm", before)[0] > 0


# -- focus lines ---------------------------------------------------------------


@pytest.mark.parametrize("label, source, signals", SOURCES, ids=SOURCE_IDS)
def test_focus_hit_equals_fresh_computation(label, source, signals):
    engine = FunctionalRepairEngine()
    questions = (
        ((), {}),
        ((), {"truncation_strong": True, "expected": 3, "actual": 1}),
        ((4, 2, 4, 10_000), {}),
        ((SimpleNamespace(line=3), 5), {"truncation_strong": True}),
    )
    for suspicious, hints in questions:
        miss, hit, fresh = _hit_and_fresh(
            repair_knowledge._focus_memo,
            lambda: engine.focus_lines_for(source, list(signals),
                                           list(suspicious), dict(hints)))
        assert miss == hit == fresh and fresh
        assert hit is not miss


def test_focus_keys_suspicious_lines_by_number():
    bench = get_module("counter_12")
    engine = FunctionalRepairEngine()
    by_item = engine.focus_lines_for(
        bench.source, ["out"], [SimpleNamespace(line=6), 7])
    before = _counts("llm")
    assert engine.focus_lines_for(bench.source, ("out",), [6, 7]) == by_item
    assert _moved("llm", before) == (1, 0)
    for other in ([7, 6], [6]):
        engine.focus_lines_for(bench.source, ["out"], other)
    engine.focus_lines_for(bench.source, ["out"], [6, 7], {"arith": True})
    assert _moved("llm", before) == (1, 3)


def test_focus_list_is_the_callers_own():
    bench = get_module("accu")
    engine = FunctionalRepairEngine()
    first = engine.focus_lines_for(bench.source, ["data_out"], None)
    expected = list(first)
    first.append(-1)
    first[0] = -2
    assert engine.focus_lines_for(bench.source, ["data_out"], None) \
        == expected


# -- functional candidates ------------------------------------------------------


@pytest.mark.parametrize("label, source, signals", SOURCES, ids=SOURCE_IDS)
def test_candidates_hit_equals_fresh_computation(label, source, signals):
    engine = FunctionalRepairEngine()
    focus = engine.focus_lines_for(source, list(signals), None)
    for hints in ({}, {"expected": 12, "actual": 4, "truncation": True}):
        miss, hit, fresh = _hit_and_fresh(
            repair_knowledge._candidates_memo,
            lambda: engine.candidates(source, focus, dict(hints)))
        assert miss == hit == fresh and fresh
        assert hit is not miss


def test_candidates_key_on_the_engine_bound():
    bench = get_module("alu")
    focus = list(range(1, bench.source.count("\n") + 1))
    short = FunctionalRepairEngine(max_candidates=40)
    long = FunctionalRepairEngine(max_candidates=60)
    before = _counts("llm")
    assert len(short.candidates(bench.source, focus)) == 40
    assert len(long.candidates(bench.source, focus)) == 60
    assert short.candidates(bench.source, focus) \
        == long.candidates(bench.source, focus)[:40]
    assert _moved("llm", before) == (2, 2)


def test_candidates_are_frozen_and_the_list_is_the_callers_own():
    bench = get_module("counter_12")
    engine = FunctionalRepairEngine()
    focus = engine.focus_lines_for(bench.source, ["out"], None)
    first = engine.candidates(bench.source, focus)
    expected = list(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].score = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].patched = "garbage"
    first.reverse()
    first.pop()
    assert engine.candidates(bench.source, focus) == expected


# -- syntax repair ----------------------------------------------------------------


@pytest.mark.parametrize("label, source", SYNTAX_SOURCES,
                         ids=[label for label, _ in SYNTAX_SOURCES])
def test_syntax_hit_equals_fresh_computation(label, source):
    engine = SyntaxRepairEngine()
    miss, hit, fresh = _hit_and_fresh(syntax_knowledge._memo,
                                      lambda: engine.repair(source))
    assert miss == hit == fresh
    assert hit[1] is not miss[1]


def test_syntax_repair_keys_on_the_rule_set():
    broken = next(mutant.buggy_source for mutant in MUTANTS
                  if mutant.operator == "undeclared_use")
    before = _counts("llm")
    full = SyntaxRepairEngine().repair(broken)
    assert full[2] and full[1]
    SyntaxRepairEngine(Linter(enabled_rules=())).repair(broken)
    assert _moved("llm", before) == (0, 2)


def test_syntax_pairs_are_the_callers_own():
    broken = next(mutant.buggy_source for mutant in MUTANTS
                  if mutant.kind == "syntax")
    engine = SyntaxRepairEngine()
    fixed, pairs, fixed_all = engine.repair(broken)
    expected = list(pairs)
    pairs.clear()
    assert engine.repair(broken) == (fixed, expected, fixed_all)


# -- the FR verdict memo -------------------------------------------------------


@pytest.fixture
def fr_runs(monkeypatch):
    """Count the FR oracle's UVM runs."""
    runs = []
    run_uvm_test = runner.run_uvm_test

    def counting(*args, **kwargs):
        runs.append(args[0])
        return run_uvm_test(*args, **kwargs)

    monkeypatch.setattr(runner, "run_uvm_test", counting)
    return runs


def test_fr_repeat_returns_the_verdict_without_a_run(fr_runs):
    bench = get_module("counter_12")
    mutant = bench.source.replace("out + 4'd1", "out - 4'd1")
    assert mutant != bench.source
    before = _counts("fr")
    with use_backend("interp"):
        verdicts = [runner.evaluate_fix(text, bench)
                    for text in (bench.source, mutant, bench.source, mutant)]
        assert runner.evaluate_fix(bench.source, bench, seed=7)
    assert verdicts == [True, False, True, False]
    assert fr_runs == [bench.source, mutant, bench.source]
    assert _moved("fr", before) == (2, 3)


def test_fr_lint_failure_is_stored(fr_runs):
    bench = get_module("counter_12")
    broken = "module counter_12(input clk; endmodule\n"
    before = _counts("fr")
    assert runner.evaluate_fix(broken, bench) is False
    assert runner.evaluate_fix(broken, bench) is False
    assert fr_runs == []
    assert _moved("fr", before) == (1, 1)


def test_fr_backends_are_separate_entries(fr_runs):
    bench = get_module("accu")
    verdicts = []
    for backend in ("interp", "compiled", "interp", "compiled"):
        with use_backend(backend):
            verdicts.append(runner.evaluate_fix(bench.source, bench))
    assert verdicts == [True] * 4
    assert len(fr_runs) == 2 and len(runner._FR_MEMO) == 2


def test_fr_exception_is_not_stored(monkeypatch):
    bench = get_module("counter_12")

    def diverge(*args, **kwargs):
        raise XCheckDivergence("lockstep")

    with monkeypatch.context() as patched:
        patched.setattr(runner, "run_uvm_test", diverge)
        with pytest.raises(XCheckDivergence):
            runner.evaluate_fix(bench.source, bench)
    assert not runner._FR_MEMO
    before = _counts("fr")
    assert runner.evaluate_fix(bench.source, bench)
    assert _moved("fr", before) == (0, 1)
