"""UVM-run memo: each distinct (design, stimulus, backend) run is
simulated once per process, and a repeat replays it.

The load-bearing guarantees:

- a hit's verdict fields equal a fresh run's, on every backend, for
  passing, failing and non-elaborating sources;
- runs that differ in anything the key covers never collide;
- runs whose outputs the caller supplies or needs live (``coverage=``,
  ``record_ops=True``, a coverage-driven sequence) bypass the memo;
- every result owns its mismatch list, log and coverage detail, while
  sharing the stored run's finished simulator and trace;
- exceptions are never stored;
- the memo is a bounded LRU, and campaign records do not depend on it;
- the key's assumptions hold for all 27 benches: reference models are
  pure, and equal sequence keys mean equal transaction streams.
"""

import copy
import hashlib
import re

import pytest

from repro.baselines.common import SimpleTestbench
from repro.bench import (
    all_modules,
    get_module,
    make_fr_sequence,
    make_hr_sequence,
)
from repro.bench.registry import make_coverage_model, module_names
from repro.errgen.generator import generate_dataset
from repro.hdl import parser
from repro.lint import linter
from repro.obs import trace
from repro.obs.metrics import GLOBAL as metrics
from repro.refmodel.base import CombModel
from repro.runner import expand_grid, run_units
from repro.sim.backend import use_backend
from repro.sim.compile.xcheck import XCheckDivergence
from repro.uvm import (
    ConcatSequence,
    DirectedSequence,
    DriveProtocol,
    RandomSequence,
    ResetSequence,
    Transaction,
    run_uvm_test,
)
from repro.uvm import test as uvm_test

BACKENDS = ("interp", "compiled", "xcheck")
COUNTER = get_module("counter_12")
SOURCES = {
    "golden": COUNTER.source,
    "mutant": COUNTER.source.replace("out + 4'd1", "out - 4'd1"),
    "broken": "module counter_12(input clk; endmodule\n",
}

TWO_TOPS = """
module inc(input [3:0] a, output [3:0] y);
    assign y = a + 4'd1;
endmodule
module dec(input [3:0] a, output [3:0] y);
    assign y = a - 4'd1;
endmodule
"""
COMB = DriveProtocol(clock=None, reset=None, sample_after_edge=False)


class IncModel(CombModel):
    def compute(self, inputs):
        return {"y": (inputs["a"] + 1) & 0xF}


class DecModel(CombModel):
    def compute(self, inputs):
        return {"y": (inputs["a"] - 1) & 0xF}


class CrashModel(CombModel):
    def compute(self, inputs):
        raise ZeroDivisionError("model bug")


@pytest.fixture(autouse=True)
def cold_memo():
    uvm_test._memo.clear()
    yield
    uvm_test._memo.clear()


def _counts():
    return (metrics.counter("uvm.memo_hits"),
            metrics.counter("uvm.memo_misses"))


def _moved(before):
    """``(hits, misses)`` since a :func:`_counts` snapshot."""
    hits, misses = _counts()
    return hits - before[0], misses - before[1]


def _run_counter(source, backend, **kw):
    return run_uvm_test(
        source, make_hr_sequence(COUNTER), COUNTER.protocol,
        COUNTER.model(), COUNTER.compare_signals, top=COUNTER.top,
        backend=backend, **kw,
    )


def _run_comb(source=TWO_TOPS, seed=0, model=IncModel, signals=("y",),
              top="inc", backend="interp", protocol=COMB, **kw):
    return run_uvm_test(
        source, RandomSequence({"a": (0, 15)}, 16, seed=seed), protocol,
        model(), list(signals), top=top, backend=backend, **kw,
    )


_TXN_ID = re.compile(r"txn \d+")


def _verdict(result):
    """Everything a caller reads from a run, except the process-global
    transaction ids a fresh run draws anew."""
    return (
        result.ok, result.pass_rate, result.checked, result.error,
        [(m.time, m.signal, m.expected, m.actual, dict(m.inputs))
         for m in result.mismatches],
        _TXN_ID.sub("txn #", result.log.format()),
        copy.deepcopy(result.coverage_detail),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", sorted(SOURCES))
def test_hit_equals_a_fresh_run(label, backend):
    source = SOURCES[label]
    before = _counts()
    first = _run_counter(source, backend, code_coverage=True)
    hit = _run_counter(source, backend, code_coverage=True)
    assert _moved(before) == (1, 1)
    assert hit.mismatches == first.mismatches
    assert hit.log.format() == first.log.format()
    uvm_test._memo.clear()
    fresh = _run_counter(source, backend, code_coverage=True)
    assert _verdict(hit) == _verdict(fresh) == _verdict(first)
    expected_ok = label != "broken"
    assert hit.ok is expected_ok
    assert bool(hit.mismatches) is (label == "mutant")
    assert bool(hit.coverage_detail) is expected_ok


def test_hits_share_the_finished_simulator_and_trace():
    first = _run_counter(SOURCES["mutant"], "compiled")
    simulator = first.simulator
    state = (simulator.time, simulator.event_count)
    trace = {name: list(history) for name, history in first.trace.items()}
    hits = [_run_counter(SOURCES["mutant"], "compiled") for _ in range(2)]
    for hit in hits:
        assert hit is not first
        assert hit.simulator is simulator and hit.trace is first.trace
        assert (hit.simulator.time, hit.simulator.event_count) == state
        assert hit.trace == trace


def test_simulate_span_tagged_unless_bypassed():
    trace.reset()
    trace.enable(True)
    try:
        for kw in ({}, {}, {"record_ops": True}):
            _run_comb(**kw)
        spans = [s for s in trace.drain() if s["name"] == "simulate"]
    finally:
        trace.reset()
    assert [s["attrs"].get("memo") for s in spans] == ["miss", "hit", None]
    cycles = [s["attrs"]["cycles"] for s in spans]
    assert cycles[0] == cycles[1] == cycles[2] > 0


@pytest.mark.parametrize("field, value", [
    ("backend", "compiled"),
    ("seed", 1),
    ("top", "dec"),
    ("signals", ()),
    ("code_coverage", True),
    ("model", DecModel),
    ("protocol", DriveProtocol(clock=None, reset=None,
                               sample_after_edge=False,
                               default_inputs={"a": 3})),
])
def test_runs_that_differ_do_not_collide(field, value):
    base = _run_comb()
    before = _counts()
    other = _run_comb(**{field: value})
    assert _moved(before) == (0, 1)
    assert len(uvm_test._memo) == 2
    if field in ("top", "model"):
        assert base.pass_rate == 1.0 and other.pass_rate == 0.0
    if field == "signals":
        assert other.checked == base.checked and other.pass_rate == 1.0


def test_backend_is_keyed_by_canonical_name():
    with use_backend("interp"):
        _run_comb(backend=None)
    before = _counts()
    _run_comb(backend="interpreter")
    with use_backend("compiled"):
        _run_comb(backend=None)
    _run_comb(backend="compile")
    assert _moved(before) == (2, 1)


def test_caller_coverage_model_bypasses_and_is_sampled():
    before = _counts()
    models = [make_coverage_model(COUNTER) for _ in range(2)]
    details = [_run_counter(SOURCES["golden"], "interp",
                            coverage=model).coverage_detail
               for model in models]
    assert _moved(before) == (0, 0) and not uvm_test._memo
    assert models[0].coverage == models[1].coverage > 0
    assert details[0] == details[1] and details[0]["functional"]


def test_record_ops_bypasses():
    before = _counts()
    runs = [_run_counter(SOURCES["mutant"], "interp", record_ops=True)
            for _ in range(2)]
    assert _moved(before) == (0, 0) and not uvm_test._memo
    assert runs[0].ops and runs[0].ops == runs[1].ops
    assert runs[0].simulator is not runs[1].simulator


def test_coverage_driven_sequence_bypasses():
    sequence = make_hr_sequence(COUNTER, stimulus="coverage")
    assert sequence.key() is None
    before = _counts()
    for _ in range(2):
        run_uvm_test(SOURCES["golden"], sequence, COUNTER.protocol,
                     COUNTER.model(), COUNTER.compare_signals,
                     top=COUNTER.top)
    assert _moved(before) == (0, 0) and not uvm_test._memo


def test_results_do_not_share_mutable_parts():
    first = _run_counter(SOURCES["mutant"], "interp", code_coverage=True)
    verdict = _verdict(first)
    for _ in range(2):
        first.mismatches.clear()
        first.log.error(0, "TAMPER", "appended")
        first.log.entries.pop(0)
        first.coverage_detail["code"].clear()
        first.ops.append("tampered")
        hit = _run_counter(SOURCES["mutant"], "interp", code_coverage=True)
        assert _verdict(hit) == verdict and hit.ops == []
        first = hit


@pytest.mark.parametrize("exc", [XCheckDivergence("lockstep"),
                                 RecursionError("harness bug")])
def test_raised_exceptions_are_not_stored(monkeypatch, exc):
    def boom(self):
        raise exc

    monkeypatch.setattr(uvm_test.Environment, "run", boom)
    with pytest.raises(type(exc)):
        _run_comb()
    assert not uvm_test._memo
    monkeypatch.undo()
    before = _counts()
    assert _run_comb().pass_rate == 1.0
    assert _moved(before) == (0, 1)


def test_model_exception_is_not_stored():
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            _run_comb(model=CrashModel)
    assert not uvm_test._memo


def test_memo_is_a_bounded_lru():
    limit = uvm_test.MEMO_LIMIT
    for seed in range(limit):
        _run_comb(seed=seed)
    before = _counts()
    _run_comb(seed=0)  # now the most recently used
    _run_comb(seed=limit)
    assert _moved(before) == (1, 1)
    assert len(uvm_test._memo) == limit
    before = _counts()
    _run_comb(seed=0)
    assert _moved(before) == (1, 0)
    _run_comb(seed=1)
    assert _moved(before) == (1, 1)


def _unit_digests(cache_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((cache_dir / "units").iterdir())}


def test_campaign_records_do_not_depend_on_the_memo(tmp_path, monkeypatch):
    instances = generate_dataset(seed=0, per_operator=1, target=None,
                                 modules=["counter_12"])
    units = expand_grid(instances[:4], ("uvllm", "meic"), attempts=1)
    digests = []
    with monkeypatch.context() as off:
        off.setattr(uvm_test._memo, "limit", 0)
        run_units(list(units), jobs=1, cache_dir=str(tmp_path / "off"))
        digests.append(_unit_digests(tmp_path / "off"))
    parser._memo.clear()
    linter._memo.clear()
    uvm_test._memo.clear()
    for label in ("cold", "warm"):
        before = _counts()
        run_units(list(units), jobs=1, cache_dir=str(tmp_path / label))
        assert _moved(before)[0] > 0
        digests.append(_unit_digests(tmp_path / label))
    assert digests[0] and digests[0] == digests[1] == digests[2]


# -- the key's assumptions ---------------------------------------------------


def _stream(sequence):
    return [(txn.fields, txn.hold_cycles, txn.meta) for txn in sequence]


def _expected_outputs(model, stream):
    return [dict(model.step(dict(fields), reset=bool(meta.get("reset"))))
            for fields, hold_cycles, meta in stream
            for _ in range(hold_cycles)]


@pytest.mark.parametrize("name", module_names())
def test_reference_models_are_pure(name):
    bench = get_module(name)
    for sequence in (make_hr_sequence(bench), make_fr_sequence(bench)):
        stream = _stream(sequence)
        first, second = bench.model(), bench.model()
        assert type(first) is type(second)
        expected = _expected_outputs(first, stream)
        assert _expected_outputs(second, stream) == expected
        first.reset()
        assert _expected_outputs(first, stream) == expected


SUITES = {
    "hr": lambda bench, seed: make_hr_sequence(bench, seed=seed),
    "fr": lambda bench, seed: make_fr_sequence(bench, seed=1000 + seed),
    "simple": lambda bench, seed: SimpleTestbench(
        bench, seed=42 + seed).sequence(),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_equal_sequence_keys_give_equal_streams(suite):
    build = SUITES[suite]
    streams = {}
    for bench in all_modules():
        keys = []
        for seed in (0, 1):
            first, second = build(bench, seed), build(bench, seed)
            key = first.key()
            assert key is not None and second.key() == key
            stream = _stream(first)
            assert _stream(second) == stream
            assert streams.setdefault(key, stream) == stream
            keys.append(key)
        assert keys[0] != keys[1], bench.name


def test_sequence_key_distinguishes_stream_shapes():
    def key(ranges, count=8, **kw):
        return RandomSequence(ranges, count, **kw).key()

    ab = {"a": (0, 7), "b": (0, 7)}
    ba = {"b": (0, 7), "a": (0, 7)}
    assert key(ab) == key(dict(ab)) and key(ab) != key(ba)
    assert _stream(RandomSequence(ab, 8)) != _stream(RandomSequence(ba, 8))
    assert key({"a": (0, 7)}) != key({"a": [0, 7]})
    assert _stream(RandomSequence({"a": (0, 7)}, 8)) != \
        _stream(RandomSequence({"a": [0, 7]}, 8))
    for change in ({"count": 9}, {"seed": 1}, {"corner_weight": 0.5},
                   {"hold_cycles": 2}):
        assert key(ab, **change) != key(ab)
    assert ResetSequence(glitch=True).key() != ResetSequence().key()

    def directed(**kw):
        txn = dict(fields={"a": 1}, hold_cycles=1, meta=None)
        txn.update(kw)
        return DirectedSequence([Transaction(**txn)]).key()

    assert directed() == directed()
    for change in ({"fields": {"a": 2}}, {"hold_cycles": 2},
                   {"meta": {"reset": True}}):
        assert directed(**change) != directed()
    coverage = make_hr_sequence(COUNTER, stimulus="coverage")
    assert coverage.key() is None
    assert ConcatSequence(ResetSequence(), coverage).key() is None
