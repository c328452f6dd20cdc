"""Top-level UVM test execution.

``run_uvm_test`` is UVLLM's "UVM Processing" stage (Fig. 2, step 2): it
elaborates the DUT, runs the environment, and returns a
:class:`TestResult` carrying the pass rate (the Score Reg. input), the
UVM log, the mismatch records, and the waveform trace that the
localization engine slices.
"""

import copy
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.memo import LRUMemo
from repro.obs import trace
from repro.obs.metrics import GLOBAL as _metrics
from repro.sim.backend import (
    canonical_backend,
    get_default_backend,
    make_simulator,
)
from repro.sim.compile.xcheck import XCheckDivergence
from repro.sim.engine import SimulationError, Simulator
from repro.hdl.errors import HdlError
from repro.uvm.env import Environment
from repro.uvm.log import UVMLog
from repro.uvm.scoreboard import MismatchRecord

#: Per-process UVM-run memo bound (finished runs retained at once).
#: A stored run keeps its trace and log (25-467 KiB on the 27 benches)
#: and its simulator (4-69 KiB) alive.  Repeats come close together:
#: on the campaign benchmark 8 entries answer 531 of ``paper-quick``'s
#: 1252 runs for 6.7% more peak RSS; 64 would answer 637 for 20% more
#: (39% on ``functional-interp``, past the benchmark's bound).
MEMO_LIMIT = 8

#: Run key (see :meth:`UVMTest._memo_key`) -> the finished run's
#: :class:`TestResult`, which never leaves the memo: callers get copies.
_memo = LRUMemo(MEMO_LIMIT)


@dataclass
class TestResult:
    """Outcome of one UVM run against one DUT source."""

    ok: bool                     # the run executed (not: the DUT passed)
    pass_rate: float = 0.0
    mismatches: List[MismatchRecord] = field(default_factory=list)
    log: UVMLog = field(default_factory=UVMLog)
    coverage: float = 0.0
    trace: dict = field(default_factory=dict)
    simulator: Optional[Simulator] = None
    error: str = ""
    checked: int = 0
    #: Serialized coverage counters for the coverage database:
    #: ``{"functional": CoverModel.to_dict() | None,
    #:    "code": CodeCoverage.to_dict() | None}``.
    coverage_detail: dict = field(default_factory=dict)
    #: Pin-level op list recorded by a ``record_ops=True`` run — the
    #: replayable stimulus a forensic debug bundle archives.  Never
    #: part of campaign record bytes.
    ops: list = field(default_factory=list)

    @property
    def all_passed(self):
        return self.ok and self.checked > 0 and not self.mismatches

    @property
    def mismatch_signals(self):
        seen = []
        for record in self.mismatches:
            if record.signal not in seen:
                seen.append(record.signal)
        return seen


class UVMTest:
    """A configured test: DUT source + sequence + protocol + ref model.

    ``backend`` selects the simulation backend
    (``interp``/``compiled``/``xcheck``); ``None`` uses the process
    default (see :mod:`repro.sim.backend`), which campaign work units
    scope per unit.

    ``coverage`` overrides the environment's default flat covergroup
    with a rich :class:`~repro.cover.model.CoverModel` (crosses,
    transitions, probes); ``code_coverage=True`` additionally attaches
    a structural :class:`~repro.cover.code.CodeCoverage` collector to
    the simulator.  Both serialize into ``TestResult.coverage_detail``
    for the coverage database.
    """

    def __init__(self, source, sequence, protocol, reference_model,
                 compare_signals, top=None, backend=None, coverage=None,
                 code_coverage=False, record_ops=False):
        self.source = source
        self.sequence = sequence
        self.protocol = protocol
        self.reference_model = reference_model
        self.compare_signals = list(compare_signals)
        self.top = top
        self.backend = backend
        self.coverage = coverage
        self.code_coverage = code_coverage
        # Forensic capture: wrap the simulator in a recording proxy so
        # the driven pin-op sequence comes back in TestResult.ops as a
        # replayable script (off in the hot path).
        self.record_ops = record_ops

    def _memo_key(self):
        """The content key of this run, or ``None`` when it bypasses the
        memo: a caller's ``coverage`` model is an output of the run,
        ``record_ops`` needs a live recording, and a sequence without a
        :meth:`~repro.uvm.sequence.Sequence.key` may not repeat.

        The reference model is keyed by its class: models take no
        arguments and the scoreboard resets one before each run.
        """
        if self.coverage is not None or self.record_ops:
            return None
        sequence_key = self.sequence.key()
        if sequence_key is None:
            return None
        backend = canonical_backend(self.backend or get_default_backend())
        return (self.source, self.top, backend, sequence_key,
                repr(self.protocol), type(self.reference_model),
                tuple(self.compare_signals), self.code_coverage)

    def run(self):
        """Execute the test, or replay an identical earlier run of this
        process.  Results of one run share its finished simulator,
        trace, mismatch records and log entries, which no caller may
        drive or write; each gets its own lists, log and coverage
        detail."""
        with trace.span("simulate", cat="uvm") as sp:
            key = self._memo_key()
            stored = None if key is None else _memo.lookup(key)
            if stored is not None:
                sp.set(memo="hit")
                _metrics.inc("uvm.memo_hits")
                result = _copy_result(stored)
            else:
                result = self._execute()
                if key is not None:
                    sp.set(memo="miss")
                    _metrics.inc("uvm.memo_misses")
                    _memo.store(key, result)
                    result = _copy_result(result)
            simulator = result.simulator
            if simulator is not None:
                design = getattr(simulator, "design", None)
                sp.set(module=getattr(design, "top_name", "?"),
                       cycles=int(getattr(simulator, "time", 0)) // 10,
                       events=int(getattr(simulator, "event_count", 0)),
                       ok=result.ok)
        return result

    def _execute(self):
        log = UVMLog()
        try:
            simulator = make_simulator(
                self.source, backend=self.backend, top=self.top,
                code_coverage=self.code_coverage,
            )
        except XCheckDivergence:
            raise  # a backend bug, not a DUT failure: surface loudly
        except (HdlError, SimulationError) as exc:
            log.error(0, "ELAB", f"elaboration failed: {exc}")
            # An initial-time SimulationError (combinational loop,
            # runaway deltas) still recorded a partial trace: surface
            # the half-constructed simulator so `simulate --vcd` can
            # flush the waveform up to the abort point.
            partial = getattr(exc, "partial_simulator", None)
            return TestResult(
                ok=False, log=log, error=str(exc),
                trace=getattr(partial, "trace", None) or {},
                simulator=partial,
            )
        if self.record_ops:
            from repro.forensics.replay import RecordingSimulator

            simulator = RecordingSimulator(simulator)
        env = Environment(
            simulator, self.sequence, self.protocol, self.reference_model,
            self.compare_signals, coverage=self.coverage, log=log,
        )
        try:
            scoreboard = env.run()
        except XCheckDivergence:
            raise  # ditto: lockstep divergence must never be swallowed
        except (SimulationError, HdlError) as exc:
            log.error(simulator.time, "SIM", f"simulation failed: {exc}")
            return TestResult(
                ok=False, log=log, error=str(exc),
                trace=simulator.trace, simulator=simulator,
                ops=list(getattr(simulator, "ops", ())),
            )
        return TestResult(
            ok=True,
            pass_rate=scoreboard.pass_rate,
            mismatches=list(scoreboard.mismatches),
            log=log,
            coverage=env.coverage.coverage,
            trace=simulator.trace,
            simulator=simulator,
            checked=scoreboard.checked,
            coverage_detail=self._coverage_detail(env, simulator),
            ops=list(getattr(simulator, "ops", ())),
        )

    @staticmethod
    def _coverage_detail(env, simulator):
        detail = {}
        if hasattr(env.coverage, "to_dict"):
            detail["functional"] = env.coverage.to_dict()
        code_coverage = getattr(simulator, "code_coverage", None)
        if code_coverage is not None:
            detail["code"] = code_coverage.finalize(simulator).to_dict()
        return detail


def _copy_result(result):
    """``result`` with its own mismatch list, log, coverage detail and
    op list.  The simulator, trace, mismatch records and log entries
    stay shared: no caller writes them."""
    return replace(
        result,
        mismatches=list(result.mismatches),
        log=UVMLog(list(result.log.entries)),
        coverage_detail=copy.deepcopy(result.coverage_detail),
        ops=list(result.ops),
    )


def run_uvm_test(source, sequence, protocol, reference_model,
                 compare_signals, top=None, backend=None, coverage=None,
                 code_coverage=False, record_ops=False):
    """One-shot convenience wrapper around :class:`UVMTest`."""
    test = UVMTest(
        source, sequence, protocol, reference_model, compare_signals, top,
        backend=backend, coverage=coverage, code_coverage=code_coverage,
        record_ops=record_ops,
    )
    return test.run()
