"""The environment: agent + scoreboard + coverage wiring."""

from repro.cover.model import CoverModel, CoverPoint
from repro.uvm.agent import Agent
from repro.uvm.scoreboard import Scoreboard


class Environment:
    """Builds and connects all verification components for one DUT run.

    ``coverage`` is a :class:`~repro.cover.model.CoverModel`; without
    one the environment builds the default model, an auto-binned
    :class:`~repro.cover.model.CoverPoint` per DUT input other than
    clock and reset, so its coverage is the mean over those points.
    The model's ``probes`` (DUT-internal signals such as an FSM state
    register) are monitored and folded into every sample, which is how
    transition coverage observes state the transaction fields never
    carry.  If the simulator carries a code-coverage collector
    (``make_simulator(code_coverage=True)``), each monitor sample also
    triggers its stable-point comb replay.
    """

    def __init__(self, simulator, sequence, protocol, reference_model,
                 compare_signals, coverage=None, log=None):
        self.sim = simulator
        self.agent = Agent(simulator, sequence, protocol, compare_signals)
        self.scoreboard = Scoreboard(reference_model, compare_signals, log)
        if coverage is None:
            coverage = CoverModel(points=[
                CoverPoint.auto(name, simulator.signal_width(name))
                for name in simulator.input_names()
                if name not in (protocol.clock, protocol.reset)
            ])
        self.coverage = coverage
        self.agent.monitor.probes = list(coverage.probes)

    def run(self):
        """Execute the sequence; returns the scoreboard."""
        self.scoreboard.reset()
        self.coverage.reset_trackers()
        code_coverage = getattr(self.sim, "code_coverage", None)

        def per_sample(txn, cycle, time, observed):
            self.scoreboard.check(txn, cycle, time, observed)
            sample_values = dict(observed)
            sample_values.update(txn.fields)
            self.coverage.sample(sample_values)
            if code_coverage is not None:
                code_coverage.sample_stable()

        self.agent.run(per_sample)
        return self.scoreboard
