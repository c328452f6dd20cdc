"""The monitor: output sampling."""


class Monitor:
    """Samples a set of DUT output signals through the simulator.

    Produces ``(time, {signal: Value})`` observations; the scoreboard
    consumes these and the raw values also feed functional coverage.

    ``probes`` names additional DUT-internal signals (e.g. an FSM
    state register) observed for coverage only: they ride along in
    every observation, and the scoreboard ignores them because it
    only compares its ``compare_signals``.
    """

    def __init__(self, simulator, signals, probes=()):
        self.sim = simulator
        self.signals = list(signals)
        self.probes = list(probes)

    def sample(self):
        """Take one observation of all monitored signals."""
        values = {name: self.sim.get(name) for name in self.signals}
        for name in self.probes:
            if name not in values:
                values[name] = self.sim.get(name)
        return self.sim.time, values
