"""The driver: pin-level stimulus application."""

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class DriveProtocol:
    """How transactions map onto DUT pins.

    - ``clock`` — clock pin name, or ``None`` for pure combinational DUTs;
    - ``reset`` — reset pin name (``None`` if the DUT has no reset);
    - ``reset_active_low`` — polarity of the reset pin;
    - ``sample_after_edge`` — sample outputs after the clock edge
      (registered outputs) vs after input settle (combinational);
    - ``default_inputs`` — values for pins a transaction leaves unset.
    """

    clock: Optional[str] = "clk"
    reset: Optional[str] = "rst_n"
    reset_active_low: bool = True
    sample_after_edge: bool = True
    default_inputs: dict = field(default_factory=dict)

    @property
    def is_clocked(self):
        return self.clock is not None

    def reset_assert_value(self):
        return 0 if self.reset_active_low else 1

    def reset_release_value(self):
        return 1 if self.reset_active_low else 0


class Driver:
    """Translates transactions into simulator pin activity.

    For clocked DUTs each transaction occupies ``hold_cycles`` clock
    cycles: inputs are applied, the clock rises, and the monitor samples
    after the edge.  For combinational DUTs inputs are applied and the
    design settles before sampling.
    """

    def __init__(self, simulator, protocol):
        self.sim = simulator
        self.protocol = protocol

    def apply_reset(self, cycles=2):
        """Pulse reset before a test (and settle the DUT)."""
        protocol = self.protocol
        if protocol.reset is None:
            return
        for name, value in protocol.default_inputs.items():
            self.sim.poke(name, value)
        if protocol.is_clocked:
            self.sim.poke(protocol.clock, 0)
        self.sim.set(protocol.reset, protocol.reset_assert_value())
        if protocol.is_clocked:
            self.sim.tick(protocol.clock, cycles=cycles)
        else:
            self.sim.step_time(10 * cycles)
        self.sim.set(protocol.reset, protocol.reset_release_value())

    def drive(self, txn, sample_hook):
        """Drive one transaction; call ``sample_hook(txn, cycle)`` at each
        sample point."""
        protocol = self.protocol
        if txn.meta.get("reset_glitch") and protocol.reset is not None:
            # Asynchronous reset pulse with NO clock edge: only a true
            # async reset reacts — this is what exposes wrong-sensitivity
            # defects (a synchronous-ified reset never sees the pulse).
            self.sim.set(protocol.reset, protocol.reset_assert_value())
            self.sim.step_time(10)
            sample_hook(txn, 0)
            self.sim.set(protocol.reset, protocol.reset_release_value())
            return
        in_reset = bool(txn.meta.get("reset"))
        if protocol.reset is not None:
            value = (
                protocol.reset_assert_value() if in_reset
                else protocol.reset_release_value()
            )
            self.sim.poke(protocol.reset, value)
        for name, value in protocol.default_inputs.items():
            if name not in txn:
                self.sim.poke(name, value)
        for name, value in txn.items():
            self.sim.poke(name, value)
        self.sim.settle()

        if not protocol.is_clocked:
            self.sim.step_time(10)
            sample_hook(txn, 0)
            return

        for cycle in range(txn.hold_cycles):
            self.sim.set(protocol.clock, 1)
            self.sim.step_time(5)
            if protocol.sample_after_edge:
                sample_hook(txn, cycle)
            self.sim.set(protocol.clock, 0)
            self.sim.step_time(5)
            if not protocol.sample_after_edge:
                sample_hook(txn, cycle)
