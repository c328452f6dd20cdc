"""The sequencer: arbitration between sequences and the driver."""


class Sequencer:
    """Feeds transactions from a sequence to the driver.

    In SystemVerilog UVM the sequencer arbitrates between competing
    sequences; here a single in-order stream suffices, but the component
    is kept so the agent wiring matches Fig. 3.  It keeps no record of
    the transactions it hands out: a run's stimulus is its sequence,
    and forensics records pin-level ops with ``record_ops=True``.
    """

    def __init__(self, sequence):
        self.sequence = sequence

    def item_stream(self):
        """Yield the sequence's transactions in order."""
        yield from self.sequence
