"""The scoreboard: reference-vs-DUT comparison and the pass-rate score.

The pass rate this component computes is the quantity UVLLM's rollback
mechanism registers after every iteration ("Score Reg." in Fig. 2): a
candidate repair that lowers the score is reverted and recorded as a
damage repair.
"""

from dataclasses import dataclass

from repro.sim.values import Value
from repro.uvm.log import UVMLog


@dataclass
class MismatchRecord:
    """One signal-level mismatch (feeds Algorithm 2)."""

    time: int
    txn_id: int
    signal: str
    expected: Value
    actual: Value
    inputs: dict


class Scoreboard:
    """Compares monitored outputs against the reference model.

    ``compare_signals`` restricts checking to specific outputs (some
    modules expose debug outputs the spec doesn't constrain).  x-valued
    expectations (``None`` from the reference model) are don't-cares.
    """

    def __init__(self, reference_model, compare_signals, log=None):
        self.model = reference_model
        self.compare_signals = list(compare_signals)
        self.log = log if log is not None else UVMLog()
        self.checked = 0
        self.passed = 0
        self.mismatches = []

    def reset(self):
        if hasattr(self.model, "reset"):
            self.model.reset()

    def check(self, txn, cycle, time, observed):
        """Score one sample point.

        The reference model's ``step(inputs, cycle)`` returns the
        expected output dict for this cycle; ``None`` values (or missing
        keys) are don't-cares, matching how UVM scoreboards skip
        unpredicted fields.
        """
        in_reset = bool(txn.meta.get("reset"))
        expected = self.model.step(dict(txn.fields), reset=in_reset)
        self.checked += 1
        txn_pass = True
        for signal in self.compare_signals:
            want = expected.get(signal)
            if want is None:
                continue
            got = observed.get(signal)
            if got is None:
                continue
            if isinstance(want, Value):
                want_value = want
            else:
                # Keep the model's full-precision expectation: a DUT
                # whose output port was narrowed by a width bug still
                # logs the untruncated expected value, which is what
                # lets the localization engine spot truncation.
                want_width = max(got.width, max(1, int(want).bit_length()))
                want_value = Value(int(want), want_width)
            # Compare zero-extended at the wider width: an expected
            # value that does not fit the DUT's (possibly narrowed)
            # port IS a mismatch, not a don't-care.
            if got.has_x or got.bits != want_value.bits:
                txn_pass = False
                self.mismatches.append(
                    MismatchRecord(
                        time=time,
                        txn_id=txn.txn_id,
                        signal=signal,
                        expected=want_value,
                        actual=got,
                        inputs=dict(txn.fields),
                    )
                )
                self.log.error(
                    time, "SCOREBOARD",
                    f"mismatch signal '{signal}' expected "
                    f"{want_value.to_display()} actual "
                    f"{got.to_display()}",
                    signal=signal,
                    expected=want_value.to_display(),
                    actual=got.to_display(),
                    txn_id=txn.txn_id,
                )
        if txn_pass:
            self.passed += 1
            self.log.info(
                time, "SCOREBOARD", f"txn {txn.txn_id} PASS",
                txn_id=txn.txn_id,
            )

    @property
    def pass_rate(self):
        """Fraction of sample points with all signals matching."""
        if self.checked == 0:
            return 0.0
        return self.passed / self.checked

    @property
    def mismatch_signals(self):
        """Distinct mismatching signal names, in first-seen order."""
        seen = []
        for record in self.mismatches:
            if record.signal not in seen:
                seen.append(record.signal)
        return seen
