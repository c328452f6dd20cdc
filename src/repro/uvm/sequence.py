"""Sequences: transaction generators.

The paper's "flexible test modes" come from composing these: a reset
burst, directed corner cases, then constrained-random traffic.  All
randomness is seeded so every UVLLM run is reproducible.
"""

import random

from repro.uvm.transaction import Transaction


class Sequence:
    """Base sequence: iterable of :class:`Transaction`."""

    name = "sequence"

    def items(self):
        """Yield transactions.  Subclasses override."""
        raise NotImplementedError

    def key(self):
        """A hashable value equal for two sequences only when they yield
        the same transactions, or ``None`` (never memoized).  Built from
        seeds and parameters, never by generating the stream."""
        return None

    def __iter__(self):
        return iter(self.items())


class DirectedSequence(Sequence):
    """A fixed, hand-written list of transactions (directed test)."""

    name = "directed"

    def __init__(self, transactions):
        self.transactions = list(transactions)

    def items(self):
        for txn in self.transactions:
            yield txn.copy()

    def key(self):
        return (type(self), tuple(
            (repr(txn.fields), txn.hold_cycles, repr(txn.meta))
            for txn in self.transactions
        ))


class RandomSequence(Sequence):
    """Constrained-random stimulus.

    ``field_ranges`` maps input names to ``(lo, hi)`` inclusive integer
    range *tuples*, or a *list* of explicit choices.

    ``corner_weight`` contract: per field, per transaction, with
    probability ``corner_weight`` the draw is a *corner* draw instead
    of a uniform one.  For a ``(lo, hi)`` range the corners are ``lo``
    and ``hi``; for an explicit choice list they are its first and
    last element (list order is the author's corner ordering, so e.g.
    a mode list can place its rare modes at the ends).  Single-element
    choice lists have no corner roll.  Real verification environments
    bias toward corners because that is where off-by-one and
    saturation defects live.
    """

    name = "random"

    def __init__(self, field_ranges, count, seed=0, corner_weight=0.15,
                 hold_cycles=1):
        self.field_ranges = dict(field_ranges)
        self.count = count
        self.seed = seed
        self.corner_weight = corner_weight
        self.hold_cycles = hold_cycles

    def items(self):
        rng = random.Random(self.seed)
        for _ in range(self.count):
            fields = {}
            for name, spec in self.field_ranges.items():
                if isinstance(spec, tuple) and len(spec) == 2 and \
                        all(isinstance(v, int) for v in spec):
                    lo, hi = spec
                    if rng.random() < self.corner_weight:
                        fields[name] = rng.choice([lo, hi])
                    else:
                        fields[name] = rng.randint(lo, hi)
                else:
                    choices = list(spec)
                    if len(choices) > 1 and \
                            rng.random() < self.corner_weight:
                        fields[name] = rng.choice(
                            [choices[0], choices[-1]]
                        )
                    else:
                        fields[name] = rng.choice(choices)
            yield Transaction(fields, hold_cycles=self.hold_cycles)

    def key(self):
        # Draws follow ``field_ranges`` order, and ``repr`` tells a
        # ``(lo, hi)`` range tuple from a choice list.
        ranges = tuple((name, repr(spec))
                       for name, spec in self.field_ranges.items())
        return (type(self), ranges, self.count, self.seed,
                self.corner_weight, self.hold_cycles)


class ResetSequence(Sequence):
    """Holds reset asserted for ``cycles`` transactions.

    The driver recognises the ``reset`` meta flag and asserts the DUT's
    reset pin; the scoreboard still checks outputs so reset-polarity
    bugs (a classic "value misuse") are caught.
    """

    name = "reset"

    def __init__(self, cycles=2, fields=None, glitch=False):
        self.cycles = cycles
        self.fields = dict(fields or {})
        self.glitch = glitch

    def items(self):
        for _ in range(self.cycles):
            meta = {"reset": True}
            if self.glitch:
                meta["reset_glitch"] = True
            yield Transaction(self.fields, meta=meta)

    def key(self):
        return (type(self), self.cycles, repr(self.fields), self.glitch)


class ConcatSequence(Sequence):
    """Runs several sequences back to back."""

    name = "concat"

    def __init__(self, *sequences):
        self.sequences = list(sequences)

    def items(self):
        for sequence in self.sequences:
            yield from sequence.items()

    def key(self):
        keys = tuple(sequence.key() for sequence in self.sequences)
        if None in keys:
            return None
        return (type(self), keys)
