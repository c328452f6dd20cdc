"""Hit Rate and Fix Rate (paper Eqs. 1 and 2).

- **HR** — the repaired code passes every test case of the repair-time
  suite (the method's own acceptance criterion).
- **FR** — the repaired code survives *independent expert validation*;
  mechanized here as the extended held-out suite (more vectors,
  different seeds, corner-biased batches, mid-stream resets).  A repair
  that overfits the repair-time suite inflates HR but not FR.
"""

from dataclasses import dataclass


@dataclass
class RateSummary:
    """Aggregated HR/FR over a set of instances."""

    total: int = 0
    hits: int = 0
    fixes: int = 0

    def add(self, hit, fixed):
        self.total += 1
        self.hits += 1 if hit else 0
        self.fixes += 1 if fixed else 0

    @property
    def hr(self):
        return 100.0 * self.hits / self.total if self.total else 0.0

    @property
    def fr(self):
        return 100.0 * self.fixes / self.total if self.total else 0.0

    @property
    def gap(self):
        """The HR-FR deviation (shaded regions of Figs. 5-6)."""
        return self.hr - self.fr

    def merge(self, other):
        self.total += other.total
        self.hits += other.hits
        self.fixes += other.fixes
        return self


def hit_rate(outcomes):
    """HR over an iterable of objects with a boolean ``hit``."""
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    return 100.0 * sum(1 for o in outcomes if o.hit) / len(outcomes)


def fix_rate(outcomes):
    """FR over an iterable of objects with a boolean ``fixed``."""
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    return 100.0 * sum(1 for o in outcomes if o.fixed) / len(outcomes)
