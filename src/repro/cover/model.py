"""Functional coverage: points, crosses, transitions, probes.

The one functional-coverage model of the framework — the default
covergroup every UVM environment builds and the campaign fragments
the coverage database merges alike:

- :class:`CoverPoint` — disjoint range or value bins over one
  signal's sampled values;
- :class:`Cross` — the cartesian product of several coverpoints'
  bins; a cross bin is hit when one sample lands every member point
  in the matching bin simultaneously;
- :class:`TransitionPoint` — value *sequences* over successive
  samples of one signal (FSM arcs, handshake orders).  An x-state
  sample breaks the chain (an unknown cannot witness a transition);
- :class:`CoverModel` — a named covergroup bundling points, crosses
  and transitions, with hole reports (:mod:`repro.cover.holes`) and a
  JSON-pure serialization the coverage database
  (:mod:`repro.cover.db`) union-merges.

``probes`` names DUT-internal signals (e.g. an FSM state register)
the environment should read from the simulator and merge into every
sample — how transition coverage sees state the transaction fields
never carry.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Separator for cross-bin keys in serialized form ("2|0|1").
_KEY_SEP = "|"


def _known_int(value):
    """Normalize a sampled value to an int, or ``None`` for x-state."""
    if value is None or type(value) is int:
        return value
    if hasattr(value, "has_x"):
        if value.has_x:
            return None
        return value.to_int()
    return int(value)


@dataclass
class CoverPoint:
    """Bins over one signal's sampled values."""

    signal: str
    bins: List[Tuple[int, int]]  # inclusive (lo, hi) ranges
    hits: Dict[int, int] = field(default_factory=dict)

    @staticmethod
    def auto(signal, width, bin_count=4):
        """Quartile bins over the signal's value range + corner bins.

        Bins are pairwise disjoint: the first/last quartiles are
        trimmed so the dedicated ``(0, 0)`` / ``(top, top)`` corner
        bins never overlap them (an overlapping sample used to
        increment several bins at once and inflate ``covered``).
        Corner bins are still added whenever ``top >= bin_count``;
        below that every value already gets its own bin.
        """
        top = (1 << width) - 1
        if top < bin_count:
            bins = [(v, v) for v in range(top + 1)]
        else:
            bins = CoverPoint.range_bins(0, top, bin_count)
        return CoverPoint(signal=signal, bins=bins)

    @staticmethod
    def range_bins(lo, hi, bin_count=4):
        """Disjoint equal-ish bins over ``[lo, hi]`` plus corner bins.

        The interior bins are trimmed by one value at each end so the
        single-value corner bins stay disjoint; degenerate (empty)
        interior bins are dropped.
        """
        if hi <= lo:
            return [(lo, lo)]
        span = hi - lo + 1
        if span <= bin_count + 2:
            return [(v, v) for v in range(lo, hi + 1)]
        step = span // bin_count
        bins = []
        for i in range(bin_count):
            b_lo = lo + i * step
            b_hi = hi if i == bin_count - 1 else lo + (i + 1) * step - 1
            if i == 0:
                b_lo = max(b_lo, lo + 1)
            if i == bin_count - 1:
                b_hi = min(b_hi, hi - 1)
            if b_lo <= b_hi:
                bins.append((b_lo, b_hi))
        return [(lo, lo)] + bins + [(hi, hi)]

    def sample(self, value):
        """Bin one int-or-Value sample; returns the bin index hit, or
        ``None`` for a missing, x-state or out-of-range value."""
        value = _known_int(value)
        if value is None:
            return None
        index = self.bin_index(value)
        if index is not None:
            self.hits[index] = self.hits.get(index, 0) + 1
        return index

    def bin_index(self, value):
        """Index of the (first) bin containing ``value``, or ``None``."""
        for index, (lo, hi) in enumerate(self.bins):
            if lo <= value <= hi:
                return index
        return None

    @property
    def covered(self):
        return len(self.hits)

    @property
    def total(self):
        return len(self.bins)

    @property
    def coverage(self):
        if not self.bins:
            return 1.0
        return self.covered / self.total


@dataclass
class Cross:
    """Cross coverage over two or more member coverpoints.

    A cross bin is a tuple of member bin indexes; it is hit when a
    single sample bins every member simultaneously.  ``total`` is the
    full cartesian product — crosses are deliberately the hardest
    bins to close, which is what makes them informative.
    """

    name: str
    points: List[CoverPoint]
    hits: Dict[Tuple[int, ...], int] = field(default_factory=dict)

    def sample(self, indexes):
        """Record one sample given ``{signal: bin_index}`` for this
        sample; returns the cross key hit, or ``None``."""
        key = []
        for point in self.points:
            index = indexes.get(point.signal)
            if index is None:
                return None
            key.append(index)
        key = tuple(key)
        self.hits[key] = self.hits.get(key, 0) + 1
        return key

    @property
    def total(self):
        product = 1
        for point in self.points:
            product *= max(1, len(point.bins))
        return product

    @property
    def covered(self):
        return len(self.hits)

    @property
    def coverage(self):
        return self.covered / self.total if self.total else 1.0

    def bin_values(self, key):
        """The ``{signal: (lo, hi)}`` ranges a cross key stands for."""
        return {
            point.signal: point.bins[index]
            for point, index in zip(self.points, key)
        }

    def iter_keys(self):
        """All cross keys in deterministic (row-major) order."""
        def rec(prefix, rest):
            if not rest:
                yield tuple(prefix)
                return
            for index in range(len(rest[0].bins)):
                yield from rec(prefix + [index], rest[1:])

        yield from rec([], self.points)


@dataclass
class TransitionPoint:
    """Transition bins: value sequences over successive samples.

    ``seqs`` is a list of value tuples; a bin is hit whenever the
    last ``len(seq)`` known samples of ``signal`` equal the sequence.
    The tracker resets on an x-state sample — four-state semantics:
    an unknown cannot witness a transition.
    """

    signal: str
    seqs: List[Tuple[int, ...]]
    name: Optional[str] = None
    hits: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.name is None:
            self.name = f"{self.signal}_trans"
        self._history = []
        self._depth = max((len(s) for s in self.seqs), default=1)

    def sample(self, value):
        """Feed one sample; returns the list of bin indexes hit."""
        value = _known_int(value)
        if value is None:
            self._history = []
            return []
        self._history.append(value)
        if len(self._history) > self._depth:
            del self._history[: len(self._history) - self._depth]
        hit = []
        for index, seq in enumerate(self.seqs):
            n = len(seq)
            if n <= len(self._history) and \
                    tuple(self._history[-n:]) == tuple(seq):
                self.hits[index] = self.hits.get(index, 0) + 1
                hit.append(index)
        return hit

    def reset_tracker(self):
        """Forget sample history (new stimulus stream), keep hits."""
        self._history = []

    @property
    def total(self):
        return len(self.seqs)

    @property
    def covered(self):
        return len(self.hits)

    @property
    def coverage(self):
        return self.covered / self.total if self.total else 1.0


class CoverModel:
    """A named covergroup: points + crosses + transitions + probes.

    The environment calls ``sample({signal: value})`` per monitor
    observation and reads ``coverage``/``report()``.  ``sample``
    returns the number of *newly covered* bins (first hits), which the
    coverage-driven stimulus engine uses as its reward signal.
    ``coverage`` is the mean over items (every point, cross and
    transition counts once), so a model of points alone is the mean
    over its points.
    """

    def __init__(self, name="cover", points=None, crosses=None,
                 transitions=None, probes=None):
        self.name = name
        self.points = list(points or [])
        self.crosses = list(crosses or [])
        self.transitions = list(transitions or [])
        self.probes = list(probes or [])

    # -- construction --------------------------------------------------------

    def add_cross(self, *points, name=None):
        if name is None:
            name = "x".join(p.signal for p in points)
        cross = Cross(name=name, points=list(points))
        self.crosses.append(cross)
        return cross

    def add_transitions(self, signal, seqs, name=None):
        point = TransitionPoint(signal=signal,
                                seqs=[tuple(s) for s in seqs], name=name)
        self.transitions.append(point)
        return point

    def point(self, signal):
        for point in self.points:
            if point.signal == signal:
                return point
        return None

    # -- sampling ------------------------------------------------------------

    def sample(self, values):
        """Sample everything from a ``{signal: int-or-Value}`` dict.

        Returns the count of bins covered for the first time by this
        sample (points + crosses + transitions).
        """
        new = 0
        indexes = {}
        for point in self.points:
            before = len(point.hits)
            index = point.sample(values.get(point.signal))
            if index is not None:
                new += len(point.hits) - before
                indexes[point.signal] = index
        for cross in self.crosses:
            before = cross.covered
            cross.sample(indexes)
            new += cross.covered - before
        for trans in self.transitions:
            if trans.signal not in values:
                continue
            before = trans.covered
            trans.sample(values.get(trans.signal))
            new += trans.covered - before
        return new

    def reset_trackers(self):
        """Reset transition history (hits survive) — call between
        independent stimulus streams."""
        for trans in self.transitions:
            trans.reset_tracker()

    # -- aggregation ---------------------------------------------------------

    def _items(self):
        return list(self.points) + list(self.crosses) + \
            list(self.transitions)

    @property
    def coverage(self):
        items = self._items()
        if not items:
            return 1.0
        return sum(i.coverage for i in items) / len(items)

    def bin_counts(self):
        """``(covered, total)`` bins over every point, cross and
        transition."""
        items = self._items()
        return (sum(i.covered for i in items),
                sum(i.total for i in items))

    def report(self):
        lines = [f"covergroup {self.name}:"]
        for point in self.points:
            lines.append(
                f"  coverpoint {point.signal}: "
                f"{point.covered}/{point.total} bins "
                f"({100.0 * point.coverage:.1f}%)"
            )
        for cross in self.crosses:
            lines.append(
                f"  cross {cross.name}: {cross.covered}/{cross.total} "
                f"bins ({100.0 * cross.coverage:.1f}%)"
            )
        for trans in self.transitions:
            lines.append(
                f"  transition {trans.name}: "
                f"{trans.covered}/{trans.total} bins "
                f"({100.0 * trans.coverage:.1f}%)"
            )
        lines.append(f"  TOTAL: {100.0 * self.coverage:.1f}%")
        return "\n".join(lines)

    # -- serialization (JSON-pure: dict/list/str/int only) -------------------

    def to_dict(self):
        points = {}
        for point in self.points:
            points[point.signal] = {
                "bins": [[lo, hi] for lo, hi in point.bins],
                "hits": {str(i): n for i, n in sorted(point.hits.items())},
            }
        crosses = {}
        for cross in self.crosses:
            crosses[cross.name] = {
                "points": [p.signal for p in cross.points],
                "sizes": [len(p.bins) for p in cross.points],
                "hits": {
                    _KEY_SEP.join(str(i) for i in key): n
                    for key, n in sorted(cross.hits.items())
                },
            }
        transitions = {}
        for trans in self.transitions:
            transitions[trans.name] = {
                "signal": trans.signal,
                "seqs": [list(s) for s in trans.seqs],
                "hits": {str(i): n for i, n in sorted(trans.hits.items())},
            }
        return {
            "points": points,
            "crosses": crosses,
            "transitions": transitions,
        }


def choice_bins(choices):
    """One bin per distinct explicit choice, in sorted value order."""
    return [(v, v) for v in sorted(set(choices))]


def point_for_field(name, spec, bin_count=4):
    """A coverpoint for one stimulus field spec.

    ``spec`` follows :class:`repro.uvm.sequence.RandomSequence`: a
    2-tuple ``(lo, hi)`` int range gets disjoint range+corner bins;
    anything else is an explicit choice list with one bin per value.
    """
    if isinstance(spec, tuple) and len(spec) == 2 and \
            all(isinstance(v, int) for v in spec):
        return CoverPoint(name, CoverPoint.range_bins(*spec,
                                                      bin_count=bin_count))
    return CoverPoint(name, choice_bins(spec))


def input_space_model(field_ranges, bin_count=4, name="stimulus"):
    """The canonical stimulus-space model: a point per field plus all
    pairwise crosses.  Shared by the bench registry (which then adds
    FSM transitions/probes) and the closure loop's default model."""
    points = [
        point_for_field(field, spec, bin_count=bin_count)
        for field, spec in field_ranges.items()
    ]
    model = CoverModel(name=name, points=points)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            model.add_cross(points[i], points[j])
    return model


def model_from_counters(group, data):
    """Rebuild a :class:`CoverModel` skeleton (bins + hits) from
    serialized coverage-DB counters.

    ``data`` is one module's entry of a coverage database or a
    record's coverage fragment (``{"points": ..., "crosses": ...,
    "transitions": ...}``); the rebuilt model is what hole reports
    (:mod:`repro.cover.holes`) run over — both the ``repro.cli
    coverage --holes`` path and the coverage-hole section of a
    forensic debug bundle.
    """
    model = CoverModel(name=group)
    for name, entry in sorted((data.get("points") or {}).items()):
        point = CoverPoint(name, [tuple(b) for b in entry["bins"]])
        point.hits = {int(k): v for k, v in entry["hits"].items()}
        model.points.append(point)
    for name, entry in sorted((data.get("crosses") or {}).items()):
        members = [model.point(p) for p in entry["points"]]
        if any(m is None for m in members):
            continue
        cross = Cross(name=name, points=members)
        cross.hits = {
            tuple(int(i) for i in key.split("|")): count
            for key, count in entry["hits"].items()
        }
        model.crosses.append(cross)
    for name, entry in sorted((data.get("transitions") or {}).items()):
        trans = TransitionPoint(
            signal=entry["signal"],
            seqs=[tuple(s) for s in entry["seqs"]], name=name,
        )
        trans.hits = {int(k): v for k, v in entry["hits"].items()}
        model.transitions.append(trans)
    return model
