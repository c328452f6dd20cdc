"""Time-aware dynamic slicing (Algorithm 2, function ErrInfoFetch).

Starting from a mismatching signal at a mismatch timestamp, walk the
DFG backwards.  Every definition site on the walk is *suspicious*; sites
whose guard conditions were actually satisfied at the mismatch time
(checked against the recorded waveform) rank higher, because they were
on the executed path that produced the wrong value.
"""

from dataclasses import dataclass
from typing import List

from repro.sim.eval import Evaluator
from repro.sim.values import Value


@dataclass
class SuspiciousLine:
    """One suspicious source line with its activation evidence."""

    line: int
    signal: str
    active: bool          # guards satisfied at the mismatch time
    depth: float          # distance from the mismatching signal
    kind: str = "seq"

    def sort_key(self):
        # Guard (condition) lines rank just after the assignment they
        # dominate: the assignment itself is the likelier defect site.
        bias = 0.5 if self.kind == "guard" else 0.0
        return (0 if self.active else 1, self.depth + bias, self.line)


class _TraceResolver:
    """Evaluator resolver that reads signal values from a waveform trace
    at a fixed timestamp."""

    def __init__(self, trace, time, prefix=""):
        self.trace = trace
        self.time = time
        self.prefix = prefix

    def _history_value(self, name):
        history = self.trace.get(
            f"{self.prefix}.{name}" if self.prefix else name
        )
        if not history:
            return None
        best = None
        for when, value in history:
            if when <= self.time:
                best = value
            else:
                break
        return best

    def read(self, name):
        value = self._history_value(name)
        if value is None:
            return Value.all_x(1)
        return value

    def read_memory(self, name):
        return None

    def width_of(self, name):
        value = self._history_value(name)
        return value.width if value is not None else 1

    def signed_of(self, name):
        value = self._history_value(name)
        return value.signed if value is not None else False


def _guard_active(guards, resolver):
    """Do all guards of a def-site hold at the trace time?

    ``None``-truth guards (case-default arms) are treated as active.
    Guards referencing parameters or untracked names fall back to
    "active" — we never drop a line for lack of evidence, only de-rank.
    """
    evaluator = Evaluator(resolver)
    for cond, required in guards:
        if required is None:
            continue
        try:
            value = evaluator.eval(cond)
        except Exception:
            return True
        truth = value.is_truthy()
        if truth is None:
            return True
        if truth != required:
            return False
    return True


def dynamic_slice(dfg, mismatch_signal, trace=None, time=None,
                  max_depth=4, max_lines=12):
    """Backward slice from ``mismatch_signal``.

    Returns suspicious lines ordered by (active-first, depth, line).
    ``trace``/``time`` enable the dynamic ranking; without them every
    site is considered active (pure static slice).
    """
    resolver = _TraceResolver(trace or {}, time or 0)
    results: List[SuspiciousLine] = []
    seen_sites = set()
    frontier = [(mismatch_signal, 0)]
    visited_signals = {mismatch_signal}
    while frontier:
        signal, depth = frontier.pop(0)
        if depth > max_depth:
            continue
        for site in dfg.defs_of(signal):
            key = (site.target, site.line)
            if key in seen_sites:
                continue
            seen_sites.add(key)
            active = True
            if trace is not None and time is not None:
                active = _guard_active(site.guards, resolver)
            results.append(
                SuspiciousLine(
                    line=site.line,
                    signal=site.target,
                    active=active,
                    depth=depth,
                    kind=site.kind,
                )
            )
            # Condition lines dominating this assignment are suspicious
            # too — wrong-judgment-value defects live on them.
            for guard_line in site.guard_lines:
                if guard_line != site.line:
                    results.append(
                        SuspiciousLine(
                            line=guard_line,
                            signal=site.target,
                            active=active,
                            depth=depth,
                            kind="guard",
                        )
                    )
            for read in site.reads:
                if read not in visited_signals:
                    visited_signals.add(read)
                    frontier.append((read, depth + 1))
    results.sort(key=SuspiciousLine.sort_key)
    return results[:max_lines]


def related_signals(dfg, mismatch_signal, max_depth=3):
    """Algorithm 2 lines 14-19: signals on the mismatch signal's paths
    that should be promoted into the MS set."""
    found = []
    frontier = [(mismatch_signal, 0)]
    visited = {mismatch_signal}
    while frontier:
        signal, depth = frontier.pop(0)
        if depth >= max_depth:
            continue
        for site in dfg.defs_of(signal):
            for read in site.reads:
                if read not in visited:
                    visited.add(read)
                    found.append(read)
                    frontier.append((read, depth + 1))
    return found
