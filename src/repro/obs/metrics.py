"""Unified metrics registry: counters and histograms with delta/merge.

This replaces the ad-hoc stat plumbing that grew organically across
the runner (``kernel_stats`` dicts shipped back from pool workers,
cache hit counters): every layer now
increments named counters or observes named histograms in a registry,
and workers ship one :func:`MetricsRegistry.delta` snapshot — a plain
JSON-pure dict — back to the scheduler, which :func:`absorb`\\ s it.

Merging is commutative and associative (counters add; histograms add
bucket-wise and take min/max), the same discipline as the coverage DB,
so telemetry shards from any number of workers fold into the same
totals regardless of arrival order — the property the shard-merge
tests pin down.

Histograms use log2 buckets over seconds, which is plenty for "which
phase is slow" questions, and additionally keep a small process-local
rolling window of recent raw samples.  The rolling window is what the
scheduler's ETA uses (satellite: a rolling per-unit estimate instead
of the global average, so one pathological unit early in a campaign
stops inflating the ETA for the rest of it).  The window is local-only
state: it rides along ``absorb()`` via the delta's sum/count but is
never part of the mergeable snapshot bytes.
"""

import math
from collections import deque

#: Rolling-window size for recent histogram samples (ETA smoothing).
ROLLING_WINDOW = 32

def _bucket(value):
    """Log2 bucket index for a non-negative sample (seconds-ish)."""
    if value <= 0:
        return 0
    # Bucket k covers (2**(k-1-32), 2**(k-32)] seconds: sub-microsecond
    # samples land in bucket 0, ~1s lands around bucket 32.
    return max(0, min(63, int(math.ceil(math.log2(value))) + 32))


class Histogram:
    """Mergeable log2 histogram plus a local rolling sample window."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets", "recent")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self.buckets = {}
        self.recent = deque(maxlen=ROLLING_WINDOW)

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        key = _bucket(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1
        self.recent.append(value)

    def merge(self, snap):
        """Fold a snapshot dict (from :meth:`snapshot`) into this one."""
        if not snap or not snap.get("count"):
            return
        self.count += snap["count"]
        self.total += snap["sum"]
        if snap.get("min") is not None:
            self.minimum = snap["min"] if self.minimum is None else min(self.minimum, snap["min"])
        if snap.get("max") is not None:
            self.maximum = snap["max"] if self.maximum is None else max(self.maximum, snap["max"])
        for key, n in snap.get("buckets", {}).items():
            key = int(key)
            self.buckets[key] = self.buckets.get(key, 0) + n
        # Feed the merged mass into the rolling window as its mean so a
        # parent absorbing per-unit worker deltas (count == 1 each) sees
        # the actual sample stream.
        if snap["count"]:
            mean = snap["sum"] / snap["count"]
            for _ in range(min(snap["count"], ROLLING_WINDOW)):
                self.recent.append(mean)

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {str(key): n for key, n in sorted(self.buckets.items())},
        }

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def rolling_median(self):
        """Median of the recent sample window (None when empty)."""
        if not self.recent:
            return None
        ordered = sorted(self.recent)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


class MetricsRegistry:
    """Named counters and histograms with snapshot/delta/absorb."""

    def __init__(self):
        self.counters = {}
        self.histograms = {}

    # -- recording ----------------------------------------------------
    def inc(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name, value):
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def counter(self, name):
        return self.counters.get(name, 0)

    def histogram(self, name):
        return self.histograms.get(name)

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self):
        """JSON-pure snapshot of everything recorded so far."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def delta(self, before):
        """The JSON-pure difference between now and a prior snapshot.

        This is the one ``StatsDelta`` shape workers ship back to the
        scheduler (replacing the bespoke kernel stat dicts).
        """
        before_counters = before.get("counters", {})
        counters = {}
        for name, value in self.counters.items():
            diff = value - before_counters.get(name, 0)
            if diff:
                counters[name] = diff
        before_hists = before.get("histograms", {})
        histograms = {}
        for name, hist in self.histograms.items():
            prior = before_hists.get(name)
            snap = hist.snapshot()
            if prior is None or not prior.get("count"):
                if snap["count"]:
                    histograms[name] = snap
                continue
            count = snap["count"] - prior["count"]
            if not count:
                continue
            buckets = {}
            prior_buckets = prior.get("buckets", {})
            for key, n in snap["buckets"].items():
                diff = n - prior_buckets.get(key, 0)
                if diff:
                    buckets[key] = diff
            histograms[name] = {
                "count": count,
                "sum": snap["sum"] - prior["sum"],
                # min/max are not subtractable; the delta's extrema are
                # conservatively the current ones (merge keeps min/max
                # correct as a bound, which is all the summary needs).
                "min": snap["min"],
                "max": snap["max"],
                "buckets": buckets,
            }
        return {"counters": counters, "histograms": histograms}

    def absorb(self, delta):
        """Fold a snapshot/delta dict in (commutative, associative)."""
        if not delta:
            return
        for name, value in delta.get("counters", {}).items():
            self.inc(name, value)
        for name, snap in delta.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge(snap)

    def reset(self):
        self.counters = {}
        self.histograms = {}


#: Process-global registry: layers that have no runner handle (the
#: kernel compile cache, the result cache) record here; the scheduler
#: snapshots/deltas it around each work unit.
GLOBAL = MetricsRegistry()
