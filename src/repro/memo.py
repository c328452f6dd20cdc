"""The bounded least-recently-used memo behind every per-process memo.

Parse, lint, kernel, unit-coverage and UVM-run memos, the stand-in
LLM's three analysis memos (focus lines, functional candidates, syntax
repair) and the FR verdict memo all keep results keyed by content for
the life of a worker process.  Each bounds itself with a module
constant; this class holds the one eviction policy they share.
"""

from collections import OrderedDict

from repro.obs.metrics import GLOBAL as _metrics


class LRUMemo(OrderedDict):
    """A mapping of at most ``limit`` entries that evicts the least
    recently used one; iteration runs least recently used first.

    Callers use :meth:`lookup` and :meth:`store`, or :meth:`recall`;
    ``None`` is never a stored value, so it marks a miss.
    """

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def lookup(self, key):
        """The value under ``key``, now the most recently used, or
        ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def store(self, key, value):
        """Remember ``value`` under ``key``, evicting the least recently
        used entry past the bound; returns ``value``."""
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.limit:
            self.popitem(last=False)
        return value

    def recall(self, key, compute, metric):
        """The value under ``key``, or ``compute()`` stored under it;
        counts ``<metric>.memo_hits`` or ``<metric>.memo_misses``.  An
        exception from ``compute`` propagates and stores nothing."""
        value = self.lookup(key)
        if value is None:
            _metrics.inc(metric + ".memo_misses")
            return self.store(key, compute())
        _metrics.inc(metric + ".memo_hits")
        return value
