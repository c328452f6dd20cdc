"""The bounded least-recently-used memo behind every per-process memo.

Parse, lint, kernel, unit-coverage and UVM-run memos all keep results
keyed by content for the life of a worker process.  Each bounds itself
with a module constant; this class holds the one eviction policy they
share.
"""

from collections import OrderedDict


class LRUMemo(OrderedDict):
    """A mapping of at most ``limit`` entries that evicts the least
    recently used one; iteration runs least recently used first.

    Callers use :meth:`lookup` and :meth:`store`; ``None`` is never a
    stored value, so it marks a miss.
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
