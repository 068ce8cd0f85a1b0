"""The engines' bounded result memo: one owner for the LRU policy.

Iteration order is recency order, oldest first.  An ``OrderedDict``
evicts in O(1) (``popitem(last=False)``); a plain dict used as an LRU
leaves a dead prefix in its entry array as the front is deleted, so at
steady state finding the oldest key meant scanning that prefix on
every eviction.

Not thread-safe: callers hold the owning engine's lock around every
mutation and every bumping read.  The two lock-free readers are the
batch loops' probes — the write side's ``Engine._format_many_fast``
and the read side's ``ReadEngine._read_batch`` — each a plain ``get``:
under the GIL it is a single C-level ``OrderedDict`` lookup on int/str
tuple keys, it changes nothing, and the batch bumps its hits later
under the lock.
"""

from collections import OrderedDict


class LruMemo(OrderedDict):
    """Capacity-bounded LRU map (values are never None)."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def hit(self, key):
        """The value under ``key``, bumped to most recent; None on a miss."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert as most recent (an existing key keeps its place) and
        evict the oldest entry past capacity."""
        self[key] = value
        if len(self) > self.capacity:
            self.popitem(last=False)

    def install(self, items) -> int:
        """Batch :meth:`put` of a sized iterable of ``(key, value)``
        pairs, in order; returns how many were installed.

        A batch longer than the capacity installs only its tail:
        sequential puts would have evicted the head anyway.
        """
        n = len(items)
        if n > self.capacity:
            items = list(items)[n - self.capacity:]
        self.update(items)
        for _ in range(len(self) - self.capacity):
            self.popitem(last=False)
        return min(n, self.capacity)
