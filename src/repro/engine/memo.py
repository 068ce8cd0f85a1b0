"""The engines' bounded result memo: two plain dicts, ``new`` and
``old``, together never more than ``capacity`` entries.

A probe looks in ``new``, then ``old``; a hit in ``old`` moves into
``new``.  A miss evicts one entry of ``old`` (``dict.popitem()``, O(1))
and stores into ``new``; one that finds ``new`` full first makes it
``old``, which by then is empty, so no call frees a whole generation.
Every step is an in-place dict operation, atomic under the GIL, so the
batch loops probe and install lock-free.  Only the swap (:meth:`turn`)
rebinds ``new``/``old``, under the engine lock; a batch that raced it
can overshoot the bound until its flush calls :meth:`trim`.

One memo serves both directions of an engine; entries are told apart
by key shape:

* read: ``(text, ctx)`` -> ``(bits, Flonum or None)``, the literal's
  bit pattern (and, when a Flonum reader built it, the value);
* default write route: ``(bits, ctx)`` -> the final text, ``bits``
  the value's *signed* bit pattern, so ``x`` and ``-x`` are two
  entries and a hit needs no sign handling;
* other shortest routes: ``(f, e, ctx)`` -> ``(k, digits)`` over the
  magnitude;
* fixed format: ``(f, e, n, ctx)`` -> the digit result.

``ctx`` is a small int interning the conversion context.  Keys are
never floats: a float's hash depends on its exponent only modulo 61
(``hash(2.0**k)`` repeats every 61 binades), so float keys would
collide on powers of two and on values any client can choose.  An
integer's hash is its value modulo ``2**61 - 1``, so at most nine
64-bit patterns share one.  A ``str`` key cannot equal an ``int`` one,
so read and write entries never collide.
"""


class GenMemo:
    """Read-only mapping (``old`` then ``new``) plus the policy."""

    __slots__ = ("capacity", "new", "old")

    def __init__(self, capacity: int):
        self.capacity, self.new, self.old = capacity, {}, {}

    def __len__(self) -> int:
        return len(self.new) + len(self.old)

    def __getitem__(self, key):
        return self.new[key] if key in self.new else self.old[key]

    def items(self) -> list:
        """Copied one generation at a time, in one C-level pass each."""
        old, new = self.old, self.new
        return list(old.items()) + list(new.items())

    def keys(self):
        return (key for key, _ in self.items())

    __iter__ = keys

    def clear(self) -> None:
        self.new.clear()
        self.old.clear()

    def hit(self, key):
        """The value under ``key`` (moved into ``new``), or None."""
        value = self.new.get(key)
        if value is None:
            value = self.old.pop(key, None)
            if value is not None:
                self.new[key] = value
        return value

    def put(self, key, value) -> None:
        """Store into ``new`` as a miss does (a key already held moves
        there and evicts nothing)."""
        self.turn(self.new)
        self.old.pop(key, None)
        self.new[key] = value
        self.trim()

    def install(self, items: list) -> int:
        """:meth:`put` each ``(key, value)`` pair in order; returns how
        many of the keys the memo holds afterwards."""
        for key, value in items:
            self.put(key, value)
        return sum(key in self.new or key in self.old for key, _ in items)

    def turn(self, seen: dict) -> tuple:
        """Swap generations if ``seen`` still is ``new``, full, and ``old``
        is drained; return the current ``(new, old)``.  Lock held."""
        if seen is self.new and len(seen) >= self.capacity and not self.old:
            self.new, self.old = {}, seen
        return self.new, self.old

    def trim(self) -> None:
        """Evict, ``old`` first, down to the bound.  Lock held."""
        for _ in range(len(self) - self.capacity):
            try:
                (self.old or self.new).popitem()
            except KeyError:  # a racing batch drained it first
                break
