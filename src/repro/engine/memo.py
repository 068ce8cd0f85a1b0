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

Admission
---------

On traffic that never repeats, installs only cost: each one evicts an
entry nobody asks for again, and two full generations make every probe
dearer than probes of small ones.  The memo therefore admits by
measured payoff.  The two batch loops count their probes' hits and
misses and flush them through :meth:`record`, beside :meth:`trim`:

* once the window holds at least ``capacity`` misses and fewer than
  one hit per :data:`PAYOFF` misses, the memo enters *sampled
  admission*: it clears ``new`` and ``old`` once, and from then on the
  batch loops install only every :data:`STRIDE`-th miss, counted
  across batches (so one-value scalar calls are sampled too);
* the first flush at which hits reach one per :data:`PAYOFF` misses
  returns it to full admission;
* the window stays recent: both counts halve while the misses exceed
  ``2 * capacity``.

The sampled installs are what lets a hot set that returns be noticed.
Each batch reads the rule's state once and carries the install
position in a local; when batches overlap, the last flush's position
wins, which shifts only which misses install, never a result.
:meth:`put` and :meth:`install` (snapshot restores and the routes off
the batch loops) admit everything; :meth:`clear` resets the rule.
"""

#: Sampled admission starts when hits fall below one per ``PAYOFF``
#: misses, and ends when they reach it again.
PAYOFF = 64
#: Sampled admission installs one miss in ``STRIDE``.
STRIDE = 16


class GenMemo:
    """Read-only mapping (``old`` then ``new``) plus the policy.

    The admission rule's state: ``hits`` and ``misses`` (the window),
    ``gap`` (misses skipped between two installs: 0 under full
    admission, ``STRIDE - 1`` under sampled) and ``skip`` (misses still
    to skip before the next install).
    """

    __slots__ = ("capacity", "new", "old", "hits", "misses", "gap", "skip")

    def __init__(self, capacity: int):
        self.capacity, self.new, self.old = capacity, {}, {}
        self.hits = self.misses = self.gap = self.skip = 0

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

    @property
    def sampled(self) -> bool:
        """True under sampled admission."""
        return self.gap != 0

    def clear(self) -> None:
        """Drop every entry and reset the admission rule."""
        self.new.clear()
        self.old.clear()
        self.hits = self.misses = self.gap = self.skip = 0

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

    def record(self, hits: int, misses: int, skip: int) -> None:
        """Flush one batch's probe counts and its admission position
        (``skip``), then apply the admission rule.  A batch that
        probed nothing changes nothing.  Lock held."""
        if not (hits or misses):
            return
        hits += self.hits
        misses += self.misses
        if hits * PAYOFF >= misses:
            self.gap = 0
        elif not self.gap and misses >= self.capacity:
            self.gap = STRIDE - 1
            self.new.clear()
            self.old.clear()
        while misses > 2 * self.capacity:
            hits >>= 1
            misses >>= 1
        self.hits, self.misses = hits, misses
        self.skip = min(skip, self.gap)
