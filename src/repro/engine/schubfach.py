"""Schubfach-style shortest-form writer: certified digits, no bail path.

Grisu3 (:mod:`repro.fastpath.grisu`) certifies its output with a
64-bit error band and *bails* on the ~0.5–1% of values where the band
straddles a decision boundary.  Adams' Ryū and Giulietti's Schubfach
showed the bail path is unnecessary: with a wide enough fixed-point
image of the scaled rounding interval, every finite value can be decided
outright.  This module reproduces the Schubfach decision structure over
Python integers with the 128-bit per-format power table built by
:meth:`repro.engine.tables.FormatTables.ensure_schub`.

The shape of the computation, for ``v = f * 2**e`` positive finite:

* Work at quadruple scale: ``cb = 4f`` with interval endpoints
  ``cbl = 4f - 2`` and ``cbr = 4f + 2`` (or ``cbl = 4f - 1`` when the
  gap below is half-width: ``f == hidden_limit`` and ``e > min_e``), so
  the rounding interval is ``(cbl, cbr) * 2**(e-2)`` — open or closed
  per the reader-mode ``low_ok``/``high_ok`` flags, which for the two
  nearest modes collapse to a single ``even`` bit exactly as in
  :func:`repro.core.boundaries.adjust_for_mode`.
* Scale by ``10**-k`` with ``k = floor(log10 L)`` for the interval
  length ``L``, so the scaled interval has length in ``[1, 10)``: it
  always contains an integer and at most one multiple of ten.
* Every comparison of a candidate integer ``n`` against a scaled
  quantity ``c * 2**(e-2) * 10**-k`` goes through the table's ceiling
  significand ``g`` (``10**-k = (g - d) * 2**(a-127)``, ``d in [0,1)``):
  ``n << sh`` versus ``c * g`` decides all but a width-``c`` ambiguity
  band, and anything landing in the band — which Schubfach's paper
  proves empty for these formats, a proof this module does not lean on
  — is settled by one exact big-integer comparison.  No path bails.
* Prefer the (at most one) multiple of ten inside the interval —
  stripping its trailing zeros gives the shorter form — else pick
  between ``s = floor(v * 10**-k)`` and ``s + 1`` by membership,
  proximity, and the tie strategy, mirroring the exact algorithm's
  final-digit rule.

Output is the engine currency ``(k, body)`` — byte-identical to the
exact Burger–Dybvig tier for every finite input, enforced by the
``repro.verify --contenders`` battery, the binade-boundary and
all-of-binary16 tests and the hypothesis round-trip suite (see
docs/contenders.md).  It is the engine's only shortest-write lane after
tier 0.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.rounding import TieBreak

from repro.engine.tables import FormatTables

__all__ = ["schubfach_digits"]


def _cmp_exact(n: int, c: int, e: int, k: int) -> int:
    """Exact sign of ``n - c * 2**(e-2) * 10**-k`` (the rescue path).

    Reached only when the 128-bit comparison is inconclusive — the
    candidate lies within ``c`` ulps of the scaled boundary — which the
    Schubfach paper shows cannot happen for binary16/32/64.  Keeping the
    rescue makes the lane unconditionally correct without reproducing
    that proof: still no bail path, just one big-integer comparison.
    """
    lhs, rhs = n, c
    if e >= 2:
        rhs <<= e - 2
    else:
        lhs <<= 2 - e
    if k >= 0:
        lhs *= 10**k
    else:
        rhs *= 10**-k
    return (lhs > rhs) - (lhs < rhs)


def schubfach_digits(f: int, e: int, tables: FormatTables, even: bool,
                     tie: TieBreak) -> Tuple[int, str]:
    """Certified shortest digits of ``f * 2**e``: ``(k, body)``.

    ``even`` is the collapsed ``low_ok``/``high_ok`` flag for the two
    nearest reader modes (``NEAREST_EVEN`` with an even significand —
    boundaries included; otherwise excluded).  ``tie`` breaks the one
    remaining exact tie, exactly like the final-digit rule of
    :func:`repro.core.dragon.generate_digits`.  Never bails: every
    finite positive input resolves here.

    The caller is responsible for :meth:`FormatTables.ensure_schub` and
    the mode gate (nearest modes only).
    """
    entry = tables.schub_powers[e - tables.schub_e_min]
    cb = f << 2
    if f == tables.hidden_limit and e > tables.min_e:
        k, g, sh, exact = entry[4], entry[5], entry[6], entry[7]
        cbl = cb - 1
    else:
        k, g, sh, exact = entry[0], entry[1], entry[2], entry[3]
        cbl = cb - 2
    cbr = cb + 2

    def cmp(n: int, c: int) -> int:
        # sign(n - c * 2**(e-2) * 10**-k): the ceiling table gives
        # c*g = (scaled c + c*d) << sh with d in [0, 1), so n<<sh above
        # c*g is surely above, at most c below it is surely below, and
        # the band between goes to the exact rescue.
        scaled_n = n << sh
        p = c * g
        if scaled_n > p:
            return 1
        if scaled_n == p:
            return 0 if exact else 1
        if scaled_n <= p - c:
            return -1
        return _cmp_exact(n, c, e, k)

    def in_interval(n: int) -> bool:
        lo = cmp(n, cbl)
        if not (lo >= 0 if even else lo > 0):
            return False
        hi = cmp(n, cbr)
        return hi <= 0 if even else hi < 0

    # s = floor(v * 10**-k); the shifted ceiling product overshoots by
    # at most one, corrected with a single comparison.
    s = (cb * g) >> sh
    if cmp(s, cb) > 0:
        s -= 1
    # First try the coarser grid: at most one multiple of ten fits in
    # the interval (length < 10), and it must be adjacent to s.  This
    # check always runs — proximity alone would pick the wrong digits
    # for tiny denormals (e.g. binary64 f=10, e=-1074: the interval
    # contains 50 but 49 is nearer), so there is no `s >= 100` shortcut.
    s10 = s - s % 10
    if in_interval(s10):
        text = str(s10)
        return k + len(text), text.rstrip("0")
    t10 = s10 + 10
    if in_interval(t10):
        text = str(t10)
        return k + len(text), text.rstrip("0")
    # Unit grid: choose between s and s+1 by membership, then proximity
    # (cmp of s + t against 2*cb is the midpoint test), then the tie
    # strategy.  Neither being a multiple of ten here (they would have
    # been caught above), the tie cannot carry past digit nine.
    t = s + 1
    if in_interval(s):
        if in_interval(t):
            rnd = cmp(s + t, cb << 1)
            if rnd > 0:
                c = s
            elif rnd < 0:
                c = t
            else:
                d = s % 10
                c = s if tie.choose(d) == d else t
        else:
            c = s
    elif in_interval(t):
        c = t
    else:  # pragma: no cover - interval length >= 1 contains an integer
        raise AssertionError("schubfach: no candidate in rounding interval")
    text = str(c)
    return k + len(text), text
