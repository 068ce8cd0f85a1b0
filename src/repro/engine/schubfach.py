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
* Compute three decimal images per value, in round-to-odd form
  ``2*floor(x) + (x is not an integer)`` of ``x = c * 2**(e-2+j) *
  10**-k``: the endpoints ``cbl``/``cbr`` at ``j = 0`` and ``cb`` at
  ``j = 2`` (so the midpoint test stays integral).  An integer ``n`` is
  at or above ``x`` iff ``2n >= image`` and at or below it iff ``2n <=
  image``, so every decision is a plain integer compare.  Each image is
  one product with the table's ceiling significand ``g`` (``10**-k =
  (g - d) * 2**(a-127)``, ``d in [0,1)``), exact unless its dropped
  bits fall below the error ``c*d < c``.  That band holds every integer
  ``x`` and, but for Schubfach's proof (which this module does not
  lean on), non-integers very near one; it goes to an exact big-integer
  ``divmod``.  No path bails.
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
the inline integer test.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.rounding import TieBreak

from repro.engine.tables import FormatTables

__all__ = ["schubfach_digits"]


def _image_exact(c: int, e: int, k: int, j: int) -> int:
    """Exact ``2*floor(x) + (x is not an integer)`` for ``x = c *
    2**(e-2+j) * 10**-k`` (the rescue path).

    Reached when the 128-bit product cannot settle ``floor(x)``: for an
    integer ``x`` (the product overshoots it by less than ``c``) and,
    were it not for the Schubfach paper's proof, for a non-integer
    within that distance of one.  The rescue keeps the lane correct
    without that proof: still no bail path, one big-integer division.
    """
    num, den, b = c, 1, e - 2 + j
    if b >= 0:
        num <<= b
    else:
        den <<= -b
    if k >= 0:
        den *= 10**k
    else:
        num *= 10**-k
    q, r = divmod(num, den)
    return (q << 1) | (r != 0)


def _image(c: int, g: int, s: int, exact: bool, e: int, k: int,
           j: int) -> int:
    """Round-to-odd image of ``c * 2**(e-2+j) * 10**-k`` from one
    product (``s = sh - j``): ``c * g`` exceeds the scaled value by
    ``c*d``, so its dropped bits ``r`` mark an inexact value unless they
    fall below ``c``, where the exact rescue decides."""
    p = c * g
    r = p & ((1 << s) - 1)
    if exact or r >= c:
        return ((p >> s) << 1) | (r != 0)
    return _image_exact(c, e, k, j)


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
    # The three images: integer n is inside the interval iff
    # lo <= 2n <= hi (a closed bound admits the endpoint itself, an
    # open one needs 2n strictly past its image).
    lo = _image(cbl, g, sh, exact, e, k, 0)
    hi = _image(cb + 2, g, sh, exact, e, k, 0)
    x4 = _image(cb, g, sh - 2, exact, e, k, 2)
    if not even:
        lo += 1
        hi -= 1
    # s = floor(v * 10**-k) = floor(4v * 10**-k) >> 2.
    s = x4 >> 3
    # First try the coarser grid: at most one multiple of ten fits in
    # the interval (length < 10), and it must be adjacent to s.  This
    # check always runs — proximity alone would pick the wrong digits
    # for tiny denormals (e.g. binary64 f=10, e=-1074: the interval
    # contains 50 but 49 is nearer), so there is no `s >= 100` shortcut.
    s10 = s - s % 10
    if lo <= s10 << 1 <= hi:
        text = str(s10)
        return k + len(text), text.rstrip("0")
    if lo <= (s10 + 10) << 1 <= hi:
        text = str(s10 + 10)
        return k + len(text), text.rstrip("0")
    # Unit grid: choose between s and s+1 by membership, then proximity
    # (the image of 4v against 4s + 2, i.e. 8s + 4, is the midpoint
    # test), then the tie strategy.  Neither being a multiple of ten
    # here (they would have been caught above), the tie cannot carry
    # past digit nine.
    if lo <= s << 1 <= hi:
        if (s + 1) << 1 <= hi:
            mid = (s << 3) + 4
            if x4 < mid:
                c = s
            elif x4 > mid:
                c = s + 1
            else:
                d = s % 10
                c = s if tie.choose(d) == d else s + 1
        else:
            c = s
    elif lo <= (s + 1) << 1 <= hi:
        c = s + 1
    else:  # pragma: no cover - interval length >= 1 contains an integer
        raise AssertionError("schubfach: no candidate in rounding interval")
    text = str(c)
    return k + len(text), text
