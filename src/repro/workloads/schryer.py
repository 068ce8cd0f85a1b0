"""Schryer-style floating-point test vectors (the paper's reference [4]).

The paper's measurements run over "a set of 250,680 positive normalized
IEEE double-precision floating-point numbers … generated according to the
forms Schryer developed for testing floating-point units".  Schryer's
forms stress the boundary structure of the representation: mantissas that
are all ones, a single one, alternating patterns, values adjacent to
powers of the radix — crossed with exponents spanning the full range.

We reproduce the *construction*, deterministically: a pattern set of
mantissas crossed with an exponent sweep, padded with seeded pseudo-random
mantissas.  ``paper_corpus`` yields exactly 250,680 values for binary64;
``corpus`` scales the same construction to any size for CI-friendly runs.
"""

from __future__ import annotations

import random
from typing import List

from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum

__all__ = [
    "mantissa_patterns",
    "exponent_sweep",
    "corpus",
    "paper_corpus",
    "PAPER_CORPUS_SIZE",
]

#: Size of the test set used throughout the paper's Tables 2 and 3.
PAPER_CORPUS_SIZE = 250_680


def mantissa_patterns(fmt: FloatFormat = BINARY64) -> List[int]:
    """Schryer's mantissa forms for a radix-2 format, normalized.

    Includes: the extremes ``2**(p-1)`` and ``2**p - 1`` and their
    neighbours, single-bit patterns ``2**(p-1) + 2**i``, all-ones runs
    ``2**p - 2**i``, and alternating bit fills.
    """
    p = fmt.precision
    lo = fmt.hidden_limit
    hi = fmt.mantissa_limit - 1
    patterns = {lo, lo + 1, lo + 2, hi, hi - 1, hi - 2}
    for i in range(p - 1):
        patterns.add(lo + (1 << i))  # single extra bit
        patterns.add(hi - ((1 << i) - 1))  # trailing-ones stripped
        patterns.add(lo + ((1 << i) - 1))  # trailing-ones run
    # Alternating fills 1010… and 1100… below the hidden bit.
    alt1 = int("10" * ((p + 1) // 2), 2)
    alt2 = int("1100" * ((p + 3) // 4), 2)
    for pat in (alt1, alt2, ~alt1, ~alt2):
        patterns.add(lo | (pat & (lo - 1)))
    return sorted(x for x in patterns if lo <= x <= hi)


def exponent_sweep(fmt: FloatFormat = BINARY64, count: int = 0) -> List[int]:
    """``count`` exponents spread evenly over the normal range (all if 0)."""
    lo, hi = fmt.min_e, fmt.max_e
    total = hi - lo + 1
    if count <= 0 or count >= total:
        return list(range(lo, hi + 1))
    step = total / count
    return [lo + int(i * step) for i in range(count)]


def corpus(n: int, fmt: FloatFormat = BINARY64, seed: int = 19960501
           ) -> List[Flonum]:
    """A deterministic Schryer-style corpus of ``n`` positive normals.

    Pattern mantissas are crossed with an exponent sweep first; any
    remainder is filled with seeded random normal values so every size
    keeps the boundary-heavy character of the original test set.
    """
    if n <= 0:
        return []
    pats = mantissa_patterns(fmt)
    exps = exponent_sweep(fmt)
    out: List[Flonum] = []
    # Walk the full pattern x exponent product space with a stride
    # coprime to its size: any prefix then covers both axes densely and
    # without the aliasing a nested loop would introduce (a fixed
    # exponent stride can systematically miss the log-fraction bands the
    # estimator experiments measure).
    total = len(pats) * len(exps)
    stride = _coprime_stride(total)
    idx = 0
    for _ in range(min(n, total)):
        f = pats[idx // len(exps)]
        e = exps[idx % len(exps)]
        out.append(Flonum.finite(0, f, e, fmt))
        idx = (idx + stride) % total
    rng = random.Random(seed)
    lo, hi = fmt.hidden_limit, fmt.mantissa_limit - 1
    while len(out) < n:
        f = rng.randrange(lo, hi + 1)
        e = rng.randrange(fmt.min_e, fmt.max_e + 1)
        out.append(Flonum.finite(0, f, e, fmt))
    return out


def _coprime_stride(total: int) -> int:
    """A golden-ratio-sized stride coprime to ``total``."""
    import math

    stride = max(1, int(total * 0.6180339887498949))
    while math.gcd(stride, total) != 1:
        stride += 1
    return stride


def paper_corpus(fmt: FloatFormat = BINARY64) -> List[Flonum]:
    """The full 250,680-value corpus used for Tables 2 and 3."""
    return corpus(PAPER_CORPUS_SIZE, fmt)
