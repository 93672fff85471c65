"""Irreducible characters of symmetric groups.

Values chi_lambda(C_mu) are computed by the Murnaghan-Nakayama rule on
beta-sets held as bitmasks (James-Kerber, The Representation Theory of the
Symmetric Group, 2.7): lambda with l parts sets bit lambda_i + l - 1 - i for
each part, and removing a border strip of length k moves one bead from bit
b to an empty bit b - k, with sign (-1)^(beads strictly between).
All values are exact integers; tables are cached per n in process.  A
table runs the rule on one row of each conjugate pair lambda, lambda' and
copies the other times the class signs, the sign character's twist
chi_lambda'(C_mu) = (-1)^(n - l(mu)) chi_lambda(C_mu); self-conjugate rows
run the rule.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceeded, SizeMismatch
from .exact import _brackets, _udiv
from .partitions import Partition, integer, partitions_of

DEFAULT_TABLE_BOUND = 12


def _table_bound() -> int:
    raw = os.environ.get("SKEIN_HOMFLY_MAX_N", str(DEFAULT_TABLE_BOUND))
    try:
        return integer(raw)
    except ValueError:
        raise ValueError(f"SKEIN_HOMFLY_MAX_N must be an integer, got {raw!r}") from None


def character(lam: Partition, mu: Partition) -> int:
    """chi_lambda evaluated on the conjugacy class of cycle type mu."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise SizeMismatch(f"|{lam}| = {lam.size} != |{mu}| = {mu.size}")
    return _char(_beta_mask(lam), mu)


@lru_cache(maxsize=None)
def _beta_mask(parts: tuple) -> int:
    """The beta-set of a partition's parts as a bitmask."""
    l = len(parts)
    return sum(1 << (p + l - 1 - i) for i, p in enumerate(parts))


@lru_cache(maxsize=None)
def _char(mask: int, mu: tuple) -> int:
    """chi_lambda(C_mu), lambda given by its beta-set ``mask`` with bit 0
    clear (no zero parts)."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    between = (1 << (k - 1)) - 1
    # c such that a bead at c + k can move to the empty bit c
    free = (mask >> k) & ~mask
    total = 0
    while free:
        low = free & -free
        free ^= low
        c = low.bit_length() - 1
        new = mask ^ low ^ (low << k)
        while new & 1:
            new >>= 1
        term = _char(new, rest)
        total += -term if ((mask >> (c + 1)) & between).bit_count() & 1 else term
    return total


@dataclass(frozen=True)
class CharacterTable:
    """Square table of chi_lambda(C_mu) over all partitions of n.

    Rows and columns are indexed in reverse lexicographic order, matching
    partitions_of.
    """

    n: int
    index: tuple
    values: dict

    def row(self, lam: Partition):
        return [self.values[(lam, mu)] for mu in self.index]


def character_table(n: int) -> CharacterTable:
    """Complete character table of the symmetric group on n symbols."""
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    bound = _table_bound()
    if n > bound:
        raise BoundExceeded(f"n = {n} outside 1..{bound} (set SKEIN_HOMFLY_MAX_N to raise)")
    return _build_table(n)


@lru_cache(maxsize=None)
def _build_table(n: int) -> CharacterTable:
    """The table with each row whose conjugate row is already built copied
    from it: chi_lambda'(C_mu) = (-1)^(n - l(mu)) chi_lambda(C_mu)."""
    parts = partitions_of(n)
    signs = [-1 if (n - len(mu)) % 2 else 1 for mu in parts]
    rows = {}
    for lam in parts:
        if (conjugate := rows.get(lam.conjugate())) is not None:
            rows[lam] = [s * v for s, v in zip(signs, conjugate)]
        else:
            mask = _beta_mask(lam)
            rows[lam] = [_char(mask, mu) for mu in parts]
    return CharacterTable(n, parts, {(lam, mu): v for lam in parts for mu, v in zip(parts, rows[lam])})


def hook_character_identity(b: Partition) -> bool:
    """Check the hook generating identity for the class of cycle type b.

    sum over hooks (a|h) of |b| of chi_(a|h)(C_b) (-1)^h u^(a-h) must equal
    prod_j (u^{b_j} - u^{-b_j}) / (u - u^{-1}), an exact Laurent identity.
    """
    b = Partition(b)
    d = b.size
    if d < 1:
        raise ValueError("partition must be non-empty")
    lhs = {}
    for a in range(d):
        h = d - 1 - a
        if chi := _char(_beta_mask((a + 1,) + (1,) * h), b):
            lhs[a - h] = -chi if h % 2 else chi
    return lhs == _udiv(_brackets(Counter(b)), {1: 1, -1: -1})  # None when not exact
