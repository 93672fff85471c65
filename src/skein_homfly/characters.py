"""Irreducible characters of symmetric groups.

Values chi_lambda(C_mu) are computed by the Murnaghan-Nakayama rule in
beta-set form: removing a border strip of length k from lambda is removing
k from one first-column hook length, with sign (-1)^(rows spanned - 1).
All values are exact integers; tables are cached per n in process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceeded, SizeMismatch
from .exact import LaurentQT, _exact_div, q_bracket
from .partitions import Partition, partitions_of

DEFAULT_TABLE_BOUND = 12


def _table_bound() -> int:
    raw = os.environ.get("SKEIN_HOMFLY_MAX_N", DEFAULT_TABLE_BOUND)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SKEIN_HOMFLY_MAX_N must be an integer, got {raw!r}") from None


def character(lam: Partition, mu: Partition) -> int:
    """chi_lambda evaluated on the conjugacy class of cycle type mu."""
    if lam.size != mu.size:
        raise SizeMismatch(f"|{lam}| = {lam.size} != |{mu}| = {mu.size}")
    return _char(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _char(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    # first-column hook lengths: strictly decreasing beta-set of lambda
    l = len(lam)
    beta = [lam[i] + l - 1 - i for i in range(l)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for f in beta if c < f < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        m = len(new_beta)
        new_lam = tuple(f - (m - 1 - i) for i, f in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        term = _char(new_lam, rest)
        total += -term if height % 2 else term
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
    parts = partitions_of(n)
    values = {}
    for lam in parts:
        for mu in parts:
            values[(lam, mu)] = _char(lam.parts, mu.parts)
    return CharacterTable(n, parts, values)


def hook_character_identity(b: Partition) -> bool:
    """Check the hook generating identity for the class of cycle type b.

    sum over hooks (a|h) of |b| of chi_(a|h)(C_b) (-1)^h u^(a-h) must equal
    prod_j (u^{b_j} - u^{-b_j}) / (u - u^{-1}), an exact Laurent identity.
    """
    d = b.size
    if d < 1:
        raise ValueError("partition must be non-empty")
    lhs = LaurentQT.zero()
    for a in range(d):
        h = d - 1 - a
        hook = Partition((a + 1,) + (1,) * h)
        chi = character(hook, b)
        sign = -1 if h % 2 else 1
        lhs = lhs + LaurentQT.monomial(sign * chi, a - h, 0)
    rhs_num = LaurentQT.one()
    for part in b:
        rhs_num = rhs_num * q_bracket(part)
    return lhs == _exact_div(rhs_num, q_bracket(1))  # None when the division is not exact
