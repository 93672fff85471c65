"""Integer partitions: construction, statistics, conjugation, enumeration.

Partitions index everything downstream: symmetric group classes and
irreducible characters, Schur-basis decorations, and the twist exponents of
torus link invariants.  The two scalar statistics that matter most are

    z(lambda) = prod_j j^{m_j} * m_j!       (centralizer order)
    k(lambda) = sum_j lambda_j*(lambda_j - 2j + 1)   (framing exponent)

with m_j the multiplicity of the part j.

``Partition`` and ``PartitionVector`` are tuple subclasses that check their
parts on construction: a partition compares, hashes and orders as the plain
tuple of its parts, so it keys the caches downstream as that tuple does.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import index


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is empty.

    A partition is the tuple of its parts: it compares, hashes and orders
    as that plain tuple, so ``Partition((2, 1)) == (2, 1)``.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        parts = tuple(index(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form "(3,1,1)"; "[]" or "()" denote the empty partition."""
        s = text.strip()
        if s == "[]":
            return cls(())
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1].strip()
        return cls(int(p) for p in s.split(",")) if s else cls(())

    def __str__(self):
        if not self:
            return "[]"
        return "(" + ",".join(map(str, self)) + ")"

    def __repr__(self):
        return f"Partition({tuple(self)})"

    @property
    def size(self) -> int:
        return sum(self)

    def z_factor(self) -> int:
        """Order of the centralizer of a permutation with this cycle type."""
        z = 1
        for j in set(self):
            m = self.count(j)
            z *= j ** m * factorial(m)
        return z

    def k_invariant(self) -> int:
        """Framing exponent sum lambda_j*(lambda_j - 2j + 1); always even."""
        return sum(p * (p - 2 * j + 1) for j, p in enumerate(self, start=1))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self:
            return EMPTY
        cols = [0] * self[0]
        for p in self:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def hook_lengths(self):
        """Multiset of hook lengths, row by row."""
        t = self.conjugate()
        out = []
        for i, p in enumerate(self):
            for j in range(p):
                out.append(p - j + t[j] - i - 1)
        return out


EMPTY = Partition(())


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n, exactly once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(Partition(p) for p in _gen_parts(n, n))


def _gen_parts(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_parts(n - first, first):
            yield (first,) + rest


class PartitionVector(tuple):
    """A non-empty tuple of partitions, one per link component."""

    __slots__ = ()

    def __new__(cls, components):
        components = tuple(map(Partition, components))
        if not components:
            raise ValueError("a partition vector has at least one component")
        return super().__new__(cls, components)

    @classmethod
    def parse(cls, text: str) -> "PartitionVector":
        """Parse the semicolon-separated form "(2);(1,1)"."""
        return cls(Partition.parse(c) for c in text.split(";"))

    def __str__(self):
        return ";".join(map(str, self))

    def __repr__(self):
        return f"PartitionVector({tuple(self)})"

    def conjugate(self) -> "PartitionVector":
        return PartitionVector(c.conjugate() for c in self)
