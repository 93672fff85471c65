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


def integer(text: str, signed: bool = True) -> int:
    """The integer that text spells in ASCII digits, with whitespace around it
    and, when signed, one leading '-'.  ValueError on '+', '_' separators and
    other scripts' digits, all of which int() takes."""
    s = text.strip()
    digits = s[1:] if signed and s.startswith("-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}: write ASCII digits")
    return int(s)


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
        """Parse the text form "(3,1,1)": parts separated by commas, wrapped
        in one pair of ( ) or [ ] or in nothing, with whitespace around each;
        "()" or "[]", with or without whitespace inside, is the empty
        partition."""
        s = text.strip()
        if not s:
            raise ValueError(f"blank partition {text!r}: write the empty partition as [] or ()")
        if s[0] in "([" or s[-1] in ")]":
            if s[0] + s[-1] not in ("()", "[]"):
                raise ValueError(f"unmatched brackets in partition {text!r}: write it as (3,1,1) or [3,1,1]")
            s = s[1:-1].strip()
        if any(c in s for c in "()[]"):
            raise ValueError(
                f"brackets inside partition {text!r}: only one pair of ( ) or [ ] is read;"
                " write it as (3,1,1) or [3,1,1]"
            )
        return cls(integer(p, signed=False) for p in s.split(",")) if s else cls(())

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
    return tuple(partitions_within(n))


def partitions_within(n: int, durfee=None, parts=None):
    """The partitions of n with Durfee size at most ``durfee`` (mu_(durfee+1)
    <= durfee) and at most ``parts`` parts, None for no bound, in
    ``partitions_of``'s order.

    Each next partition lowers the last part that can lose a box while the
    boxes after it still fit the bounds, then refills greedily, so none
    outside the bounds is built: the work follows the count listed, not
    p(n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    k = n if durfee is None else durfee
    slots = n if parts is None else parts

    def room(i, v):
        """The most boxes the parts from index i on hold, each at most v."""
        wide = max(min(k, slots) - i, 0)
        return wide * v + max(slots - i - wide, 0) * min(v, k)

    if n > room(0, n):
        return
    p, r = [], n
    while True:
        while r:
            # copies of the largest part allowed, which drops to k at index k
            i = len(p)
            v = min(p[-1] if p else n, r, n if i < k else k)
            c = r // v if i >= k else min(r // v, k - i)
            p += [v] * c
            r -= v * c
        # within the bounds by construction: no need for Partition's checks
        yield tuple.__new__(Partition, p)
        ones = p.count(1)
        del p[len(p) - ones :]
        r += ones
        while p:
            v = p.pop() - 1
            r += v + 1
            if r - v <= room(len(p) + 1, v):
                p.append(v)
                r -= v
                break
        else:
            return


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
