"""Integer partitions: construction, statistics, conjugation, enumeration.

Partitions index everything downstream: symmetric group classes and
irreducible characters, Schur-basis decorations, and the twist exponents of
torus link invariants.  The two scalar statistics that matter most are

    z(lambda) = prod_j j^{m_j} * m_j!       (centralizer order)
    k(lambda) = sum_j lambda_j*(lambda_j - 2j + 1)   (framing exponent)

with m_j the multiplicity of the part j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import index


class Partition:
    """A weakly decreasing sequence of positive integers; () is empty."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(index(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form "(3,1,1)"; "[]" or "()" denote the empty partition."""
        s = text.strip()
        if s in ("[]", "()", ""):
            return cls(())
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        body = s.strip()
        if not body:
            return cls(())
        return cls(int(p) for p in body.split(","))

    def __str__(self):
        if not self.parts:
            return "[]"
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self):
        return f"Partition({self.parts})"

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return self.parts.count(i)

    def z_factor(self) -> int:
        """Order of the centralizer of a permutation with this cycle type."""
        z = 1
        for j in set(self.parts):
            m = self.parts.count(j)
            z *= j ** m * factorial(m)
        return z

    def k_invariant(self) -> int:
        """Framing exponent sum lambda_j*(lambda_j - 2j + 1); always even."""
        return sum(p * (p - 2 * j + 1) for j, p in enumerate(self.parts, start=1))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def hook_lengths(self):
        """Multiset of hook lengths, row by row."""
        t = self.conjugate().parts
        out = []
        for i, p in enumerate(self.parts):
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


@dataclass(frozen=True)
class PartitionVector:
    """An ordered tuple of partitions, one per link component."""

    components: tuple

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("a partition vector has at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def parse(cls, text: str) -> "PartitionVector":
        """Parse the semicolon-separated form "(2);(1,1)"."""
        return cls(tuple(Partition.parse(c) for c in text.split(";")))

    def __str__(self):
        return ";".join(str(c) for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def conjugate(self) -> "PartitionVector":
        return PartitionVector(tuple(c.conjugate() for c in self.components))
