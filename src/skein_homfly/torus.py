"""Colored HOMFLY polynomials of torus links and disjoint unions.

For the torus link on m*L strands closed after n*L elementary twists
(components are (m, n) torus knots, gcd(m, n) = 1) the invariant colored
by partitions A^1..A^L is

    q^(-m n sum k_A) * t^(-n(m-1) sum |A|)
      * sum over mu of C^mu_{A^1..A^L} * q^((n/m) k_mu) * s*_mu(q, t)

where C^mu are the plethysm coefficients and k_mu the framing exponent.
Every twist exponent (n/m) k_mu with C^mu != 0 is an integer, term by term
(``_torus_weights``), so the class sums see integer q-exponents only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import IntegralityViolation, NonCoprime
from .exact import RationalQT, delta
from .partitions import Partition
from .schur import character_bracket_sum, plethysm_coefficients, unknot_value


@dataclass(frozen=True)
class TorusLinkSpec:
    """Torus link on m*L strands with n*L twists, one color per component."""

    m: int
    n: int
    L: int
    colors: tuple

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if gcd(self.m, abs(self.n)) != 1:
            raise NonCoprime(f"gcd({self.m}, {self.n}) != 1")
        if self.L < 1 or len(self.colors) != self.L:
            raise ValueError("need exactly L colors")

    def all_colors(self) -> tuple:
        return self.colors

    def conjugate_colors(self) -> "TorusLinkSpec":
        return TorusLinkSpec(self.m, self.n, self.L, tuple(c.conjugate() for c in self.colors))

    def __str__(self):
        cs = ";".join(str(c) for c in self.colors)
        return f"T({self.m}*{self.L},{self.n}*{self.L})[{cs}]"


@dataclass(frozen=True)
class UnknotSpec:
    """Zero-framed unknot with one color; kept distinct from torus specs."""

    colors: tuple

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.colors) != 1:
            raise ValueError("the unknot has one component")

    L = 1

    def all_colors(self) -> tuple:
        return self.colors

    def conjugate_colors(self) -> "UnknotSpec":
        return UnknotSpec((self.colors[0].conjugate(),))

    def __str__(self):
        return f"unknot[{self.colors[0]}]"


@dataclass(frozen=True)
class DisjointUnion:
    """Split union of knots, each carrying its own color."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if c.L != 1:
                raise ValueError("disjoint unions are built from knots (L = 1)")

    @property
    def L(self):
        return len(self.components)

    def all_colors(self) -> tuple:
        return tuple(c.all_colors()[0] for c in self.components)

    def conjugate_colors(self) -> "DisjointUnion":
        return DisjointUnion(tuple(c.conjugate_colors() for c in self.components))

    def __str__(self):
        return " u ".join(str(c) for c in self.components)


@dataclass(frozen=True)
class ColoredInvariant:
    """An exact colored invariant value together with the link it belongs to."""

    value: RationalQT
    spec: object


def _torus_weights(m: int, n: int, colors: tuple):
    """(weights {mu: {n k_mu / m - m n sum k_A: C^mu}}, degree, te): the twist
    weights with the prefactor's q-power folded in, and the prefactor's
    t-exponent te = -n (m - 1) sum |A|.

    Each exponent is an integer.  By Littlewood's rule for s_A(x^m) (Proc.
    R. Soc. A 209, 1951) every mu with C^mu != 0 has an empty m-core, so mu
    is tiled by m-ribbons; the contents of one ribbon are m consecutive
    integers, whose sum is divisible by m, so m divides k_mu = 2 sum c(x).
    A mu that breaks this raises IntegralityViolation.
    """
    expansion = plethysm_coefficients(m, colors)
    shift = m * n * sum(a.k_invariant() for a in colors)
    weights = {}
    for mu, c in expansion.coeffs.items():
        k, rem = divmod(mu.k_invariant(), m)
        if rem:
            raise IntegralityViolation(f"k = {mu.k_invariant()} of {mu} is not divisible by m = {m}")
        weights[mu] = {n * k - shift: c}
    return weights, expansion.degree, -n * (m - 1) * sum(a.size for a in colors)


@lru_cache(maxsize=None)
def _torus_value(m: int, n: int, colors: tuple) -> RationalQT:
    weights, n_total, te = _torus_weights(m, n, colors)
    if n_total == 0:
        return RationalQT.one()
    return character_bracket_sum(n_total, weights, colors, te)


def colored_homfly_torus(spec: TorusLinkSpec) -> ColoredInvariant:
    """Colored invariant of a torus link from the plethysm expansion."""
    return ColoredInvariant(_torus_value(spec.m, spec.n, spec.colors), spec)


def colored_homfly_unknot(spec: UnknotSpec) -> ColoredInvariant:
    return ColoredInvariant(unknot_value(spec.colors[0]), spec)


def colored_homfly_disjoint_union(knots) -> ColoredInvariant:
    """Product formula for a split union of colored knots."""
    knots = tuple(knots)
    value = RationalQT.one()
    for k in knots:
        value = value * colored_homfly(k).value
    return ColoredInvariant(value, DisjointUnion(knots))


def colored_homfly(spec) -> ColoredInvariant:
    """Dispatch on the spec variant."""
    if isinstance(spec, TorusLinkSpec):
        return colored_homfly_torus(spec)
    if isinstance(spec, UnknotSpec):
        return colored_homfly_unknot(spec)
    if isinstance(spec, DisjointUnion):
        return colored_homfly_disjoint_union(spec.components)
    raise TypeError(f"unsupported link spec: {spec!r}")


def uncolored_homfly_torus_knot(m: int, n: int):
    """Single-box invariant of the (m, n) torus knot and its normalization.

    Returns (framed value W, normalized P) where P = W / delta is the
    ordinary HOMFLY polynomial of the knot.
    """
    if gcd(m, abs(n)) != 1:
        raise NonCoprime(f"gcd({m}, {n}) != 1")
    w = _torus_value(m, n, (Partition((1,)),))
    return w, RationalQT((w / delta()).as_laurent())
