"""Colored HOMFLY polynomials of torus links.

For the torus link on m*L strands closed after n*L elementary twists
(components are (m, n) torus knots, gcd(m, n) = 1) the invariant colored
by partitions A^1..A^L is

    q^(-m n sum k_A) * t^(-n(m-1) sum |A|)
      * sum over mu of C^mu_{A^1..A^L} * q^((n/m) k_mu) * s*_mu(q, t)

where C^mu are the plethysm coefficients and k_mu the framing exponent.
Every twist exponent (n/m) k_mu with C^mu != 0 is an integer, term by term
(``_torus_weights``), so the class sums see integer q-exponents only.

The torus links are the package's one link type: T(1, 0) is the unknot,
``TorusLinkSpec(1, 0, 1, (A,))`` gives s*_A, and ``TorusLinkSpec(1, 0, L,
colors)`` is the L-component unlink, the product of its unknots' values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import index

from .errors import IntegralityViolation, NonCoprime
from .exact import RationalQT, delta
from .partitions import Partition, PartitionVector
from .schur import character_bracket_sum, plethysm_coefficients


@dataclass(frozen=True)
class TorusLinkSpec:
    """Torus link on m*L strands with n*L twists, one color per component."""

    m: int
    n: int
    L: int
    colors: PartitionVector

    def __post_init__(self):
        for name in ("m", "n", "L"):
            object.__setattr__(self, name, index(getattr(self, name)))
        colors = tuple(self.colors)
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if gcd(self.m, abs(self.n)) != 1:
            raise NonCoprime(f"gcd({self.m}, {self.n}) != 1")
        if self.L < 1 or len(colors) != self.L:
            raise ValueError("need exactly L colors")
        object.__setattr__(self, "colors", PartitionVector(colors))

    def conjugate_colors(self) -> "TorusLinkSpec":
        return TorusLinkSpec(self.m, self.n, self.L, self.colors.conjugate())

    def __str__(self):
        return f"T({self.m}*{self.L},{self.n}*{self.L})[{self.colors}]"


@dataclass(frozen=True)
class ColoredInvariant:
    """An exact colored invariant value together with the link it belongs to."""

    value: RationalQT
    spec: TorusLinkSpec


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


def colored_homfly(spec: TorusLinkSpec) -> ColoredInvariant:
    """Colored invariant of a torus link from the plethysm expansion."""
    if not isinstance(spec, TorusLinkSpec):
        raise TypeError(f"unsupported link spec: {spec!r}")
    return ColoredInvariant(_torus_value(spec.m, spec.n, spec.colors), spec)


colored_homfly_torus = colored_homfly


@lru_cache(maxsize=None)
def uncolored_homfly_torus_knot(m: int, n: int):
    """Single-box invariant of the (m, n) torus knot and its normalization.

    Returns (framed value W, normalized P) where P = W / delta is the
    ordinary HOMFLY polynomial of the knot, both built once per (m, n): the
    Hecke oracle compares every closure with P.
    """
    if gcd(m, abs(n)) != 1:
        raise NonCoprime(f"gcd({m}, {n}) != 1")
    w = _torus_value(m, n, (Partition((1,)),))
    return w, RationalQT((w / delta()).as_laurent())
