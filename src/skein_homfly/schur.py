"""Symmetric-function layer: unknot invariants and plethysm.

The central quantity is the colored unknot value

    s*_lambda(q, t) = sum over classes B of |lambda|:
        chi_lambda(C_B)/z_B * prod_j (t^{B_j} - t^{-B_j})/(q^{B_j} - q^{-B_j})

All such class sums (the torus engine feeds weighted versions of them) are
accumulated over one universal denominator

    D_n(q) = prod_{k=1}^{n} (q^k - q^{-k})^{floor(n/k)}

which every per-class bracket product divides, so summation never leaves a
single fraction.  The inner loops run on exact.py's univariate kernel of
integer-keyed dicts of integer coefficients; Fractions appear only at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .characters import character
from .errors import IntegralityViolation
from .exact import LaurentQT, RationalQT, _umul, div_bracket_coeffs
from .partitions import Partition, PartitionVector, partitions_of


def _udiv_bracket(a: dict, k: int) -> dict:
    """Exact division of a univariate q-polynomial by q^k - q^-k."""
    out = div_bracket_coeffs(a, k)
    assert out is not None, "bracket division not exact"
    return out


def _bracket_poly(k: int) -> dict:
    return {k: 1, -k: -1}


@lru_cache(maxsize=None)
def _universal_denominator_coeffs(n: int) -> tuple:
    """D_n(q) = prod_k (q^k - q^-k)^{floor(n/k)} as a sorted item tuple."""
    poly = {0: 1}
    for k in range(1, n + 1):
        for _ in range(n // k):
            poly = _umul(poly, _bracket_poly(k))
    return tuple(sorted(poly.items()))


def universal_denominator(n: int) -> LaurentQT:
    return LaurentQT({(e, 0): c for e, c in _universal_denominator_coeffs(n)})


@lru_cache(maxsize=None)
def _class_data(n: int) -> tuple:
    """(lcm of all z_nu, classes): one entry per class nu of n,
    (nu, z_nu, t-bracket product, D_n / q-bracket product)."""
    d_n = dict(_universal_denominator_coeffs(n))
    out = []
    for nu in partitions_of(n):
        tpoly = {0: 1}
        for p in nu:
            tpoly = _umul(tpoly, _bracket_poly(p))
        qco = dict(d_n)
        for p in nu:
            qco = _udiv_bracket(qco, p)
        out.append((nu, nu.z_factor(), tuple(sorted(tpoly.items())), tuple(sorted(qco.items()))))
    return lcm(*(z for _, z, _, _ in out)), tuple(out)


def character_bracket_sum(n: int, weights, ram: int = 1) -> RationalQT:
    """Accumulate sum_mu w_mu(q) * s*_mu over the universal denominator.

    ``n`` is at least 1.  ``weights`` maps each partition mu of n to a
    univariate q-polynomial given as {scaled exponent -> integer
    coefficient}, scaled by ``ram`` (exponent e stands for q^(e/ram)).  A
    fractional q-exponent surviving the summation raises
    IntegralityViolation.  The sum is reduced by ``RationalQT.simplified``.
    """
    zl, classes = _class_data(n)
    num = {}
    for nu, z, tpoly, qco in classes:
        g = {}
        for mu, w in weights.items():
            chi = character(mu, nu)
            if chi:
                for e, c in w.items():
                    s = g.get(e, 0) + chi * c
                    if s == 0:
                        g.pop(e, None)
                    else:
                        g[e] = s
        if not g:
            continue
        qscaled = {e * ram: c for e, c in qco}
        h = _umul(g, qscaled)
        mult = zl // z
        for te, tc in tpoly:
            f = tc * mult
            for qe, hc in h.items():
                key = (qe, te)
                s = num.get(key, 0) + f * hc
                if s == 0:
                    num.pop(key, None)
                else:
                    num[key] = s
    for qe, _ in num:
        if qe % ram:
            raise IntegralityViolation(f"fractional q-exponent {Fraction(qe, ram)} survived summation")
    terms = {(qe // ram, te): c for (qe, te), c in num.items()}
    return RationalQT(LaurentQT(terms), universal_denominator(n) * zl).simplified()


@lru_cache(maxsize=None)
def unknot_value(lam: Partition) -> RationalQT:
    """Colored invariant of the zero-framed unknot (the s* evaluation)."""
    if lam.size == 0:
        return RationalQT.one()
    return character_bracket_sum(lam.size, {lam: {0: 1}})


# -- plethysm coefficients ---------------------------------------------


@dataclass(frozen=True)
class SchurExpansion:
    """Integer expansion of a degree-homogeneous element on the Schur basis."""

    degree: int
    coeffs: dict

    def __post_init__(self):
        for p in self.coeffs:
            if p.size != self.degree:
                raise ValueError(f"partition {p} has size != {self.degree}")

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].parts, reverse=True)

    def __getitem__(self, p: Partition) -> int:
        return self.coeffs.get(p, 0)

    def __str__(self):
        return "\n".join(f"{p}: {c}" for p, c in self.sorted_items())


@lru_cache(maxsize=None)
def _plethysm_cached(m: int, colors: tuple) -> SchurExpansion:
    degrees = [a.size for a in colors]
    n = m * sum(degrees)
    if n == 0:
        return SchurExpansion(0, {Partition(()): 1})
    acc = {}
    for combo in product(*(partitions_of(d) for d in degrees)):
        w = Fraction(1)
        for a, b in zip(colors, combo):
            chi = character(a, b)
            if chi == 0:
                w = 0
                break
            w *= Fraction(chi, b.z_factor())
        if w == 0:
            continue
        rho = Partition(sorted((m * p for b in combo for p in b), reverse=True))
        for mu in partitions_of(n):
            chi = character(mu, rho)
            if chi:
                acc[mu] = acc.get(mu, 0) + w * chi
    out = {}
    for mu, c in acc.items():
        if c == 0:
            continue
        if c.denominator != 1:
            raise IntegralityViolation(f"non-integer plethysm coefficient {c} at {mu}")
        out[mu] = int(c)
    return SchurExpansion(n, out)


def plethysm_coefficients(m: int, colors) -> SchurExpansion:
    """Schur expansion of prod_alpha s_{A^alpha}(x_1^m, x_2^m, ...).

    The coefficient at mu is the class sum over tuples (B^1..B^L) of
    partitions of the color sizes:
        prod_alpha chi_{A^alpha}(C_{B^alpha})/z_{B^alpha}
        * chi_mu(C at the cycle type joining all parts m*B^alpha_j).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(colors, PartitionVector):
        colors = colors.components
    return _plethysm_cached(m, tuple(colors))
