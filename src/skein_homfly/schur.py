"""Symmetric-function layer: unknot invariants and plethysm.

The central quantity is the colored unknot value

    s*_lambda(q, t) = sum over classes B of |lambda|:
        chi_lambda(C_B)/z_B * prod_j (t^{B_j} - t^{-B_j})/(q^{B_j} - q^{-B_j})

All such class sums (the torus engine feeds weighted versions of them) are
accumulated over one universal denominator

    D_n(q) = prod_{k=1}^{n} (q^k - q^{-k})^{floor(n/k)}

which every per-class bracket product divides, so summation never leaves a
single fraction.  ``class_sum_order`` takes one coefficient of such a sum
at t = e^h instead, from the classes with few parts only.  The inner loops
run on exact.py's univariate kernel of integer-keyed dicts of integer
coefficients; Fractions appear only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .characters import character
from .errors import IntegralityViolation
from .exact import LaurentQT, RationalQT, _umul, div_bracket_coeffs
from .partitions import Partition, PartitionVector, partitions_of


def _udiv_bracket(a: dict, k: int) -> dict:
    """Exact division of a univariate q-polynomial by q^k - q^-k."""
    out = div_bracket_coeffs(a, k)
    assert out is not None, "bracket division not exact"
    return out


def _brackets(powers: dict, scale: int = 1) -> dict:
    """prod_p (v^(p scale) - v^-(p scale))^powers[p] as an {exponent: coeff} dict."""
    out = {0: 1}
    for p, e in powers.items():
        for _ in range(e):
            out = _umul(out, {p * scale: 1, -p * scale: -1})
    return out


def _multiplicities(nu: Partition) -> dict:
    return {p: nu.multiplicity(p) for p in nu}


@lru_cache(maxsize=None)
def _universal_denominator_coeffs(n: int) -> tuple:
    """D_n(q) = prod_k (q^k - q^-k)^{floor(n/k)} as a sorted item tuple."""
    return tuple(sorted(_brackets({k: n // k for k in range(1, n + 1)}).items()))


def universal_denominator(n: int) -> LaurentQT:
    return LaurentQT({(e, 0): c for e, c in _universal_denominator_coeffs(n)})


@lru_cache(maxsize=None)
def _class_data(n: int) -> tuple:
    """(lcm of all z_nu, classes): one entry per class nu of n,
    (nu, z_nu, t-bracket product, D_n / q-bracket product)."""
    d_n = dict(_universal_denominator_coeffs(n))
    out = []
    for nu in partitions_of(n):
        tpoly = _brackets(_multiplicities(nu))
        qco = dict(d_n)
        for p in nu:
            qco = _udiv_bracket(qco, p)
        out.append((nu, nu.z_factor(), tuple(sorted(tpoly.items())), tuple(sorted(qco.items()))))
    return lcm(*(z for _, z, _, _ in out)), tuple(out)


def _class_weight(weights, nu: Partition) -> dict:
    """g_nu = sum_mu w_mu chi_mu(nu), on the weights' scaled exponent lattice."""
    g = {}
    for mu, w in weights.items():
        chi = character(mu, nu)
        if chi:
            for e, c in w.items():
                g[e] = g.get(e, 0) + chi * c
    return {e: c for e, c in g.items() if c}


def _unscale(qe: int, ram: int) -> int:
    """A scaled q-exponent as an integer; IntegralityViolation if it is not one."""
    if qe % ram:
        raise IntegralityViolation(f"fractional q-exponent {Fraction(qe, ram)} survived summation")
    return qe // ram


def character_bracket_sum(n: int, weights, ram: int = 1) -> RationalQT:
    """Accumulate sum_mu w_mu(q) * s*_mu over the universal denominator.

    ``n`` is at least 1.  ``weights`` maps each partition mu of n to a
    univariate q-polynomial given as {scaled exponent -> integer
    coefficient}, scaled by ``ram`` (exponent e stands for q^(e/ram)).  A
    fractional q-exponent surviving the summation raises
    IntegralityViolation.  All p(n) classes enter; the sum is reduced by
    ``RationalQT.simplified``.  ``class_sum_order`` takes one coefficient of
    the same sum at t = 1 from far fewer classes.
    """
    zl, classes = _class_data(n)
    num = {}
    for nu, z, tpoly, qco in classes:
        g = _class_weight(weights, nu)
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
    terms = {(_unscale(qe, ram), te): c for (qe, te), c in num.items()}
    return RationalQT(LaurentQT(terms), universal_denominator(n) * zl).simplified()


def class_sum_order(n: int, weights, j: int, ram: int = 1) -> tuple:
    """[h^j] of sum_mu w_mu(q) * s*_mu at t = e^h, as (numerator, denominator).

    Both are {q-exponent: integer} dicts; ``weights`` and ``ram`` are as in
    ``character_bracket_sum``, and so is the IntegralityViolation check.
    Each t^p - t^-p = 2 sinh(ph) is odd in h, so class nu enters at orders
    l(nu), l(nu) + 2, ...: only the classes with l(nu) <= j and l(nu) = j
    (mod 2) are summed.  The h^j coefficient of a class's t-bracket product
    is sum_te c_te te^j / j!.  The denominator is j! lcm(z_nu) prod_p [p]^e_p,
    e_p the most parts p in one summed class, so e_p <= min(j, n // p).
    """
    classes = [nu for nu in partitions_of(n) if nu.length <= j and (j - nu.length) % 2 == 0]
    parts = {p for nu in classes for p in nu}
    powers = {p: max(nu.multiplicity(p) for nu in classes) for p in parts}
    zl = lcm(*(nu.z_factor() for nu in classes))
    num = {}
    for nu in classes:
        mult = _multiplicities(nu)
        f = sum(c * te**j for te, c in _brackets(mult).items()) * (zl // nu.z_factor())
        qco = _brackets({p: e - mult.get(p, 0) for p, e in powers.items()}, ram)
        for qe, c in _umul(_class_weight(weights, nu), qco).items():
            num[qe] = num.get(qe, 0) + f * c
    den = _umul({0: factorial(j) * zl}, _brackets(powers))
    return {_unscale(qe, ram): c for qe, c in num.items() if c}, den


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
