"""Symmetric-function layer: unknot invariants and plethysm.

The central quantity is the colored unknot value

    s*_lambda(q, t) = sum over classes B of |lambda|:
        chi_lambda(C_B)/z_B * prod_j (t^{B_j} - t^{-B_j})/(q^{B_j} - q^{-B_j})

All such class sums (the torus engine feeds weighted versions of them) are
accumulated over one universal denominator

    D_n(q) = prod_{k=1}^{n} (q^k - q^{-k})^{floor(n/k)}

which every per-class bracket product divides, so summation never leaves a
single fraction.  The sum is Kronecker-packed (Harvey, J. Symbolic Comput.
2009): one integer coefficient per fixed-width slot of a big int, so each
class costs one big-int product.  ``class_sum_order`` takes one coefficient
at t = e^h from the classes with few parts, on exact.py's dict kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import factorial, gcd, lcm, prod
from operator import sub

from .characters import character
from .errors import IntegralityViolation
from .exact import LaurentQT, RationalQT, _umul
from .partitions import Partition, PartitionVector, partitions_of


def _brackets(powers: dict, scale: int = 1) -> dict:
    """prod_p (v^(p scale) - v^-(p scale))^powers[p] as an {exponent: coeff} dict."""
    out = {0: 1}
    for p, e in powers.items():
        for _ in range(e):
            out = _umul(out, {p * scale: 1, -p * scale: -1})
    return out


def _multiplicities(nu: Partition) -> dict:
    return {p: nu.multiplicity(p) for p in nu}


def _pack(digits: bytes, size: int, wide: int, spread: int) -> int:
    """Kronecker substitution: sum_k c_k X^(spread k) at X = 2^(8 wide), from
    the size-byte little-endian digits c_k + 2^(8 size - 1), size <= wide."""
    count = len(digits) // size
    out = bytearray(count * spread * wide)
    for j in range(size):
        out[j :: spread * wide] = digits[j::size]
    bias = (bytes(size - 1) + b"\x80" + bytes(spread * wide - size)) * count
    return int.from_bytes(out, "little") - int.from_bytes(bias, "little")


def _unpack(x: int, size: int) -> list:
    """The signed size-byte slots of a packed int, lowest first: adding half
    the range to every slot settles all borrows between slots at once."""
    count = x.bit_length() // (8 * size) + 1
    x += int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw, half = x.to_bytes(count * size, "little"), 1 << (8 * size - 1)
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]


def universal_denominator(n: int) -> LaurentQT:
    """D_n(q) = prod_k (q^k - q^-k)^{floor(n/k)}."""
    return LaurentQT({(e, 0): c for e, c in _class_data(n)[1]})


@lru_cache(maxsize=None)
def _class_data(n: int) -> tuple:
    """(lcm of all z_nu, D_n items, size, classes); per class nu of n the entry
    (nu, z_nu, t-bracket product items, k, l1, digits).

    prod_i (v^p_i - v^-p_i) is v^-(sum p_i) prod_i (X^p_i - 1) at X = v^2, a
    big-int product at X = 2^(8 size); size holds 2^(number of brackets in
    D_n), which bounds all their coefficients.  D_n / prod [nu_i], one exact
    division, is q^(n + min exponent of D_n) times a polynomial in q^k, kept
    as ``_pack`` digits with l1 its sum of |coefficients|.
    """
    size = (sum(n // k for k in range(1, n + 1)) + 9) // 8
    d_packed = prod(((1 << (8 * size * k)) - 1) ** (n // k) for k in range(1, n + 1))
    out = []
    for nu in partitions_of(n):
        brackets = prod((1 << (8 * size * p)) - 1 for p in nu)
        tpoly = tuple((2 * k - n, c) for k, c in enumerate(_unpack(brackets, size)) if c)
        q = _unpack(d_packed // brackets, size)
        step = gcd(*(k for k, c in enumerate(q) if c)) or 1
        digits = b"".join((c + (1 << (8 * size - 1))).to_bytes(size, "little") for c in q[::step])
        out.append((nu, nu.z_factor(), tpoly, 2 * step, sum(map(abs, q)), digits))
    deg = sum(k * (n // k) for k in range(1, n + 1))
    d_n = tuple((2 * k - deg, c) for k, c in enumerate(_unpack(d_packed, size)) if c)
    return lcm(*(entry[1] for entry in out)), d_n, size, tuple(out)


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

    Kronecker-packed: per class, g_nu and D_n / prod [nu_i] are one int each
    on one exponent lattice (step: the gcd of the actual offsets), multiplied
    once and added into one int per t-degree.  Slots hold the bound sum_nu
    |g_nu|_1 |quotient|_1 (zl / z_nu) max|t-coefficient| with a spare bit.
    """
    zl, d_n, qsize, classes = _class_data(n)
    rows, bound = [], 0
    for nu, z, tpoly, qstep, l1, digits in classes:
        if g := _class_weight(weights, nu):
            rows.append((g, tpoly, qstep * ram, digits, zl // z))
            bound += sum(map(abs, g.values())) * l1 * (zl // z) * max(abs(c) for _, c in tpoly)
    glow = min((min(g) for g, *_ in rows), default=0)
    step = gcd(*(gcd(qs, *map(sub, g, repeat(glow))) for g, _, qs, _, _ in rows)) or 1
    size = max(qsize, (bound.bit_length() + 9) // 8)
    acc = {}
    for g, tpoly, qs, digits, mult in rows:
        h = _pack(digits, qsize, size, qs // step) * mult
        h *= sum(c << (8 * size * ((e - glow) // step)) for e, c in g.items())
        for te, tc in tpoly:
            acc[te] = acc.get(te, 0) + tc * h
    low = glow + (d_n[0][0] + n) * ram
    slots = ((te, k, c) for te, x in acc.items() for k, c in enumerate(_unpack(x, size)) if c)
    num = {(_unscale(low + step * k, ram), te): c for te, k, c in slots}
    return RationalQT(LaurentQT(num), universal_denominator(n) * zl).simplified()


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
