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
class costs one big-int product.  One big-int division per t-degree
takes the sum down to the colors' hook denominator prod [h(x)] (the
hook-content formula: Macdonald, Symmetric Functions and Hall Polynomials,
I.3 Ex. 4), falling back to D_n when it is not exact.  Its t-slices go to
``exact._over_q`` (shared with the Markov trace), which strips the common
Phi_d(q^2) and builds one RationalQT, in one form over either denominator.
``class_sum_order`` takes one coefficient at t = e^h from the classes with
few parts, on exact.py's dict kernel; its weight-free part is built once
per (n, j).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat
from math import factorial, gcd, lcm, prod
from operator import sub

from .characters import _beta_mask, _char
from .errors import IntegralityViolation
from .exact import RationalQT, _brackets, _over_q, _packed_div, _umul, _unpack
from .partitions import Partition, partitions_of


def _pack(digits: bytes, size: int, wide: int, spread: int) -> int:
    """Kronecker substitution: sum_k c_k X^(spread k) at X = 2^(8 wide), from
    the size-byte little-endian digits c_k + 2^(8 size - 1), size <= wide."""
    count = len(digits) // size
    out = bytearray(count * spread * wide)
    for j in range(size):
        out[j :: spread * wide] = digits[j::size]
    bias = (bytes(size - 1) + b"\x80" + bytes(spread * wide - size)) * count
    return int.from_bytes(out, "little") - int.from_bytes(bias, "little")


def _digits(coeffs, size: int) -> bytes:
    """The biased size-byte digits of signed coefficients that ``_pack`` reads.

    Digits of at most 8 bytes are written in one step, as ``exact._unpack``
    reads them: one ``struct.pack`` writes the biased coefficients as
    little-endian unsigned 64-bit lanes, and strided copies take each lane's
    low size bytes.  A wider digit fits no lane and is written on its own.
    """
    half = 1 << (8 * size - 1)
    if size > 8:
        return b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    biased = [c + half for c in coeffs]
    lanes = struct.pack(f"<{len(biased)}Q", *biased)
    out = bytearray(len(biased) * size)
    for j in range(size):
        out[j::size] = lanes[j::8]
    return bytes(out)


@lru_cache(maxsize=None)
def _class_data(n: int) -> tuple:
    """(lcm of all z_nu, D_n items, size, classes); per class nu of n the entry
    (nu, z_nu, t-bracket product items, k, l1, digits).

    prod_i (v^p_i - v^-p_i) is v^-(sum p_i) prod_i (X^p_i - 1) at X = v^2, a
    big-int product at X = 2^(8 size); size holds 2^(number of brackets in
    D_n), which bounds all their coefficients.  D_n / prod [nu_i], one exact
    division, is q^(n + min exponent of D_n) times a polynomial in q^k, kept
    as ``_pack`` digits with l1 its sum of |coefficients|.

    In X that quotient is prod_k (X^k - 1)^e_k, e_k = n // k - m_k(nu), so it
    is a polynomial in X^g for g the gcd of the k with e_k > 0, and in no
    larger power: if it were a polynomial in X^G, its roots would be
    invariant under a primitive G-th root of unity zeta, with multiplicities.
    The root 1 has multiplicity sum_k e_k and zeta has sum over G | k of e_k,
    so every k with e_k > 0 is a multiple of G, and G divides g.  So g, read
    off the brackets, is the step no scan of the coefficients could widen.
    """
    size = (sum(n // k for k in range(1, n + 1)) + 9) // 8
    d_packed = prod(((1 << (8 * size * k)) - 1) ** (n // k) for k in range(1, n + 1))
    out = []
    for nu in partitions_of(n):
        brackets = prod((1 << (8 * size * p)) - 1 for p in nu)
        tpoly = tuple((2 * k - n, c) for k, c in enumerate(_unpack(brackets, size)) if c)
        q = _unpack(d_packed // brackets, size)
        step = gcd(*(k for k in range(1, n + 1) if n // k > nu.count(k))) or 1
        out.append((nu, nu.z_factor(), tpoly, 2 * step, sum(map(abs, q)), _digits(q[::step], size)))
    deg = sum(k * (n // k) for k in range(1, n + 1))
    d_n = tuple((2 * k - deg, c) for k, c in enumerate(_unpack(d_packed, size)) if c)
    return lcm(*(entry[1] for entry in out)), d_n, size, tuple(out)


def _class_weight(weights, nu: Partition) -> dict:
    """g_nu = sum_mu w_mu chi_mu(nu) as an {exponent: coeff} dict."""
    g = {}
    for mu, w in weights.items():
        if chi := _char(_beta_mask(mu), nu):
            for e, c in w.items():
                g[e] = g.get(e, 0) + chi * c
    return {e: c for e, c in g.items() if c}


@lru_cache(maxsize=None)
def _hook_cofactor(n: int, hooks: tuple) -> tuple:
    """(X-digits as in ``_class_data``, lowest q-exponent, l1) of the cofactor
    C = D_n / prod_h [h] over the sorted hook lengths ``hooks``, and prod_h [h]
    as an {exponent: coeff} dict.

    C is a product of brackets: the hooks of A with length divisible by k
    are as many as the k-rim hooks that can be stripped off A one after
    another (Macdonald, I.1 Ex. 8), so at most |A| // k, and when the
    colors' total size is at most n no bracket of D_n is used up.  Its
    coefficients then fit _class_data's slot like D_n's.
    """
    size, mult = _class_data(n)[2], Counter(hooks)
    powers = {k: n // k - mult[k] for k in range(1, n + 1)}
    coeffs = _unpack(prod(((1 << (8 * size * k)) - 1) ** e for k, e in powers.items()), size)
    low = -sum(k * e for k, e in powers.items())
    return _digits(coeffs, size), low, sum(map(abs, coeffs)), _brackets(mult)


def character_bracket_sum(n: int, weights, colors, t_shift: int = 0) -> RationalQT:
    """Accumulate sum_mu w_mu(q) * s*_mu over the universal denominator.

    ``n`` is at least 1.  ``weights`` maps each partition mu of n to a
    univariate q-polynomial given as {integer exponent -> integer
    coefficient}.  All p(n) classes enter; ``exact._over_q`` reduces the
    sum's t-slices.  ``class_sum_order`` takes one coefficient of the same
    sum at t = 1 from far fewer classes.

    Kronecker-packed: per class, g_nu and D_n / prod [nu_i] are one int each
    on one exponent lattice (step: the gcd of the actual offsets), multiplied
    once and added into one int per t-degree.  Slots hold the bound sum_nu
    |g_nu|_1 |quotient|_1 (zl / z_nu) max|t-coefficient| with a spare bit.

    ``colors``, the colors of the link whose value the weights give (total
    size at most n; ``()`` stands for a hook product of 1), let the sum skip
    most of the cancellation: by the hook-content formula the value times
    prod_i prod_{x in A_i} [h(x)] is expected to be Laurent, so each
    t-degree's int is divided by the packed cofactor D_n / prod [h]
    (``_hook_cofactor``, ``_packed_div``) and ``_over_q`` gets the quotients
    over zl prod [h].  When one division is not exact or fails its slot
    check, the sum goes over zl D_n; the value is the same either way.
    ``t_shift`` is added to the t-slice keys before ``_over_q``: the sum
    comes out times t^t_shift with no product.
    """
    zl, d_n, qsize, classes = _class_data(n)
    hooks = tuple(sorted(h for a in colors for h in a.hook_lengths()))
    cdigits, clow, cl1, hook_den = _hook_cofactor(n, hooks)
    rows, bound = [], 0
    for nu, z, tpoly, qstep, l1, digits in classes:
        if g := _class_weight(weights, nu):
            rows.append((g, tpoly, qstep, digits, zl // z))
            bound += sum(map(abs, g.values())) * l1 * (zl // z) * max(abs(c) for _, c in tpoly)
    glow = min((min(g) for g, *_ in rows), default=0)
    # the cofactor's exponents are steps of 2 apart
    step = gcd(2, *(gcd(qs, *map(sub, g, repeat(glow))) for g, _, qs, _, _ in rows))
    # spare bits for the quotients, which may outgrow the sum's coefficients
    size = max(qsize, (bound.bit_length() + 9 + 2 * cl1.bit_length()) // 8)
    acc = {}
    for g, tpoly, qs, digits, mult in rows:
        h = _pack(digits, qsize, size, qs // step) * mult
        h *= sum(c << (8 * size * ((e - glow) // step)) for e, c in g.items())
        for te, tc in tpoly:
            acc[te] = acc.get(te, 0) + tc * h
    low = glow + d_n[0][0] + n
    c = _pack(cdigits, qsize, size, 2 // step)
    quots = {te: _packed_div(x, c, cl1, size) for te, x in acc.items()}
    if None not in quots.values():
        slots, low, den = quots, low - clow, hook_den
    else:
        slots, den = {te: _unpack(x, size) for te, x in acc.items()}, dict(d_n)
    ns = {
        te + t_shift: {low + step * k: c for k, c in enumerate(s) if c} for te, s in slots.items() if any(s)
    }
    return _over_q(ns, {e: c * zl for e, c in den.items()})


@lru_cache(maxsize=None)
def _order_data(n: int, j: int) -> tuple:
    """What ``class_sum_order`` needs that no weight enters, built once per
    (n, j): (classes, denominator), per summed class nu the entry (nu, f,
    qco), f its h^j coefficient times j! lcm(z) / z_nu and qco the brackets
    that bring it over the denominator.  The dicts are shared by every call
    and never mutated."""
    classes = [nu for nu in partitions_of(n) if len(nu) <= j and (j - len(nu)) % 2 == 0]
    parts = {p for nu in classes for p in nu}
    powers = {p: max(nu.count(p) for nu in classes) for p in parts}
    zl = lcm(*(nu.z_factor() for nu in classes))
    out = []
    for nu in classes:
        mult = {p: nu.count(p) for p in nu}
        f = sum(c * te**j for te, c in _brackets(mult).items()) * (zl // nu.z_factor())
        out.append((nu, f, _brackets({p: e - mult.get(p, 0) for p, e in powers.items()})))
    return tuple(out), _umul({0: factorial(j) * zl}, _brackets(powers))


def class_sum_order(n: int, weights, j: int) -> tuple:
    """[h^j] of sum_mu w_mu(q) * s*_mu at t = e^h, as (numerator, denominator).

    Both are {q-exponent: integer} dicts; ``weights`` are as in
    ``character_bracket_sum``.
    Each t^p - t^-p = 2 sinh(ph) is odd in h, so class nu enters at orders
    l(nu), l(nu) + 2, ...: only the classes with l(nu) <= j and l(nu) = j
    (mod 2) are summed.  The h^j coefficient of a class's t-bracket product
    is sum_te c_te te^j / j!.  The denominator is j! lcm(z_nu) prod_p [p]^e_p,
    e_p the most parts p in one summed class, so e_p <= min(j, n // p).
    That part, with each class's coefficient and brackets, is built once per
    (n, j) (``_order_data``); a call sums the weights' class values over it.
    """
    classes, den = _order_data(n, j)
    num = {}
    for nu, f, qco in classes:
        for qe, c in _umul(_class_weight(weights, nu), qco).items():
            num[qe] = num.get(qe, 0) + f * c
    return {qe: c for qe, c in num.items() if c}, dict(den)


@lru_cache(maxsize=None)
def unknot_value(lam: Partition) -> RationalQT:
    """Colored invariant of the zero-framed unknot (the s* evaluation)."""
    lam = Partition(lam)
    if lam.size == 0:
        return RationalQT.one()
    return character_bracket_sum(lam.size, {lam: {0: 1}}, (lam,))


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
        return sorted(self.coeffs.items(), reverse=True)

    def __str__(self):
        return "\n".join(f"{p}: {c}" for p, c in self.sorted_items())


@lru_cache(maxsize=None)
def _plethysm_cached(m: int, colors: tuple) -> SchurExpansion:
    """The expansion in integers: each color's weights chi/z_B are scaled by
    the lcm of z_B over the partitions B of its degree, and one ``divmod`` by
    the product of those lcms ends the sum; IntegralityViolation when it
    leaves a remainder."""
    degrees = [a.size for a in colors]
    n = m * sum(degrees)
    if n == 0:
        return SchurExpansion(0, {Partition(()): 1})
    zls = [lcm(*(b.z_factor() for b in partitions_of(d))) for d in degrees]
    masks = [_beta_mask(a) for a in colors]
    acc = {}
    for combo in product(*(partitions_of(d) for d in degrees)):
        w = prod(_char(k, b) * (zl // b.z_factor()) for k, b, zl in zip(masks, combo, zls))
        if w == 0:
            continue
        rho = tuple(sorted((m * p for b in combo for p in b), reverse=True))
        for mu in partitions_of(n):
            if chi := _char(_beta_mask(mu), rho):
                acc[mu] = acc.get(mu, 0) + w * chi
    scale, out = prod(zls), {}
    for mu, c in acc.items():
        coeff, rem = divmod(c, scale)
        if rem:
            raise IntegralityViolation(f"non-integer plethysm coefficient {c}/{scale} at {mu}")
        if coeff:
            out[mu] = coeff
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
    return _plethysm_cached(m, tuple(map(Partition, colors)))
