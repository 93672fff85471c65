"""Independent oracles that only the tests use.

Schur polynomials by Jacobi-Trudi determinant expansion in explicit
variables, the symmetric-function generators they are built from, the
Hecke-algebra product with the two quasi-idempotent symmetrizers
(Aiston-Morton, Idempotents of Hecke algebras of type A, JKTR 1998), the
t = 1 leading term of a colored unknot from the hook-content product, the
class sum accumulated term by term in dicts (the route the packed
``schur.character_bracket_sum`` replaced), and a floating-point
evaluation of Laurent polynomials for numeric sanity checks.
None of this feeds a computed result of the package.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement, permutations
from math import lcm

from skein_homfly.exact import LaurentQT, RationalQT, _umul, div_bracket_coeffs, q_bracket, substitute
from skein_homfly.hecke import HeckeElement, all_permutations, apply_generator, perm_length
from skein_homfly.partitions import Partition, partitions_of
from skein_homfly.schur import _brackets, _class_weight, _unscale


# -- colored unknots at t = 1 ---------------------------------------------


def unknot_leading_term(lam: Partition):
    """(d, c): s*_lam = c h^d + O(h^(d+1)) at t = e^h, c a RationalQT in q.

    From the hook-content product prod_x (t q^c(x) - t^-1 q^-c(x)) / [h(x)],
    [k] = q^k - q^-k (Macdonald, Ch. I Sec. 3, Ex. 4): a cell of content 0
    contributes 2 sinh(h) = 2h + ..., any other cell [c(x)] + O(h).  So d is
    the number of content-0 cells and c = 2^d prod_{c(x) != 0} [c(x)] / prod [h(x)].
    """
    conj = lam.conjugate()
    d, num, den = 0, LaurentQT.monomial(1), LaurentQT.monomial(1)
    for i, p in enumerate(lam.parts):
        for j in range(p):
            if j == i:
                d += 1
            else:
                num = num * q_bracket(j - i)
            den = den * q_bracket(p - j + conj[j] - i - 1)
    return d, RationalQT(num * 2**d, den)


# -- class sums, one dict term at a time -----------------------------------


@cache
def _dict_class_data(n: int) -> tuple:
    """(lcm of all z_nu, D_n, classes) with the t-bracket product and the
    quotient D_n / prod [nu_i] of each class nu as item tuples, from bracket
    products and divisions on dicts."""
    d_n = _brackets({k: n // k for k in range(1, n + 1)})
    classes = []
    for nu in partitions_of(n):
        tpoly = _brackets({p: nu.multiplicity(p) for p in nu})
        qco = dict(d_n)
        for p in nu:
            qco = div_bracket_coeffs(qco, p)
        classes.append((nu, nu.z_factor(), tuple(tpoly.items()), tuple(qco.items())))
    return lcm(*(z for _, z, _, _ in classes)), d_n, tuple(classes)


def character_bracket_sum_dict(n: int, weights, ram: int = 1) -> RationalQT:
    """``schur.character_bracket_sum`` one dict term at a time, every q-term
    of g_nu * D_n / prod [nu_i] scattered into every t-degree: the value it
    hands to ``RationalQT.simplified``."""
    zl, d_n, classes = _dict_class_data(n)
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
    return RationalQT(LaurentQT(terms), LaurentQT({(e, 0): c for e, c in d_n.items()}) * zl)


# -- Jacobi-Trudi determinants -------------------------------------------


def _poly_mul_multi(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(k, 0) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def complete_symmetric_poly(m: int, nvars: int) -> dict:
    """h_m in nvars variables as {exponent tuple -> coefficient}."""
    if m < 0:
        return {}
    out = {}
    for combo in combinations_with_replacement(range(nvars), m):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def elementary_symmetric_poly(m: int, nvars: int) -> dict:
    """e_m in nvars variables."""
    if m < 0 or m > nvars:
        return {}
    out = {}
    for combo in combinations(range(nvars), m):
        e = [0] * nvars
        for i in combo:
            e[i] = 1
        out[tuple(e)] = 1
    return out


def power_sum_poly(k: int, nvars: int) -> dict:
    e0 = (0,) * nvars
    if k == 0:
        return {e0: nvars}
    out = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        out[tuple(e)] = 1
    return out


def jacobi_trudi_schur(lam: Partition, nvars: int, kind: str = "h") -> dict:
    """Schur polynomial of lam in nvars variables by determinant expansion.

    kind "h" uses det(h_{lam_i - i + j}); kind "e" uses the conjugate
    elementary variant det(e_{lam^t_i - i + j}).  Test oracle only.
    """
    if kind == "e":
        shape = lam.conjugate()
        gen = elementary_symmetric_poly
    else:
        shape = lam
        gen = complete_symmetric_poly
    l = shape.length
    if l == 0:
        return {(0,) * nvars: 1}
    if nvars < lam.length:
        raise ValueError("need at least l(lambda) variables")
    entries = {}
    for i in range(l):
        for j in range(l):
            entries[(i, j)] = gen(shape[i] - (i + 1) + (j + 1), nvars)
    total = {}
    for perm in permutations(range(l)):
        inv = sum(1 for i in range(l) for j in range(i + 1, l) if perm[i] > perm[j])
        prod_poly = {(0,) * nvars: 1}
        for i in range(l):
            prod_poly = _poly_mul_multi(prod_poly, entries[(i, perm[i])])
            if not prod_poly:
                break
        sign = -1 if inv % 2 else 1
        for e, c in prod_poly.items():
            s = total.get(e, 0) + sign * c
            if s == 0:
                total.pop(e, None)
            else:
                total[e] = s
    return total


# -- Hecke algebra products and quasi-idempotents --------------------------


def reduced_word(pi: tuple):
    """A reduced word (1-based generator indices) for the permutation."""
    cur = list(pi)
    sorting = []
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                sorting.append(i + 1)
                changed = True
    return list(reversed(sorting))


def hecke_add(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Sum of two elements on the same number of strands."""
    out = dict(x.terms)
    for pi, c in y.terms.items():
        out[pi] = out.get(pi, LaurentQT.zero()) + c
    return HeckeElement(x.n, out)  # the constructor drops zero coefficients


def hecke_scaled(x: HeckeElement, factor) -> HeckeElement:
    """Every coefficient of x multiplied by factor."""
    return HeckeElement(x.n, {pi: c * factor for pi, c in x.terms.items()})


def hecke_multiply(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra (right factor expanded by reduced words)."""
    if x.n != y.n:
        raise ValueError("strand counts differ")
    total = HeckeElement(x.n, {})
    for pi, c in y.terms.items():
        z = x
        for i in reduced_word(pi):
            z = apply_generator(z, i, 1)
        total = hecke_add(total, hecke_scaled(z, c))
    return total


def positive_symmetrizer(m: int) -> HeckeElement:
    """Sum of q^length * basis element over the symmetric group on m strands."""
    terms = {}
    for pi in all_permutations(m):
        terms[pi] = LaurentQT.monomial(1, perm_length(pi), 0)
    return HeckeElement(m, terms)


def negative_symmetrizer(m: int) -> HeckeElement:
    """Sum of (-q)^(-length) * basis element; the alternating companion."""
    terms = {}
    for pi in all_permutations(m):
        l = perm_length(pi)
        terms[pi] = LaurentQT.monomial(-1 if l % 2 else 1, -l, 0)
    return HeckeElement(m, terms)


def idempotent_scalars(m: int):
    """Eigenvalues (alpha_m, beta_m) of the two symmetrizers on themselves.

    alpha_m = q^(m(m-1)/2) * prod_{i=1..m} (q^i - q^-i)/(q - q^-1) expanded
    as an exact Laurent polynomial, and beta_m is its image under
    q -> -q^-1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    alpha = LaurentQT.monomial(1, m * (m - 1) // 2, 0)
    for i in range(1, m + 1):
        balanced = LaurentQT({(e, 0): 1 for e in range(i - 1, -i, -2)})
        alpha = alpha * balanced
    return alpha, substitute(alpha, q="-q^-1")


# -- numeric evaluation ----------------------------------------------------


def evaluate(p: LaurentQT, q_val: float, t_val: float) -> float:
    """Numerical evaluation; sanity-check hook only, never used for results."""
    total = 0.0
    for (qe, te), c in p.terms.items():
        total += float(c) * (float(q_val) ** float(qe)) * (float(t_val) ** te)
    return total
