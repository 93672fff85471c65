"""Independent oracles that only the tests use.

Schur polynomials by Jacobi-Trudi determinant expansion in explicit
variables, the symmetric-function generators they are built from, the
Hecke-algebra product with the two quasi-idempotent symmetrizers
(Aiston-Morton, Idempotents of Hecke algebras of type A, JKTR 1998), the
t = 1 leading term of a colored unknot from the hook-content product, and
a floating-point evaluation of Laurent polynomials for numeric sanity
checks.
None of this feeds a computed result of the package.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

from skein_homfly.exact import LaurentQT, RationalQT, q_bracket, substitute
from skein_homfly.hecke import HeckeElement, all_permutations, apply_generator, perm_length
from skein_homfly.partitions import Partition


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
