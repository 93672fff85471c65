"""Independent oracles that only the tests use.

Schur polynomials by Jacobi-Trudi determinant expansion in explicit
variables, the symmetric-function generators they are built from, and a
floating-point evaluation of Laurent polynomials for numeric sanity checks.
None of this feeds a computed result of the package.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

from skein_homfly.exact import LaurentQT
from skein_homfly.partitions import Partition


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


# -- numeric evaluation ----------------------------------------------------


def evaluate(p: LaurentQT, q_val: float, t_val: float) -> float:
    """Numerical evaluation; sanity-check hook only, never used for results."""
    total = 0.0
    for (qe, te), c in p.terms.items():
        total += float(c) * (float(q_val) ** float(qe)) * (float(t_val) ** te)
    return total
