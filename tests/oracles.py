"""Independent oracles that only the tests use.

Schur polynomials by Jacobi-Trudi determinant expansion in explicit
variables, the symmetric-function generators they are built from, the
Hecke-algebra product with the two quasi-idempotent symmetrizers
(Aiston-Morton, Idempotents of Hecke algebras of type A, JKTR 1998), the
t = 1 leading term of a colored unknot from the hook-content product, the
class sum accumulated term by term in dicts (the route the packed
``schur.character_bracket_sum`` replaced) and its universal denominator
D_n as a LaurentQT, the h^j coefficient at t = e^h with its class data
rebuilt on every call (the route ``schur.class_sum_order``'s cache
replaced), torus values by the hook-content formula over the
plethysm support alone (a third route, sharing only the plethysm with the
class sums), the q = 1 special polynomial H from the full
two-variable ratio (the route ``special.special_H``'s leading coefficients
replaced), the substitution q -> q^d that the Alexander checks compare
with, the Markov trace reduced by ``RationalQT.simplified`` and a division
by delta (the route ``exact._over_q`` replaced) on a generator action in
LaurentQT products (the route the integer kernel of ``hecke._apply``
replaced), the packed slots cut and written one slot at a time (the
route the 8-byte lanes of ``exact._slot_values``, at every slot width,
and the biased bytes of ``exact._slot_bytes`` replaced), the hook length
formula for character degrees, exact column orthogonality of a character table, characters by
Murnaghan-Nakayama on tuple beta-sets (the route the bitmask kernel
replaced), the inversion
count as first written and as bubble sort's swap count, the cycle type of
a permutation, the parity sweep's (inversions, cycles) classes scored on
every permutation (the route the prefix walk of
``verify._permutation_classes`` replaced), and a floating-point
evaluation of Laurent polynomials for numeric sanity checks.
None of this feeds a computed result of the package.  The bounded t -> 1
route has two references: the full plethysm expansion
``schur.plethysm_coefficients``, which stays in ``src`` because the class
sum needs it, for the Durfee-bounded support that ``special.special_delta``
reads; and the classes ``class_sum_order_reference`` picks out of every
partition of n, for those ``schur._order_data`` lists directly.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm

from skein_homfly.characters import CharacterTable, character_table
from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _brackets,
    _over_q,
    _udiv,
    _umul,
    delta,
    limit_at_one,
    q_bracket,
    substitute,
    t_bracket,
    t_power,
)
from skein_homfly.hecke import (
    BraidWord,
    HeckeElement,
    perm_cycle_count,
    perm_length,
)
from skein_homfly.partitions import Partition, partitions_of
from skein_homfly.schur import _class_data, _class_weight, unknot_value
from skein_homfly.torus import _torus_weights, colored_homfly


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
    for i, p in enumerate(lam):
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
    products and exact divisions by brackets on dicts (``exact._udiv``)."""
    d_n = _brackets({k: n // k for k in range(1, n + 1)})
    classes = []
    for nu in partitions_of(n):
        tpoly = _brackets({p: nu.count(p) for p in nu})
        qco = dict(d_n)
        for p in nu:
            qco = _udiv(qco, {p: 1, -p: -1})
        classes.append((nu, nu.z_factor(), tuple(tpoly.items()), tuple(qco.items())))
    return lcm(*(z for _, z, _, _ in classes)), d_n, tuple(classes)


def character_bracket_sum_dict(n: int, weights) -> RationalQT:
    """``schur.character_bracket_sum`` one dict term at a time, every q-term
    of g_nu * D_n / prod [nu_i] scattered into every t-degree: the value it
    cuts into t-slices for ``exact._over_q``."""
    zl, d_n, classes = _dict_class_data(n)
    num = {}
    for nu, z, tpoly, qco in classes:
        g = _class_weight(weights, nu)
        if not g:
            continue
        h = _umul(g, dict(qco))
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
    return RationalQT(LaurentQT(num), LaurentQT({(e, 0): c for e, c in d_n.items()}) * zl)


def class_sum_order_reference(n: int, weights, j: int) -> tuple:
    """``schur.class_sum_order`` with every class's coefficient, brackets and
    the denominator rebuilt on each call (the route its per-(n, j) cache
    replaced): [h^j] of the class sum at t = e^h as (num, den) dicts."""
    classes = [nu for nu in partitions_of(n) if len(nu) <= j and (j - len(nu)) % 2 == 0]
    parts = {p for nu in classes for p in nu}
    powers = {p: max(nu.count(p) for nu in classes) for p in parts}
    zl = lcm(*(nu.z_factor() for nu in classes))
    num = {}
    for nu in classes:
        mult = {p: nu.count(p) for p in nu}
        f = sum(c * te**j for te, c in _brackets(mult).items()) * (zl // nu.z_factor())
        qco = _brackets({p: e - mult.get(p, 0) for p, e in powers.items()})
        for qe, c in _umul(_class_weight(weights, nu), qco).items():
            num[qe] = num.get(qe, 0) + f * c
    den = _umul({0: factorial(j) * zl}, _brackets(powers))
    return {qe: c for qe, c in num.items() if c}, den


def _add_slice(acc: dict, te: int, coeffs: dict):
    row = acc.setdefault(te, {})
    for qe, c in coeffs.items():
        row[qe] = row.get(qe, 0) + c


def torus_value_by_hook_content(m: int, n: int, colors: tuple) -> RationalQT:
    """The torus value as t^te sum_mu w_mu s*_mu over the plethysm support,
    each s*_mu by the hook-content formula (Macdonald, Symmetric Functions
    and Hall Polynomials, I.3 Ex. 4)

        s*_mu = prod_{x in mu} (t q^c(x) - t^-1 q^-c(x)) / [h(x)]

    with no class sum and no characters beyond the plethysm's.  Every term
    goes over P = prod_k [k]^(max_mu mult_mu(k)), the multiple of all the
    hook products, as t-slices that ``exact._over_q`` reduces."""
    weights, degree, te = _torus_weights(m, n, colors)
    if degree == 0:
        return RationalQT.one()
    hooks = {mu: Counter(mu.hook_lengths()) for mu in weights}
    top = {k: max(h[k] for h in hooks.values()) for k in set().union(*hooks.values())}
    acc = {}
    for mu, w in weights.items():
        slices = {te: _umul(w, _brackets({k: e - hooks[mu][k] for k, e in top.items()}))}
        for i, p in enumerate(mu):
            for c in range(-i, p - i):  # the contents j - i of row i
                grown = {}
                for e, coeffs in slices.items():
                    _add_slice(grown, e + 1, _umul(coeffs, {c: 1}))
                    _add_slice(grown, e - 1, _umul(coeffs, {-c: -1}))
                slices = grown
        for e, coeffs in slices.items():
            _add_slice(acc, e, coeffs)
    ns = {e: s for e, row in acc.items() if (s := {qe: c for qe, c in row.items() if c})}
    return _over_q(ns, _brackets(top))


def universal_denominator(n: int) -> LaurentQT:
    """D_n(q) = prod_k (q^k - q^-k)^{floor(n/k)}, as ``schur._class_data`` packs it."""
    return LaurentQT({(e, 0): c for e, c in _class_data(n)[1]})


# -- the q = 1 special polynomial from the whole ratio ---------------------


def special_H_full_route(spec) -> LaurentQT:
    """q->1 limit of the invariant over the unknot normalization, by series
    expansion of the full two-variable ratio."""
    den = RationalQT.one()
    for a in spec.colors:
        den = den * unknot_value(a)
    return limit_at_one((colored_homfly(spec).value / den).simplified(), "q").as_laurent()


def compose_q_power(p: LaurentQT, d: int) -> LaurentQT:
    """Substitute q -> q^d into a univariate q-polynomial."""
    return LaurentQT({(qe * d, te): c for (qe, te), c in p.terms.items()})


# -- the Markov trace over z^n, reduced by simplified() ---------------------


def apply_generator_laurent(x: HeckeElement, i: int, sign: int = 1) -> HeckeElement:
    """Right multiplication by the i-th generator (sign -1: its inverse),
    s^2 = z*s + 1 and s^-1 = s - z expanded in LaurentQT products."""
    p = i - 1
    out = {}
    for pi, c in x.terms.items():
        tau = pi[:p] + (pi[p + 1], pi[p]) + pi[p + 2:]
        raises = pi[p] < pi[p + 1]
        if sign > 0 and not raises:
            out[pi] = out.get(pi, LaurentQT.zero()) + c * q_bracket(1)
        out[tau] = out.get(tau, LaurentQT.zero()) + c
        if sign < 0 and raises:
            out[pi] = out.get(pi, LaurentQT.zero()) - c * q_bracket(1)
    return HeckeElement(x.n, out)  # the constructor drops zero coefficients


def unpack_per_slot(x: int, size: int) -> list:
    """``exact._unpack`` one slot at a time: the signed size-byte slots of a
    packed int, lowest first, after half the range is added to every slot."""
    count = x.bit_length() // (8 * size) + 1
    x += int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw, half = x.to_bytes(count * size, "little"), 1 << (8 * size - 1)
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]


def digits_per_slot(coeffs, size: int) -> bytes:
    """``exact._slot_bytes`` one slot at a time, from the unpacked slots:
    c + 2^(8 size - 1) in size little-endian bytes per coefficient."""
    return b"".join((c + (1 << (8 * size - 1))).to_bytes(size, "little") for c in coeffs)


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def element_of_braid_laurent(w: BraidWord) -> HeckeElement:
    """The braid word's Hecke image, folded by ``apply_generator_laurent``."""
    x = HeckeElement(w.strands, {perm_identity(w.strands): LaurentQT.one()})
    for i, s in w.letters:
        x = apply_generator_laurent(x, i, s)
    return x


@lru_cache(maxsize=None)
def _trace_perm_over_z(n: int, pi: tuple) -> LaurentQT:
    """z^n * tr_n(w_pi), the base case z * delta = t - t^-1."""
    if n == 1:
        return t_bracket(1)
    if pi[n - 1] == n - 1:
        return t_bracket(1) * _trace_perm_over_z(n - 1, pi[: n - 1])
    j = pi.index(n - 1)
    alpha = list(pi)
    for p in range(j, n - 1):
        alpha[p], alpha[p + 1] = alpha[p + 1], alpha[p]
    assert alpha[n - 1] == n - 1
    x = HeckeElement(n - 1, {tuple(alpha[: n - 1]): 1})
    # pi = w_alpha * s_{n-1} * (s_{n-2} ... s_{j+1}) with additive lengths
    for i in range(n - 2, j, -1):
        x = apply_generator_laurent(x, i, 1)
    total = sum((c * _trace_perm_over_z(n - 1, sigma) for sigma, c in x.terms.items()), LaurentQT.zero())
    return t_power(1) * q_bracket(1) * total


def markov_trace_simplified(x: HeckeElement) -> RationalQT:
    """The framed trace as the numerator over z^n, reduced by ``simplified()``."""
    total = sum((c * _trace_perm_over_z(x.n, pi) for pi, c in x.terms.items()), LaurentQT.zero())
    return RationalQT(total, q_bracket(1) ** x.n).simplified()


def normalized_closure_by_delta(w: BraidWord) -> RationalQT:
    """The framed closure times t^-writhe, divided by delta and simplified."""
    bracket = markov_trace_simplified(element_of_braid_laurent(w))
    return (bracket * RationalQT(t_power(-w.writhe)) / delta()).simplified()


# -- character degrees and orthogonality ------------------------------------


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation; hook length formula."""
    if lam.size == 0:
        return 1
    d = factorial(lam.size)
    for h in lam.hook_lengths():
        d //= h
    return d


def verify_orthogonality(n: int, table: CharacterTable = None) -> bool:
    """Exact column orthogonality: sum_A chi_A(mu) chi_A(nu) = z_mu delta_{mu,nu}."""
    if table is None:
        table = character_table(n)
    parts = table.index
    for mu in parts:
        zmu = mu.z_factor()
        for nu in parts:
            s = sum(table.values[(lam, mu)] * table.values[(lam, nu)] for lam in parts)
            if s != (zmu if mu == nu else 0):
                return False
    return True


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
    l = len(shape)
    if l == 0:
        return {(0,) * nvars: 1}
    if nvars < len(lam):
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


# -- characters by the tuple beta-set recursion -----------------------------


@cache
def character_reference(lam: tuple, mu: tuple) -> int:
    """chi_lam(C_mu) by Murnaghan-Nakayama on beta-sets kept as lists (the
    route the bitmask kernel ``characters._char`` replaced): removing a
    border strip of length k removes k from one first-column hook length,
    with sign (-1)^(rows spanned - 1)."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    l = len(lam)
    beta = [lam[i] + l - 1 - i for i in range(l)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for f in beta if c < f < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        m = len(new_beta)
        new_lam = tuple(f - (m - 1 - i) for i, f in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        term = character_reference(new_lam, rest)
        total += -term if height % 2 else term
    return total


# -- permutation statistics by their first definitions ----------------------


def perm_inversions_by_index(pi: tuple) -> int:
    """Inversion count over index pairs i < j."""
    n = len(pi)
    return sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])


def perm_inversions_by_bubble_sort(pi: tuple) -> int:
    """The number of adjacent swaps bubble sort makes to sort pi."""
    cur, swaps = list(pi), 0
    for end in range(len(cur) - 1, 0, -1):
        for i in range(end):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                swaps += 1
    return swaps


def perm_cycle_type(pi: tuple) -> Partition:
    """The cycle lengths of pi, largest first."""
    n = len(pi)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            c += 1
        lens.append(c)
    return Partition(sorted(lens, reverse=True))


def permutation_classes(d: int, cycles=perm_cycle_count) -> dict:
    """{(inversions, cycles): the first permutation of range(d), in
    lexicographic order, with that pair}, scoring every permutation (the
    route ``verify._permutation_classes``' prefix walk replaced); ``cycles``
    is the cycle counter."""
    out = {}
    for pi in permutations(range(d)):
        out.setdefault((perm_length(pi), cycles(pi)), pi)
    return out


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
            z = apply_generator_laurent(z, i, 1)
        total = hecke_add(total, hecke_scaled(z, c))
    return total


def positive_symmetrizer(m: int) -> HeckeElement:
    """Sum of q^length * basis element over the symmetric group on m strands."""
    terms = {}
    for pi in permutations(range(m)):
        terms[pi] = LaurentQT.monomial(1, perm_length(pi), 0)
    return HeckeElement(m, terms)


def negative_symmetrizer(m: int) -> HeckeElement:
    """Sum of (-q)^(-length) * basis element; the alternating companion."""
    terms = {}
    for pi in permutations(range(m)):
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
