from math import gcd
from pathlib import Path

import pytest

from skein_homfly import schur, torus, verify
from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _brackets,
    _exact_div,
    _unslice,
    delta,
    q_bracket,
    t_bracket,
)
from skein_homfly.errors import IntegralityViolation
from skein_homfly.partitions import EMPTY, Partition, PartitionVector, partitions_of
from skein_homfly.schur import (
    SchurExpansion,
    character_bracket_sum,
    class_sum_order,
    plethysm_coefficients,
    unknot_value,
)
from skein_homfly.torus import _torus_weights

from oracles import (
    _poly_mul_multi,
    character_bracket_sum_dict,
    class_sum_order_reference,
    digits_per_slot,
    complete_symmetric_poly,
    elementary_symmetric_poly,
    jacobi_trudi_schur,
    torus_value_by_hook_content,
    universal_denominator,
    unknot_leading_term,
)

P = Partition


# -- unknot values -----------------------------------------------------


def test_single_box_is_delta():
    assert unknot_value(P((1,))) == delta()


def test_empty_color_is_one():
    assert unknot_value(EMPTY) == RationalQT.one()


def test_two_box_row():
    # 1/2 [ delta^2 + (t^2 - t^-2)/(q^2 - q^-2) ] from the 2-symbol table
    expected = (delta() * delta() + RationalQT(t_bracket(2), q_bracket(2))) / 2
    assert unknot_value(P((2,))) == expected


def test_two_box_column():
    expected = (delta() * delta() - RationalQT(t_bracket(2), q_bracket(2))) / 2
    assert unknot_value(P((1, 1))) == expected


def _hook_content_product(lam):
    # independent closed form: prod over boxes (t q^c - t^-1 q^-c) / (q^h - q^-h)
    num = LaurentQT.one()
    den = LaurentQT.one()
    conj = lam.conjugate()
    for i, p in enumerate(lam):
        for j in range(p):
            c = j - i
            h = p - j + conj[j] - i - 1
            num = num * LaurentQT({(c, 1): 1, (-c, -1): -1})
            den = den * q_bracket(h)
    return RationalQT(num, den)


def test_unknot_matches_hook_content_product():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert unknot_value(lam) == _hook_content_product(lam), lam


def test_unknot_invariant_under_joint_inversion():
    for n in range(1, 6):
        for lam in partitions_of(n):
            v = unknot_value(lam)
            assert v.substituted(q="q^-1", t="t^-1") == v


def _q_poly(coeffs: dict) -> LaurentQT:
    return LaurentQT({(e, 0): c for e, c in coeffs.items()})


def test_unknot_order_sum_matches_hook_content_leading_term():
    # the class sum at t = e^h vanishes below h^d(A), d(A) the Durfee size,
    # and its h^d(A) coefficient is the hook-content product's
    for n in range(1, 9):
        for lam in partitions_of(n):
            d, lead = unknot_leading_term(lam)
            for j in range(d):
                assert class_sum_order(n, {lam: {0: 1}}, j)[0] == {}, (lam, j)
            num, den = class_sum_order(n, {lam: {0: 1}}, d)
            assert RationalQT(_q_poly(num), _q_poly(den)) == lead, lam


def test_class_sum_order_matches_per_call_reference():
    # the weight-free class data, built once per (n, j), gives the same dicts
    # as rebuilding it on every call: unknots of every lam |- n <= 12, and the
    # torus weights of T(2,3), T(2,5), T(3,4) for every color with m|A| <= 12
    sums = [(n, {lam: {0: 1}}) for n in range(1, 13) for lam in partitions_of(n)]
    for m, n in ((2, 3), (2, 5), (3, 4)):
        for a in (a for d in range(1, 12 // m + 1) for a in partitions_of(d)):
            weights, degree, _ = _torus_weights(m, n, (a,))
            sums.append((degree, weights))
    for n, weights in sums:
        for j in range(5):
            assert class_sum_order(n, weights, j) == class_sum_order_reference(n, weights, j), (n, weights, j)


def test_class_sum_order_hands_out_fresh_denominators():
    num, den = class_sum_order(4, {P((2, 2)): {0: 1}}, 2)
    den[0] = den.get(0, 0) + 1
    assert class_sum_order(4, {P((2, 2)): {0: 1}}, 2) == class_sum_order_reference(4, {P((2, 2)): {0: 1}}, 2)


def _colored_sums():
    """(label, weights, n, colors) of torus values and unknots."""
    knots = [(m, n, d) for m, n in ((2, 3), (3, 2), (2, -3), (2, 5)) for d in (1, 2, 3)]
    knots += [(3, 4, d) for d in (1, 2, 3, 4)] + [(4, 5, d) for d in (1, 2, 3)]
    for m, n, d in knots:
        for a in partitions_of(d):
            yield (f"T({m},{n})[{a}]", *_torus_weights(m, n, (a,))[:2], (a,))
    colors = [c for d in (0, 1, 2) for c in partitions_of(d)]
    for m, n in ((1, 1), (1, 2), (2, 3)):
        for a in colors:
            for b in colors:
                weights, size, _ = _torus_weights(m, n, (a, b))
                if size:
                    yield (f"T({m},{n})[{a};{b}]", weights, size, (a, b))
    for size in range(1, 9):
        for lam in partitions_of(size):
            yield (f"unknot {lam}", {lam: {0: 1}}, size, (lam,))


def _class_sum_cases():
    """(label, weights, n) of torus values, unknots and synthetic sums."""
    for label, weights, n, _ in _colored_sums():
        yield label, weights, n
    # no class survives: every g_nu vanishes
    yield ("no weight", {}, 3)
    # +-10^40 weights: wide slots, negative slots borrowing from their
    # neighbours, and class terms that cancel across classes
    big = 10**40
    yield ("wide", {P((2, 1)): {0: big, 4: -big}, P((3,)): {0: -big, 2: 1}, P((1, 1, 1)): {2: big + 1}}, 3)
    # odd exponent offsets at n = 4: the packing lattice has step 1
    yield ("wide n = 4", {P((3, 1)): {0: big, 1: -big}, P((2, 2)): {1: big}, P((4,)): {2: -big}}, 4)


def test_packed_class_sum_matches_dict_oracle(monkeypatch):
    # without colors (a hook product of 1) the packed sum hands _over_q the
    # dict loop's value as t-slices over zl * D_n: the same text and the
    # same term dicts, so every cancelled result is the same too
    handed = []
    over_q = schur._over_q
    monkeypatch.setattr(schur, "_over_q", lambda ns, den: handed.append((ns, den)) or over_q(ns, den))
    for label, weights, n in _class_sum_cases():
        handed.clear()
        result = character_bracket_sum(n, weights, ())
        oracle = character_bracket_sum_dict(n, weights)
        (ns, den), = handed
        if not ns:
            # no slice is left of a zero sum
            assert label == "no weight" and result.is_zero() and oracle.is_zero(), label
            continue
        value = RationalQT(LaurentQT(_unslice(ns, 0)), LaurentQT(_unslice({0: den}, 0)))
        assert str(value) == str(oracle), label
        assert value.num.terms == oracle.num.terms and value.den.terms == oracle.den.terms, label


def _record_dens(monkeypatch):
    dens = []
    over_q = schur._over_q
    monkeypatch.setattr(schur, "_over_q", lambda ns, den: dens.append(den) or over_q(ns, den))
    return dens


def _q_dict(p: LaurentQT) -> dict:
    return {qe: c for (qe, _), c in p.terms.items()}


def test_hook_route_matches_universal_denominator_route(monkeypatch):
    # with its colors every sum here goes to _over_q over zl times the hook
    # product and ends in the text and the term dicts of the zl * D_n route
    dens = _record_dens(monkeypatch)
    for label, weights, n, colors in _colored_sums():
        dens.clear()
        hooked = character_bracket_sum(n, weights, colors)
        plain = character_bracket_sum(n, weights, ())
        zl = schur._class_data(n)[0]
        hooks = LaurentQT.monomial(zl)
        for h in (h for a in colors for h in a.hook_lengths()):
            hooks = hooks * q_bracket(h)
        assert dens == [_q_dict(hooks), _q_dict(universal_denominator(n) * zl)], label
        assert str(hooked) == str(plain), label
        assert hooked.num.terms == plain.num.terms and hooked.den.terms == plain.den.terms, label


def test_hook_route_falls_back_to_universal_denominator(monkeypatch):
    # colors whose hook product is not the value's denominator: the unknot
    # (3) and T(2,3)[(3)] with the hooks 3, 1, 1 of (2,1), which leave [2]
    # of s*_(3)'s [1][2][3] behind; both fall back to the zl * D_n route
    dens = _record_dens(monkeypatch)
    for label, weights, n in (
        ("unknot (3)", {P((3,)): {0: 1}}, 3),
        ("T(2,3)[(3)]", *_torus_weights(2, 3, (P((3,)),))[:2]),
    ):
        dens.clear()
        hooked = character_bracket_sum(n, weights, (P((2, 1)),))
        plain = character_bracket_sum(n, weights, ())
        zl = schur._class_data(n)[0]
        assert dens == [_q_dict(universal_denominator(n) * zl)] * 2, label
        assert str(hooked) == str(plain), label
        assert hooked.num.terms == plain.num.terms and hooked.den.terms == plain.den.terms, label


def test_class_sums_take_the_hook_route(monkeypatch):
    # the torus knots and links of the thm72 grid in perfbench/grids/sweeps.json
    # and the unknots with |A| <= 6: every t-degree divides exactly by the
    # packed hook cofactor and passes the slot check, so no sum falls back
    # to zl * D_n
    calls, fallbacks = 0, 0
    packed_div = schur._packed_div

    def counted(*args):
        nonlocal calls, fallbacks
        out = packed_div(*args)
        calls, fallbacks = calls + 1, fallbacks + (out is None)
        return out

    monkeypatch.setattr(schur, "_packed_div", counted)
    grid = verify.GridConfig.load(Path(__file__).parents[1] / "perfbench" / "grids" / "sweeps.json")
    for spec in verify._symmetry_grid(grid):
        weights, n, _ = _torus_weights(spec.m, spec.n, spec.colors)
        character_bracket_sum(n, weights, spec.colors)
    for lam in (lam for size in range(1, 7) for lam in partitions_of(size)):
        character_bracket_sum(lam.size, {lam: {0: 1}}, (lam,))
    assert calls > 0 and fallbacks == 0


def test_hook_content_route_matches_class_sum():
    # the thm72 grid of perfbench/grids/sweeps.json (30 knots, 10 links)
    # and T(1,3)[(2,1);(1,1)]: equal values and equal text, since the
    # reduction strips the same cyclotomic factors whatever the denominator
    grid = verify.GridConfig.load(Path(__file__).parents[1] / "perfbench" / "grids" / "sweeps.json")
    specs = verify._symmetry_grid(grid) + [torus.TorusLinkSpec(1, 3, 2, (P((2, 1)), P((1, 1))))]
    assert len(specs) == 41
    for spec in specs:
        oracle = torus_value_by_hook_content(spec.m, spec.n, spec.colors)
        value = torus._torus_value(spec.m, spec.n, spec.colors)
        assert oracle == value, spec
        assert str(oracle) == str(value), spec


def test_torus_weights_reject_k_not_divisible_by_m(monkeypatch):
    # k of (4, 2) is 10, which 3 does not divide: no plethysm of s_A(x^3)
    # can have it in its support, so a twist weight q^(10 n / 3) is a bug
    monkeypatch.setattr(torus, "plethysm_coefficients", lambda m, colors: SchurExpansion(6, {P((4, 2)): 1}))
    with pytest.raises(IntegralityViolation, match=r"\(4,2\)"):
        _torus_weights(3, 2, (P((2,)),))


def test_universal_denominator_divisibility():
    d4 = universal_denominator(4)
    for nu in partitions_of(4):
        prod = LaurentQT.one()
        for p in nu:
            prod = prod * q_bracket(p)
        assert _exact_div(d4, prod) is not None


def test_class_data_step_is_the_coefficient_gcd():
    # _class_data reads each quotient's step off its brackets; for n <= 14
    # it is the gcd of the quotient's q-exponent offsets, and the kept
    # digits are its coefficients at that step
    for n in range(1, 15):
        size = schur._class_data(n)[2]
        for nu, _, _, qstep, l1, digits in schur._class_data(n)[3]:
            quotient = _brackets({k: n // k - nu.count(k) for k in range(1, n + 1)})
            low = min(quotient)
            assert qstep == (gcd(*(e - low for e in quotient)) or 2), (n, nu)
            coeffs = [quotient.get(e, 0) for e in range(low, max(quotient) + 1, qstep)]
            assert digits == digits_per_slot(coeffs, size), (n, nu)
            assert l1 == sum(map(abs, quotient.values())), (n, nu)


# -- plethysm ----------------------------------------------------------


def test_plethysm_two_cable_single_box():
    e = plethysm_coefficients(2, (P((1,)),))
    assert e.degree == 2
    assert e.coeffs == {P((2,)): 1, P((1, 1)): -1}


def test_plethysm_identity_on_single_row():
    for d in range(1, 5):
        e = plethysm_coefficients(1, (P((d,)),))
        assert e.coeffs == {P((d,)): 1}


def test_plethysm_product_of_boxes():
    e = plethysm_coefficients(1, (P((1,)), P((1,))))
    assert e.coeffs == {P((2,)): 1, P((1, 1)): 1}


def test_plethysm_rejects_a_non_integer_coefficient(monkeypatch):
    # with chi_A = 1 on the class (1,1) alone the weight of (2) is 1/z = 1/2,
    # so every coefficient of the integer sum leaves a remainder
    monkeypatch.setattr(schur, "_char", lambda mask, cycle: int(cycle == (1, 1)))
    with pytest.raises(IntegralityViolation, match="non-integer plethysm coefficient 1/2 at"):
        schur._plethysm_cached.__wrapped__(1, (P((2,)),))


def test_plethysm_hook_support_for_single_box():
    # the m-cable of a single box is supported exactly on hooks of m, signs +-1
    for m in range(1, 7):
        e = plethysm_coefficients(m, (P((1,)),))
        expected = {}
        for a in range(m):
            b = m - 1 - a
            expected[P((a + 1,) + (1,) * b)] = (-1) ** b
        assert e.coeffs == expected


def _schur_expand_symmetric(poly, nvars):
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        shape = tuple(sorted((x for x in lead if x), reverse=True))
        coeff = work[lead]
        lam = P(shape)
        out[lam] = out.get(lam, 0) + coeff
        for e, c in jacobi_trudi_schur(lam, nvars).items():
            s = work.get(e, 0) - coeff * c
            if s == 0:
                work.pop(e, None)
            else:
                work[e] = s
    return {k: v for k, v in out.items() if v}


def _stretch_exponents(poly, m):
    return {tuple(m * x for x in e): c for e, c in poly.items()}


def test_plethysm_against_monomial_expansion():
    # brute force: expand prod_alpha s_A(x^m) in monomials, then in Schur basis
    cases = [
        (2, (P((1,)),)),
        (2, (P((2,)),)),
        (2, (P((1, 1)),)),
        (1, (P((1,)), P((1,)))),
        (1, (P((2,)), P((1,)))),
        (3, (P((1,)),)),
        (2, (P((1,)), P((1,)))),
    ]
    for m, colors in cases:
        degree = m * sum(a.size for a in colors)
        nvars = degree
        poly = {(0,) * nvars: 1}
        for a in colors:
            poly = _poly_mul_multi(poly, _stretch_exponents(jacobi_trudi_schur(a, nvars), m))
        expected = _schur_expand_symmetric(poly, nvars)
        computed = plethysm_coefficients(m, colors).coeffs
        # partitions longer than nvars cannot appear at nvars = degree
        assert computed == expected, (m, colors)


def test_plethysm_evaluation_at_ones():
    # sum_mu C^mu s_mu(1^N) must equal prod_alpha s_A(1^N), N = 4, m = 2
    nvars = 4
    for size in range(1, 4):
        for a in partitions_of(size):
            e = plethysm_coefficients(2, (a,))
            lhs = 0
            for mu, c in e.coeffs.items():
                if len(mu) > nvars:
                    continue
                lhs += c * sum(jacobi_trudi_schur(mu, nvars).values())
            rhs = sum(jacobi_trudi_schur(a, nvars).values())
            assert lhs == rhs, a


def test_plethysm_support_has_k_divisible_by_m():
    # Littlewood: every mu in the support of prod s_A(x^m) has an empty
    # m-core, so it is tiled by m-ribbons of m consecutive contents each;
    # m = 1 divides every k
    singles = [(m, (a,)) for m in range(2, 6) for d in range(1, 12 // m + 1) for a in partitions_of(d)]
    pairs = [
        (m, (a, b))
        for m in range(2, 6)
        for da in range(1, 10 // m)
        for db in range(1, 10 // m - da + 1)
        for a in partitions_of(da)
        for b in partitions_of(db)
    ]
    terms = 0
    for m, colors in singles + pairs:
        for mu in plethysm_coefficients(m, colors).coeffs:
            assert mu.k_invariant() % m == 0, (m, colors, mu)
            terms += 1
    assert terms > 1000


def test_plethysm_accepts_partition_vector():
    e = plethysm_coefficients(2, PartitionVector.parse("(1)"))
    assert e.coeffs[P((2,))] == 1


def test_schur_expansion_validation():
    with pytest.raises(ValueError):
        SchurExpansion(3, {P((2,)): 1})


# -- Jacobi-Trudi oracle -------------------------------------------------


def test_jt_single_box():
    assert jacobi_trudi_schur(P((1,)), 3) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_jt_21_tableau_count():
    poly = jacobi_trudi_schur(P((2, 1)), 3)
    assert sum(poly.values()) == 8
    assert poly[(1, 1, 1)] == 2


def test_jt_h_and_e_variants_agree():
    for n in range(1, 6):
        for lam in partitions_of(n):
            if len(lam) > 6 or len(lam.conjugate()) > 6:
                continue
            assert jacobi_trudi_schur(lam, 6, "h") == jacobi_trudi_schur(lam, 6, "e"), lam


def test_symmetric_function_generators():
    assert complete_symmetric_poly(2, 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert elementary_symmetric_poly(2, 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_symmetric_poly(4, 3) == {}
