from fractions import Fraction

import pytest

from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
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
    universal_denominator,
    unknot_value,
)
from skein_homfly.torus import _torus_weights

from oracles import (
    _poly_mul_multi,
    character_bracket_sum_dict,
    complete_symmetric_poly,
    elementary_symmetric_poly,
    jacobi_trudi_schur,
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
    expected = delta() * delta() * Fraction(1, 2) + RationalQT(
        t_bracket(2), q_bracket(2)
    ) * Fraction(1, 2)
    assert unknot_value(P((2,))) == expected


def test_two_box_column():
    expected = delta() * delta() * Fraction(1, 2) - RationalQT(
        t_bracket(2), q_bracket(2)
    ) * Fraction(1, 2)
    assert unknot_value(P((1, 1))) == expected


def _hook_content_product(lam):
    # independent closed form: prod over boxes (t q^c - t^-1 q^-c) / (q^h - q^-h)
    num = LaurentQT.one()
    den = LaurentQT.one()
    conj = lam.conjugate()
    for i, p in enumerate(lam.parts):
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


def test_order_sum_rejects_surviving_fractional_exponent():
    box = P((1,))
    # weight q^(2/2) = q: integral, the single-box leading term 2 / [1] times q
    num, den = class_sum_order(1, {box: {2: 1}}, 1, ram=2)
    assert RationalQT(_q_poly(num), _q_poly(den)) == RationalQT(LaurentQT.monomial(2, 1), q_bracket(1))
    # weight q^(1/2) alone: nothing can cancel it
    with pytest.raises(IntegralityViolation):
        class_sum_order(1, {box: {1: 1}}, 1, ram=2)


def _class_sum_cases():
    """(label, weights, n, ram) of torus values, unknots and synthetic sums."""
    knots = [(m, n, d) for m, n in ((2, 3), (3, 2), (2, -3), (2, 5)) for d in (1, 2, 3)]
    knots += [(3, 4, d) for d in (1, 2, 3, 4)] + [(4, 5, d) for d in (1, 2, 3)]
    for m, n, d in knots:
        for a in partitions_of(d):
            yield (f"T({m},{n})[{a}]", *_torus_weights(m, n, (a,))[:2], m)
    colors = [c for d in (0, 1, 2) for c in partitions_of(d)]
    for m, n in ((1, 1), (1, 2), (2, 3)):
        for a in colors:
            for b in colors:
                weights, size, _ = _torus_weights(m, n, (a, b))
                if size:
                    yield (f"T({m},{n})[{a};{b}]", weights, size, m)
    for size in range(1, 9):
        for lam in partitions_of(size):
            yield (f"unknot {lam}", {lam: {0: 1}}, size, 1)
    # no class survives: every g_nu vanishes
    yield ("no weight", {}, 3, 1)
    # +-10^40 weights: wide slots, negative slots borrowing from their
    # neighbours, and class terms that cancel across classes
    big = 10**40
    yield ("wide", {P((2, 1)): {0: big, 4: -big}, P((3,)): {0: -big, 2: 1}, P((1, 1, 1)): {2: big + 1}}, 3, 1)
    yield ("wide ram 2", {P((3, 1)): {0: big, 2: -big}, P((2, 2)): {2: big}, P((4,)): {4: -big}}, 4, 2)


def test_packed_class_sum_matches_dict_oracle(monkeypatch):
    # the packed sum hands simplified() the dict loop's value: the same text
    # and the same term dicts, so every simplified result is the same too
    handed = []
    simplified = RationalQT.simplified
    monkeypatch.setattr(RationalQT, "simplified", lambda self: handed.append(self) or simplified(self))
    for label, weights, n, ram in _class_sum_cases():
        character_bracket_sum(n, weights, ram)
        value = handed[-1]
        oracle = character_bracket_sum_dict(n, weights, ram)
        assert str(value) == str(oracle), label
        assert value.num.terms == oracle.num.terms and value.den.terms == oracle.den.terms, label


def test_packed_class_sum_rejects_surviving_fractional_exponent():
    box = P((1,))
    assert character_bracket_sum(1, {box: {2: 1}}, ram=2) == delta() * LaurentQT.monomial(1, 1)
    # weight q^(1/2) alone: nothing can cancel it
    with pytest.raises(IntegralityViolation):
        character_bracket_sum(1, {box: {1: 1}}, ram=2)
    with pytest.raises(IntegralityViolation):
        character_bracket_sum_dict(1, {box: {1: 1}}, ram=2)


def test_universal_denominator_divisibility():
    d4 = universal_denominator(4)
    for nu in partitions_of(4):
        prod = LaurentQT.one()
        for p in nu:
            prod = prod * q_bracket(p)
        from skein_homfly.exact import _exact_div_univariate

        assert _exact_div_univariate(d4, prod) is not None


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
                if mu.length > nvars:
                    continue
                lhs += c * sum(jacobi_trudi_schur(mu, nvars).values())
            rhs = sum(jacobi_trudi_schur(a, nvars).values())
            assert lhs == rhs, a


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
            if lam.length > 6 or lam.conjugate().length > 6:
                continue
            assert jacobi_trudi_schur(lam, 6, "h") == jacobi_trudi_schur(lam, 6, "e"), lam


def test_symmetric_function_generators():
    assert complete_symmetric_poly(2, 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert elementary_symmetric_poly(2, 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_symmetric_poly(4, 3) == {}
