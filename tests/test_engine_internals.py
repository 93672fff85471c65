import pytest

from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _exact_div,
    _udiv,
    q_bracket,
    t_bracket,
    t_power,
)
from skein_homfly.partitions import EMPTY, Partition
from skein_homfly.schur import _umul, unknot_value
from skein_homfly.torus import TorusLinkSpec, colored_homfly_torus

from oracles import universal_denominator

P = Partition


def test_umul_plain():
    a = {0: 1, 1: 2}
    b = {-1: 3, 0: 1}
    assert _umul(a, b) == {-1: 3, 0: 7, 1: 2}


def test_umul_lattice_offsets():
    # exponents on a stride-4 lattice with different offsets
    a = {2: 1, 6: 1}
    b = {3: 1, 7: 1}
    assert _umul(a, b) == {5: 1, 9: 2, 13: 1}


def test_umul_mixed_strides():
    a = {0: 1, 3: 1}
    b = {0: 1, 5: -1}
    assert _umul(a, b) == {0: 1, 3: 1, 5: -1, 8: -1}


def test_umul_empty():
    assert _umul({}, {0: 1}) == {}
    assert _umul({0: 2}, {}) == {}


def test_udiv_bracket_round_trips():
    for k in (1, 2, 3):
        for poly in ({0: 1}, {1: 2, -1: 2}, {0: 1, 4: -3, -2: 5}):
            prod = _umul(poly, {k: 1, -k: -1})
            assert _udiv(prod, {k: 1, -k: -1}) == poly


def test_exact_div_t_only():
    assert _exact_div(t_bracket(2), t_bracket(1)) == t_power(1) + t_power(-1)
    assert _exact_div(t_bracket(1) * 6, t_power(2) * -2) == t_bracket(1) * t_power(-2) * -3
    # the quotient's coefficients would be 1/2 and -1/2
    assert _exact_div(t_bracket(1), t_power(2) * 2) is None


def test_exact_div_by_a_monomial_shifts_keys():
    a = LaurentQT({(2, 1): 6, (-1, 3): -4, (0, 0): 2})
    for sign in (1, -1):
        for qe, te in ((0, 0), (3, -2), (-1, 1)):
            unit = LaurentQT.monomial(sign, qe, te)
            out = _exact_div(a, unit)
            assert out.terms == {(x - qe, y - te): sign * c for (x, y), c in a.terms.items()}
            assert out == a * unit ** -1
    # a non-unit monomial divides when it divides every coefficient
    two_q = LaurentQT.monomial(2, 1)
    assert _exact_div(a, two_q).terms == {(1, 1): 3, (-2, 3): -2, (-1, 0): 1}
    assert _exact_div(a, two_q) * two_q == a
    assert _exact_div(a, LaurentQT.monomial(-4, 1)) is None
    assert _exact_div(a, LaurentQT.monomial(3, 0, 2)) is None
    assert _exact_div(LaurentQT.zero(), two_q) == LaurentQT.zero()
    with pytest.raises(ZeroDivisionError):
        _exact_div(a, LaurentQT.zero())


def test_exact_div_inexact_returns_none():
    assert _exact_div(q_bracket(1), q_bracket(2)) is None
    assert _exact_div(LaurentQT.one(), t_power(1) + 1) is None
    assert _exact_div(q_bracket(1), t_bracket(1)) is None  # q and t mixed, not a divisor


def test_udiv_kernel_keeps_int_quotients():
    quotient = _udiv({3: 1, -3: -1}, {1: 1, -1: -1})  # (q^3 - q^-3) / (q - q^-1)
    assert quotient == {2: 1, 0: 1, -2: 1}
    assert all(type(c) is int for c in quotient.values())
    assert _udiv({0: 4, 1: -6}, {0: 2}) == {0: 2, 1: -3}
    # exact over the rationals but not over the integers
    assert _udiv({0: 1, 1: 1}, {0: 2}) is None
    assert _udiv({0: 1}, {0: 1, 1: 1}) is None


def test_div_bracket_coeffs_inexact_returns_none():
    assert _udiv({0: 1}, {1: 1, -1: -1}) is None
    assert _udiv({2: 1, -2: 1}, {2: 1, -2: -1}) is None  # q^2 + q^-2


def test_universal_denominator_matches_definition():
    d3 = universal_denominator(3)
    expected = q_bracket(1) ** 3 * q_bracket(2) * q_bracket(3)
    assert d3 == expected


def test_empty_color_in_vector_drops_component():
    # trivially decorating one component leaves the other component's value
    spec = TorusLinkSpec(1, 1, 2, (EMPTY, P((1,))))
    assert colored_homfly_torus(spec).value == unknot_value(P((1,)))


def test_empty_color_on_knot_is_one():
    spec = TorusLinkSpec(2, 3, 1, (EMPTY,))
    assert colored_homfly_torus(spec).value == RationalQT.one()


def test_rational_negative_power():
    f = RationalQT(q_bracket(2), q_bracket(1))
    assert f ** -1 == RationalQT(q_bracket(1), q_bracket(2))
    assert f ** 0 == RationalQT.one()
    # num^e / den^e normalized once has the term dicts of |e| normalized products
    g = RationalQT(q_bracket(1) * 6 + t_power(2) * 4, LaurentQT({(1, -1): 2, (0, 1): -6}))
    for x in (f, g):
        for e in range(-3, 5):
            base = x if e >= 0 else RationalQT(x.den, x.num)
            product = RationalQT.one()
            for _ in range(abs(e)):
                product = product * base
            power = x ** e
            assert (power.num.terms, power.den.terms) == (product.num.terms, product.den.terms)
    with pytest.raises(ZeroDivisionError):
        RationalQT(LaurentQT.zero()) ** -2

