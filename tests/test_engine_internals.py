from fractions import Fraction

import pytest

from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _exact_div_univariate,
    _udiv,
    div_bracket_coeffs,
    expand_series,
    limit_at_one,
    q_bracket,
    t_bracket,
    t_power,
)
from skein_homfly.errors import LimitDoesNotExist
from skein_homfly.partitions import EMPTY, Partition
from skein_homfly.schur import _umul, universal_denominator, unknot_value
from skein_homfly.torus import TorusLinkSpec, colored_homfly_torus

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
            assert div_bracket_coeffs(prod, k) == poly


def test_exact_div_mixed_fractional_lattices():
    # q^1/2 and q^1/3 brackets meet on the common scale 6
    half = LaurentQT({(Fraction(1, 2), 0): 1, (Fraction(-1, 2), 0): -1})
    third = LaurentQT({(Fraction(1, 3), 0): 1, (Fraction(-1, 3), 0): -1})
    assert _exact_div_univariate(half * third, third) == half
    assert _exact_div_univariate(half * third, half) == third


def test_exact_div_t_only():
    assert _exact_div_univariate(t_bracket(2), t_bracket(1)) == t_power(1) + t_power(-1)
    assert _exact_div_univariate(t_bracket(1), t_power(2) * 2) == t_bracket(1) * t_power(-2) * Fraction(1, 2)


def test_exact_div_inexact_returns_none():
    assert _exact_div_univariate(q_bracket(1), q_bracket(2)) is None
    assert _exact_div_univariate(LaurentQT.one(), t_power(1) + 1) is None
    assert _exact_div_univariate(q_bracket(1), t_bracket(1)) is None  # q and t mixed


def test_udiv_kernel_keeps_int_quotients():
    quotient = _udiv({3: 1, -3: -1}, {1: 1, -1: -1})  # (q^3 - q^-3) / (q - q^-1)
    assert quotient == {2: 1, 0: 1, -2: 1}
    assert all(type(c) is int for c in quotient.values())
    assert _udiv({0: 1, 1: 1}, {0: 2}) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert _udiv({0: 1}, {0: 1, 1: 1}) is None


def test_div_bracket_coeffs_inexact_returns_none():
    assert div_bracket_coeffs({0: 1}, 1) is None
    assert div_bracket_coeffs({2: 1, -2: 1}, 2) is None  # q^2 + q^-2


def test_universal_denominator_matches_definition():
    d3 = universal_denominator(3)
    expected = q_bracket(1) ** 3 * q_bracket(2) * q_bracket(3)
    assert d3 == expected


def test_series_with_fractional_exponents():
    half_bracket = LaurentQT({(Fraction(1, 2), 0): 1, (Fraction(-1, 2), 0): -1})
    f = RationalQT(half_bracket, q_bracket(1))
    on, od, ln, ld = expand_series(f, "q")
    assert (on, od) == (1, 1)
    assert limit_at_one(f, "q") == LaurentQT.monomial(Fraction(1, 2))
    # squared, the numerator vanishes to second order: limit zero one way,
    # a pole the other way
    assert limit_at_one(RationalQT(half_bracket * half_bracket, q_bracket(1)), "q") == LaurentQT.zero()
    with pytest.raises(LimitDoesNotExist):
        limit_at_one(RationalQT(q_bracket(1), half_bracket * half_bracket), "q")


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

