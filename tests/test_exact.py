from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skein_homfly.errors import FractionalExponentSign, LimitDoesNotExist, ZeroFunction
from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    canonical_text,
    delta,
    expand_series,
    laurent_from_json,
    laurent_to_json,
    limit_at_one,
    q_bracket,
    substitute,
    t_bracket,
    t_power,
    truncated_series,
)

from oracles import evaluate


# -- hypothesis strategies ------------------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
exponents = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)


@st.composite
def laurents(draw, integral_exponents=False):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        qe = draw(st.integers(min_value=-4, max_value=4)) if integral_exponents else draw(exponents)
        te = draw(st.integers(min_value=-4, max_value=4))
        terms[(qe, te)] = draw(coeffs)
    return LaurentQT(terms)


# -- basic arithmetic ------------------------------------------------------


def test_bracket_times_delta_is_t_bracket():
    assert RationalQT(q_bracket(1)) * delta() == RationalQT(t_bracket(1))


def test_additive_identity():
    p = LaurentQT({(2, -1): 3, (Fraction(1, 2), 0): -1})
    assert p + LaurentQT.zero() == p


def test_half_exponents_multiply():
    half = LaurentQT({(Fraction(1, 2), 0): 1})
    assert half * half == LaurentQT.monomial(1, 1)


def test_pow_and_negative_monomial_pow():
    assert q_bracket(1) ** 2 == LaurentQT({(2, 0): 1, (0, 0): -2, (-2, 0): 1})
    assert LaurentQT.monomial(2, 1, 1) ** -1 == LaurentQT.monomial(Fraction(1, 2), -1, -1)
    with pytest.raises(ValueError):
        (q_bracket(1)) ** -1


@settings(max_examples=150)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # every result is canonical: no zero coefficient stored, integral ones as int
    for r in ((a + b) + c, a - a, a * (b - b), a * b + a * c, a * 0, a * Fraction(3, 2)):
        assert all(v != 0 and (type(v) is int or v.denominator != 1) for v in r.terms.values())


# -- substitution ----------------------------------------------------------


def test_mirror_map_negates_z():
    z = q_bracket(1)
    assert substitute(z, q="q^-1") == -z
    # under q -> -q^-1 the commutator bracket is invariant
    assert substitute(z, q="-q^-1") == z


def test_substitute_q_free_fixed():
    p = t_bracket(1)
    assert substitute(p, q="q^-1") == p


def test_substitute_palindrome():
    p = LaurentQT({(2, 0): 1, (-2, 0): 1})
    assert substitute(p, q="q^-1") == p


def test_substitute_sign_rule():
    # q^a t^b -> (-1)^a q^-a t^b
    p = LaurentQT({(3, 1): 1, (2, 0): 5})
    assert substitute(p, q="-q^-1") == LaurentQT({(-3, 1): -1, (-2, 0): 5})


def test_substitute_fractional_sign_error():
    p = LaurentQT({(Fraction(1, 2), 0): 1})
    with pytest.raises(FractionalExponentSign):
        substitute(p, q="-q^-1")
    # plain inversion of fractional exponents is fine
    assert substitute(p, q="q^-1") == LaurentQT({(Fraction(-1, 2), 0): 1})


@settings(max_examples=100)
@given(laurents(integral_exponents=True))
def test_substitute_involution(p):
    assert substitute(substitute(p, q="q^-1"), q="q^-1") == p
    assert substitute(substitute(p, q="-q^-1"), q="-q^-1") == p
    assert substitute(substitute(p, t="t^-1"), t="t^-1") == p


# -- canonical text and JSON ----------------------------------------------


def test_canonical_text_example():
    p = LaurentQT({(-3, 2): -1, (Fraction(1, 2), 0): 2})
    assert canonical_text(p) == "-1*q^-3*t^2 + 2*q^1/2*t^0"
    assert canonical_text(LaurentQT.zero()) == "0"


def test_json_round_trip():
    p = LaurentQT({(-3, 2): -1, (Fraction(1, 2), 0): Fraction(2, 3), (0, 0): 7})
    records = laurent_to_json(p)
    assert records == sorted(records, key=lambda r: (Fraction(r["qn"], r["qd"]), r["t"]))
    assert laurent_from_json(records) == p
    # a non-integral t-exponent is rejected, not truncated
    with pytest.raises(ValueError, match="t-exponent"):
        laurent_from_json([{"qn": 0, "qd": 1, "t": 1.5, "cn": 1, "cd": 1}])


# -- series expansion and limits -------------------------------------------


def test_expand_series_simple_ratio():
    f = RationalQT(q_bracket(2), q_bracket(1))
    on, od, ln, ld = expand_series(f, "q")
    assert (on, od) == (1, 1)
    assert (ln, ld) == (LaurentQT.monomial(4), LaurentQT.monomial(2))


def test_expand_series_order_bookkeeping():
    f = RationalQT(t_bracket(1) * t_bracket(1), t_bracket(1))
    on, od, _, _ = expand_series(f, "t")
    assert (on, od) == (2, 1)


def test_expand_series_alexander_ratio():
    # (q^6-q^-6)(q-q^-1) / ((q^2-q^-2)(q^3-q^-3)): equal orders at q=1
    f = RationalQT(q_bracket(6) * q_bracket(1), q_bracket(2) * q_bracket(3))
    on, od, ln, ld = expand_series(f, "q")
    assert on == od
    assert ln == ld == LaurentQT.monomial(24)  # value 1 at q=1


def test_expand_series_zero_numerator():
    with pytest.raises(ZeroFunction):
        expand_series(RationalQT(LaurentQT.zero(), q_bracket(1) + LaurentQT.one()), "q")


def test_limit_simple():
    f = RationalQT(q_bracket(2), q_bracket(1))
    assert limit_at_one(f, "q") == LaurentQT.monomial(2)
    assert isinstance(limit_at_one(f, "q"), RationalQT)
    assert limit_at_one(f, "q").as_laurent() == LaurentQT.monomial(2)


def test_limit_pole():
    f = RationalQT(q_bracket(1), q_bracket(1) * q_bracket(1))
    with pytest.raises(LimitDoesNotExist):
        limit_at_one(f, "q")


def test_limit_zero_when_faster():
    f = RationalQT(q_bracket(1) * q_bracket(1), q_bracket(1))
    assert limit_at_one(f, "q") == LaurentQT.zero()
    for zero in (limit_at_one(f, "q"), limit_at_one(RationalQT(LaurentQT.zero()), "t")):
        assert isinstance(zero, RationalQT) and zero.is_zero()


def test_limit_not_laurent_is_rational():
    # (q - q^-1) / ((q - q^-1)(t + 1)) tends to 1/(t + 1) at q = 1
    f = RationalQT(q_bracket(1), q_bracket(1) * (t_power(1) + 1))
    value = limit_at_one(f, "q")
    assert isinstance(value, RationalQT)
    assert value == RationalQT(LaurentQT.one(), t_power(1) + 1)
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        value.as_laurent()


def test_limit_keeps_other_variable():
    # (t - t^-1) q-bracket ratio: limit in q keeps the t part
    f = RationalQT(t_bracket(1) * q_bracket(3), q_bracket(1))
    assert limit_at_one(f, "q") == t_bracket(1) * 3


def _eval_rational(f, qv, tv):
    return evaluate(f.num, qv, tv) / evaluate(f.den, qv, tv)


def test_limit_matches_numerics_at_offset_point():
    # documented sanity hook: limit vs evaluation at q = 1 + 1e-6
    f = RationalQT(q_bracket(6) * q_bracket(1) * t_bracket(1), q_bracket(2) * q_bracket(3))
    value = limit_at_one(f, "q")
    approx = _eval_rational(f, 1.0 + 1e-6, 0.7)
    exact = evaluate(value.as_laurent(), 1.0, 0.7)
    assert abs(approx - exact) / abs(exact) < 1e-4


def _eval_exact(p: LaurentQT, qv: Fraction, tv: Fraction) -> Fraction:
    total = Fraction(0)
    for (qe, te), c in p.terms.items():
        total += Fraction(c) * qv ** int(qe) * tv ** te
    return total


@settings(max_examples=60, deadline=None)
@given(laurents(integral_exponents=True), laurents(integral_exponents=True))
def test_limit_matches_exact_point_evaluation(a, b):
    if b.is_zero():
        return
    f = RationalQT(a, b)
    try:
        value = limit_at_one(f, "q")
    except LimitDoesNotExist:
        return
    qv = Fraction(10**12 + 1, 10**12)
    tv = Fraction(7, 10)
    den_at = _eval_exact(f.den, qv, tv)
    if den_at == 0:
        return
    approx = _eval_exact(f.num, qv, tv) / den_at
    if isinstance(value, RationalQT):
        exact = _eval_exact(value.num, Fraction(1), tv) / _eval_exact(value.den, Fraction(1), tv)
    else:
        exact = _eval_exact(value, Fraction(1), tv)
    if exact != 0:
        assert abs(approx - exact) / abs(exact) < Fraction(1, 10**4)
    else:
        assert abs(approx) < Fraction(1, 10**3)


def _substitute_var_one(p: LaurentQT, variable: str) -> LaurentQT:
    out = LaurentQT.zero()
    for (qe, te), c in p.terms.items():
        key = (0, te) if variable == "q" else (qe, 0)
        out = out + LaurentQT({key: c})
    return out


@settings(max_examples=80)
@given(laurents(integral_exponents=True))
def test_limit_of_polynomial_is_substitution(p):
    f = RationalQT(p)
    assert limit_at_one(f, "q") == _substitute_var_one(p, "q")
    assert limit_at_one(f, "t") == _substitute_var_one(p, "t")


def test_truncated_series_shape():
    s = truncated_series(q_bracket(2), "q", 3)
    assert s.order == 3 and len(s.coeffs) == 4
    assert s.coeffs[0].is_zero()
    assert s.coeffs[1] == LaurentQT.monomial(4)


# -- rational normalization -------------------------------------------------


def test_rational_cross_equality():
    a = RationalQT(q_bracket(2), q_bracket(1))
    b = RationalQT(q_bracket(2) * t_power(3), q_bracket(1) * t_power(3))
    assert a == b


def test_rational_equality_across_representations():
    # the same value before and after simplified(): different term dicts,
    # so equality falls back to cross-multiplication
    raw = RationalQT(q_bracket(1) * q_bracket(2) * t_bracket(1), q_bracket(1) * q_bracket(3))
    reduced = raw.simplified()
    assert reduced.num.terms != raw.num.terms
    assert raw == reduced and reduced == raw
    assert reduced == RationalQT(reduced.num, reduced.den)
    assert raw != reduced * 2 and reduced != RationalQT(reduced.den, reduced.num)
    assert delta() != delta().substituted(q="q^-1")


def test_rational_equality_of_identical_terms_skips_products(monkeypatch):
    value = RationalQT(q_bracket(1) * q_bracket(2) * t_bracket(1), q_bracket(3)).simplified()
    twin = RationalQT(LaurentQT(dict(value.num.terms)), LaurentQT(dict(value.den.terms)))

    def no_products(self, other):
        raise AssertionError("cross-multiplied identical term dicts")

    monkeypatch.setattr(LaurentQT, "__mul__", no_products)
    assert value == twin and twin == value


def test_rational_normal_form_minimal_exponents():
    f = delta()
    qmin = min(min(f.num.exponents("q")), min(f.den.exponents("q")))
    tmin = min(min(f.num.exponents("t")), min(f.den.exponents("t")))
    assert qmin == 0 and tmin == 0


def test_rational_normal_form_content_and_sign_without_shift():
    # exponents already at 0 and integer coefficients: content and sign still normalize
    num = LaurentQT({(0, 0): 2, (1, 1): 4})
    f = RationalQT(num, LaurentQT({(0, 0): 6, (2, 0): -2}))
    assert f.num.terms == {(0, 0): -1, (1, 1): -2}
    assert f.den.terms == {(0, 0): -3, (2, 0): 1}
    # a pair already in normal form is kept as it is
    g = RationalQT(f.num, f.den)
    assert g.num is f.num and g.den is f.den


def test_simplified_cancels_brackets():
    # z * (q^2 - q^-2) * (t - t^-1) / z^2 reduces all the way to a polynomial
    f = RationalQT(q_bracket(1) * q_bracket(2) * t_bracket(1), q_bracket(1) ** 2)
    g = f.simplified()
    assert g == f
    assert g.is_laurent()
    assert g.as_laurent() == LaurentQT({(1, 0): 1, (-1, 0): 1}) * t_bracket(1)
    # simplifying a simplified value changes nothing, down to the term dicts
    not_laurent = RationalQT(q_bracket(1) * q_bracket(2) * t_bracket(1), q_bracket(3) * q_bracket(1))
    for value in (g, not_laurent.simplified(), delta().simplified(), (delta() * delta()).simplified()):
        again = value.simplified()
        assert again.num.terms == value.num.terms and again.den.terms == value.den.terms
        assert list(again.num.terms) == list(value.num.terms)
        assert list(again.den.terms) == list(value.den.terms)


HALF_BRACKET = LaurentQT({(Fraction(1, 2), 0): 1, (Fraction(-1, 2), 0): -1})


def test_simplified_on_fractional_q_lattice():
    # h = q^1/2 - q^-1/2; both values have half-integer q-exponents
    f = RationalQT(HALF_BRACKET * q_bracket(1), q_bracket(1)).simplified()
    assert f.as_laurent() == HALF_BRACKET
    # q - q^-1 = (q^1/2 - q^-1/2)(q^1/2 + q^-1/2): the half bracket cancels
    g = RationalQT(q_bracket(1), HALF_BRACKET).simplified()
    assert g.is_laurent()
    assert g.as_laurent() == LaurentQT({(Fraction(1, 2), 0): 1, (Fraction(-1, 2), 0): 1})


@pytest.mark.parametrize("value", [RationalQT.one(), LaurentQT.one()], ids=["rational", "laurent"])
def test_reflected_operators_reject_foreign_operands(value):
    with pytest.raises(TypeError, match="'str' and"):
        "x" / value
    with pytest.raises(TypeError, match="for -: 'str' and"):
        "x" - value


def test_as_laurent_folds_monomial_denominator():
    f = RationalQT(q_bracket(1) * q_bracket(1), q_bracket(1)).simplified()
    assert f.is_laurent()
    assert f.as_laurent() == q_bracket(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalQT(LaurentQT.one(), LaurentQT.zero())
