import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from skein_homfly.errors import LimitDoesNotExist, ZeroFunction
from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _brackets,
    _cancel,
    _over_q,
    _slices,
    _unslice,
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

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=-4, max_value=4)


@st.composite
def laurents(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        terms[(draw(exponents), draw(exponents))] = draw(coeffs)
    return LaurentQT(terms)


# -- basic arithmetic ------------------------------------------------------


def test_bracket_times_delta_is_t_bracket():
    assert RationalQT(q_bracket(1)) * delta() == RationalQT(t_bracket(1))


def test_additive_identity():
    p = LaurentQT({(2, -1): 3, (1, 0): -1})
    assert p + LaurentQT.zero() == p


def test_half_exponents_multiply():
    # exponents written in halves that are whole, such as 4/2, are stored
    # as int and add like any others
    two = LaurentQT({(Fraction(4, 2), Fraction(-2, 2)): 1})
    assert two * two == LaurentQT.monomial(1, 4, -2)
    assert all(type(e) is int for key in (two * two).terms for e in key)


def test_pow_and_negative_monomial_pow():
    assert q_bracket(1) ** 2 == LaurentQT({(2, 0): 1, (0, 0): -2, (-2, 0): 1})
    assert LaurentQT.monomial(1, 1, 1) ** -1 == LaurentQT.monomial(1, -1, -1)
    assert LaurentQT.monomial(-1, 2, -1) ** -3 == LaurentQT.monomial(-1, -6, 3)
    assert all(type(c) is int for c in (LaurentQT.monomial(-1, 2) ** -3).terms.values())
    with pytest.raises(ValueError):
        (q_bracket(1)) ** -1
    # 1/2 is not an integer coefficient
    with pytest.raises(ValueError, match="non-unit"):
        LaurentQT.monomial(2, 1, 1) ** -1


@settings(max_examples=150)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # every result is canonical: no zero coefficient stored, each one an int
    for r in ((a + b) + c, a - a, a * (b - b), a * b + a * c, a * 0, a * -3):
        assert all(v != 0 and type(v) is int for v in r.terms.values())


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


@settings(max_examples=100)
@given(laurents())
def test_substitute_involution(p):
    assert substitute(substitute(p, q="q^-1"), q="q^-1") == p
    assert substitute(substitute(p, q="-q^-1"), q="-q^-1") == p
    assert substitute(substitute(p, t="t^-1"), t="t^-1") == p


# -- canonical text and JSON ----------------------------------------------


def test_canonical_text_example():
    p = LaurentQT({(-3, 2): -1, (1, 0): 2})
    assert canonical_text(p) == "-1*q^-3*t^2 + 2*q^1*t^0"
    assert canonical_text(LaurentQT.zero()) == "0"


def test_json_round_trip():
    p = LaurentQT({(-3, 2): -1, (1, 0): 12, (0, 0): 7})
    records = laurent_to_json(p)
    assert records == sorted(records, key=lambda r: (r["qn"], r["t"]))
    # qd and cd are always 1, kept so that records keep their shape
    assert [list(r) for r in records] == [["qn", "qd", "t", "cn", "cd"]] * 3
    assert all(r["qd"] == r["cd"] == 1 for r in records)
    assert [r["cn"] for r in records] == [-1, 7, 12]
    assert laurent_from_json(records) == p
    # a non-integral t-exponent is rejected, not truncated
    with pytest.raises(ValueError, match="t-exponent"):
        laurent_from_json([{"qn": 0, "qd": 1, "t": 1.5, "cn": 1, "cd": 1}])


def test_constructor_rejects_inexact_scalars():
    # a float would be stored as given and printed truncated through int()
    with pytest.raises(ValueError, match="q-exponent must be an integer: 1.5"):
        LaurentQT({(1.5, 0): 1})
    with pytest.raises(ValueError, match="coefficient must be an integer: 0.5"):
        LaurentQT({(0, 0): 0.5})
    with pytest.raises(ValueError, match="coefficient"):
        LaurentQT({(1, 0): 1, (0, 0): 0.0})
    with pytest.raises(ValueError, match="q-exponent"):
        LaurentQT({(2.0, 0): 1})
    # an int subclass is stored as a plain int, in every slot
    ((qe, te), c), = LaurentQT({(True, False): True}).terms.items()
    assert (qe, te, c) == (1, 0, 1)
    assert (type(qe), type(te), type(c)) == (int, int, int)
    # RationalQT's scalar parts go through the same check
    with pytest.raises(ValueError, match="coefficient must be an integer: 1.5"):
        RationalQT(1.5)
    with pytest.raises(ValueError, match="coefficient must be an integer: 0.5"):
        RationalQT(LaurentQT.one(), 0.5)


def test_constructor_rejects_fractional_coefficients():
    with pytest.raises(ValueError, match="coefficient must be an integer: 1/2"):
        LaurentQT({(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match="coefficient must be an integer: -2/3"):
        RationalQT(LaurentQT.one(), Fraction(-2, 3))
    with pytest.raises(ValueError, match="coefficient must be an integer: 1/2"):
        laurent_from_json([{"qn": 0, "qd": 1, "t": 0, "cn": 1, "cd": 2}])
    # a whole Fraction, in a term or in a record, is stored as that int
    (c,) = LaurentQT({(0, 0): Fraction(4, 2)}).terms.values()
    assert (c, type(c)) == (2, int)
    assert laurent_from_json([{"qn": 0, "qd": 1, "t": 0, "cn": -6, "cd": 3}]) == LaurentQT.monomial(-2)
    # a Fraction operand is not a coefficient either
    for value in (LaurentQT.one(), RationalQT.one()):
        with pytest.raises(TypeError):
            value * Fraction(1, 2)
        with pytest.raises(TypeError):
            Fraction(1, 2) + value


def test_import_loads_no_rational_arithmetic():
    # coefficients are integers, so the package never needs the fractions module
    code = "import sys, skein_homfly; sys.exit('fractions' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_constructor_rejects_fractional_exponents():
    with pytest.raises(ValueError, match="q-exponent must be an integer: 1/2"):
        LaurentQT({(Fraction(1, 2), 0): 1})
    with pytest.raises(ValueError, match="t-exponent must be an integer: -1/3"):
        LaurentQT({(0, Fraction(-1, 3)): 1})
    with pytest.raises(ValueError, match="q-exponent"):
        laurent_from_json([{"qn": 1, "qd": 2, "t": 0, "cn": 1, "cd": 1}])
    # a record whose qn/qd is whole is read as that integer
    assert laurent_from_json([{"qn": 4, "qd": 2, "t": 0, "cn": 1, "cd": 1}]) == LaurentQT.monomial(1, 2)


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
        total += Fraction(c) * qv**qe * tv**te
    return total


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents())
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
@given(laurents())
def test_limit_of_polynomial_is_substitution(p):
    f = RationalQT(p)
    assert limit_at_one(f, "q") == _substitute_var_one(p, "q")
    assert limit_at_one(f, "t") == _substitute_var_one(p, "t")


def test_truncated_series_shape():
    s = truncated_series(q_bracket(2), "q", 3)
    assert s.order == 3 and len(s.coeffs) == 4
    assert s.coeffs[0].is_zero()
    assert s.coeffs[1] == LaurentQT.monomial(4)
    # a negative order would read as the expansion of zero
    with pytest.raises(ValueError, match="order must be >= 0"):
        truncated_series(q_bracket(1), "q", -2)


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


def test_exponents_rejects_unknown_variable():
    p = LaurentQT({(2, 5): 1})
    assert (p.exponents("q"), p.exponents("t")) == ([2], [5])
    with pytest.raises(ValueError, match="variable must be 'q' or 't'"):
        p.exponents("x")


def test_rational_normal_form_content_and_sign_without_shift():
    # exponents already at 0 and integer coefficients: content and sign still normalize
    num = LaurentQT({(0, 0): 2, (1, 1): 4})
    f = RationalQT(num, LaurentQT({(0, 0): 6, (2, 0): -2}))
    assert f.num.terms == {(0, 0): -1, (1, 1): -2}
    assert f.den.terms == {(0, 0): -3, (2, 0): 1}
    # a pair already in normal form is kept as it is
    g = RationalQT(f.num, f.den)
    assert g.num is f.num and g.den is f.den


def _random_laurent(rng, terms=4):
    out = LaurentQT.zero()
    while out.is_zero():
        out = LaurentQT({(rng.randint(-4, 4), rng.randint(-3, 3)): rng.randint(-9, 9) for _ in range(terms)})
    return out


def test_kernel_values_build_each_part_once(monkeypatch):
    # _over_q, substituted() and unary minus normalize on term dicts and
    # build each part once, unchecked, to the terms RationalQT(num, den) gives
    # on the same parts; a negation shares the denominator, so it builds one
    # part.  A LaurentQT comes from its constructor, which checks, or _of.
    made, init, of = [], LaurentQT.__init__, LaurentQT._of.__func__

    def counting_init(self, *args):
        made.append("init")
        init(self, *args)

    def counting_of(cls, terms):
        made.append("_of")
        return of(cls, terms)

    monkeypatch.setattr(LaurentQT, "__init__", counting_init)
    monkeypatch.setattr(LaurentQT, "_of", classmethod(counting_of))

    def built(make):
        made.clear()
        value = make()
        return value, list(made)

    def same_terms(a, b):
        return a.num.terms == b.num.terms and a.den.terms == b.den.terms

    rng = random.Random(24)
    for _ in range(60):
        c = rng.choice((1, 2, -3, 6))
        f = RationalQT(_random_laurent(rng) * c, _random_laurent(rng, 3) * c)
        for q in ("q", "q^-1", "-q", "-q^-1"):
            for t in ("t", "t^-1"):
                g, made_by = built(lambda: f.substituted(q=q, t=t))
                assert made_by == ["_of", "_of"], (f, q, t)
                assert same_terms(g, RationalQT(substitute(f.num, q, t), substitute(f.den, q, t)))
        g, made_by = built(lambda: -f)
        assert made_by == ["_of"] and g.den is f.den
        assert same_terms(g, RationalQT(-f.num, f.den))
        # t-slices over a bracket product that may share factors with them
        ks = {k: 1 for k in rng.sample(range(1, 7), rng.randint(1, 3))}
        shift = rng.randint(-2, 2)
        den = {e + shift: v * c for e, v in _brackets(ks).items()}
        shared = _brackets({rng.choice(list(ks)): rng.randint(0, 1)})
        ns = _slices(_random_laurent(rng) * LaurentQT({(e, 0): v * c for e, v in shared.items()}), 0)
        g, made_by = built(lambda: _over_q(ns, den))
        assert made_by == ["_of", "_of"], (ns, den)
        cn, cd = _cancel(ns, {0: den})
        assert same_terms(g, RationalQT(LaurentQT(_unslice(cn, 0)), LaurentQT(_unslice(cd, 0))))
        assert g == RationalQT(LaurentQT(_unslice(ns, 0)), LaurentQT({(e, 0): v for e, v in den.items()}))


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


def test_reduction_strips_part_of_a_bracket():
    # (q^2 + 1)(t - t^-1) / (q^2 - q^-2) is q * delta: q^2 + 1 = Phi_2(q^2) is
    # half of the bracket [2] = q^-2 Phi_1(q^2) Phi_2(q^2), and both routes
    # strip it, so the value prints as q * delta does
    expected = str(RationalQT(LaurentQT.monomial(1, 1)) * delta())
    num = LaurentQT({(2, 0): 1, (0, 0): 1}) * t_bracket(1)
    assert str(RationalQT(num, q_bracket(2)).simplified()) == expected
    assert str(_over_q({1: {2: 1, 0: 1}, -1: {2: -1, 0: -1}}, {2: 1, -2: -1})) == expected


def _cyclotomic_at_q_squared(d):
    x = sp.Symbol("x")
    coeffs = sp.Poly(sp.cyclotomic_poly(d, x), x).all_coeffs()
    return LaurentQT({(2 * (len(coeffs) - 1 - i), 0): int(c) for i, c in enumerate(coeffs)})


def _bracket_product(ks):
    out = LaurentQT.one()
    for k in ks:
        out = out * q_bracket(k)
    return out


def test_one_value_over_two_bracket_products_prints_once():
    # f Phi_d(q^2) / (c B) with d dividing a bracket of B, and the same value
    # with one more bracket [j] on both sides: the reductions print one text
    rng = random.Random(23)
    for _ in range(200):
        d = rng.randint(1, 8)
        ks = [rng.randint(1, 8) for _ in range(rng.randint(0, 3))] + [d * rng.randint(1, 8 // d)]
        f = LaurentQT({(rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(-4, 4) or 1 for _ in range(4)})
        num, den = f * _cyclotomic_at_q_squared(d), _bracket_product(ks) * rng.choice((-3, -2, -1, 1, 2, 3))
        j = q_bracket(rng.randint(1, 6))
        texts = set()
        for n, dd in ((num, den), (num * j, den * j)):
            assert RationalQT(n, dd) == RationalQT(num, den)
            texts |= {str(RationalQT(n, dd).simplified()), str(_over_q(_slices(n, 0), _slices(dd, 0)[0]))}
        assert len(texts) == 1, (d, ks, f, j, texts)


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


def test_half_is_a_quotient_not_a_laurent_polynomial():
    half = RationalQT(1, 2)
    assert not half.is_laurent()
    assert str(half) == "(1*q^0*t^0) / (2*q^0*t^0)"
    assert half * 2 == 1
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        half.as_laurent()
    # a monomial denominator with coefficient 1 is Laurent
    assert RationalQT(3, t_power(2) * -1).is_laurent()
    assert str(RationalQT(3, t_power(2) * -1)) == "-3*q^0*t^-2"


def test_as_laurent_divides_by_any_denominator():
    # t (q^2 - q^-2) / (q - q^-1) = t (q + q^-1): a denominator in q alone
    # under a numerator in both variables
    value = RationalQT(t_power(1) * q_bracket(2), q_bracket(1))
    assert value.as_laurent() == t_power(1) * LaurentQT({(1, 0): 1, (-1, 0): 1})
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        RationalQT(LaurentQT.one(), q_bracket(1) + t_bracket(1)).as_laurent()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalQT(LaurentQT.one(), LaurentQT.zero())
