"""Seeded property checks of the univariate dict kernel, ``exact._umul`` and
``exact._udiv``, and of ``exact._exact_div`` built on it: products against
``LaurentQT`` multiplication, quotients against the products they came from,
and the inexact cases."""

import random
from fractions import Fraction

import pytest

from skein_homfly.exact import LaurentQT, _exact_div, _udiv, _umul

CASES = 300


def _coeff(rng):
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.5 else rng.randint(-9, 9)
    c = int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
    return c or 1


def _poly(rng, size=None):
    """A nonzero dict with negative and positive exponents."""
    return {rng.randint(-6, 6): _coeff(rng) for _ in range(size or rng.randint(1, 6))}


def _divisor(rng):
    """A divisor whose top coefficient is one of 2, -3, 1/2 or a random one."""
    b = _poly(rng, rng.randint(1, 4))
    b[max(b)] = rng.choice((2, -3, Fraction(1, 2), _coeff(rng)))
    return b


def _as_laurent(d, idx):
    return LaurentQT({((e, 0) if idx == 0 else (0, e)): c for e, c in d.items()})


def test_umul_matches_laurent_product():
    rng = random.Random(1101)
    for i in range(CASES):
        a, b = _poly(rng), _poly(rng)
        idx = i % 2
        assert _as_laurent(_umul(a, b), idx) == _as_laurent(a, idx) * _as_laurent(b, idx)
        assert all(_umul(a, b).values())


def test_udiv_inverts_umul():
    rng = random.Random(1102)
    for _ in range(CASES):
        a, b = _poly(rng), _divisor(rng)
        q = _udiv(_umul(a, b), b)
        assert q == a
        # integral quotient coefficients are int, the others Fraction
        for c in q.values():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def test_udiv_inexact_returns_none():
    rng = random.Random(1103)
    for _ in range(CASES):
        q, b = _poly(rng), _divisor(rng)
        b[min(b) - rng.randint(1, 3)] = _coeff(rng)
        span = max(b) - min(b)
        # a nonzero remainder below min(q) + max(b) spans less than b, so b
        # cannot divide it
        low = min(q) + min(b)
        remainder = {rng.randint(low, low + span - 1): _coeff(rng) for _ in range(rng.randint(1, 3))}
        a = _umul(q, b)
        for e, c in remainder.items():
            a[e] = a.get(e, 0) + c
        assert _udiv({e: c for e, c in a.items() if c}, b) is None
        # a divisor longer than the dividend
        shorter = {rng.randint(0, span - 1): _coeff(rng) for _ in range(3)}
        assert _udiv(shorter, b) is None


def _laurent(rng, variables):
    """A nonzero LaurentQT in q, t or both, q-exponents on the half-integer lattice."""
    q = "q" in variables
    t = "t" in variables
    return LaurentQT(
        {
            (Fraction(rng.randint(-6, 6), 2) if q else 0, rng.randint(-3, 3) if t else 0): _coeff(rng)
            for _ in range(rng.randint(1, 4))
        }
    )


def test_exact_div_inverts_product():
    rng = random.Random(1104)
    for i in range(CASES):
        variables = ("q", "t", "qt")[i % 3]
        a, b = _laurent(rng, variables), _laurent(rng, variables)
        assert _exact_div(a * b, b) == a
        # a monomial is divisible by monomials only
        s = LaurentQT.monomial(_coeff(rng), Fraction(rng.randint(-9, 9), 2), rng.randint(-4, 4))
        if len(b.terms) > 1:
            assert _exact_div(a * b + s, b) is None
        with pytest.raises(ZeroDivisionError):
            _exact_div(a, LaurentQT.zero())


def test_exact_div_results_multiply_back():
    # dividends whose image under the substitution q^i t^j -> v^(i + w j)
    # (q-offsets i < w) is a multiple of the divisor's image, so _udiv
    # succeeds; the quotient is real only when its q-offsets fit
    rng = random.Random(1105)
    found = 0
    for _ in range(CASES):
        w = rng.randint(2, 5)
        vb = {rng.randint(0, w - 1) + w * rng.randint(-2, 2): _coeff(rng) for _ in range(rng.randint(2, 4))}
        va = _umul(_poly(rng, rng.randint(1, 3)), vb)
        a, b = (LaurentQT({(e % w, e // w): c for e, c in v.items()}) for v in (va, vb))
        if (out := _exact_div(a, b)) is not None:
            found += 1
            assert out * b == a
    # both outcomes occur
    assert 0 < found < CASES
