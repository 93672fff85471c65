"""Seeded property checks of the univariate dict kernel, ``exact._umul`` and
``exact._udiv``, and of what is built on it: the cyclotomic factors
``exact._cyclotomic`` against sympy, ``exact._exact_div`` (products
against ``LaurentQT`` multiplication, quotients against the products they
came from, and the inexact cases) and the vanishing orders of
``exact.expand_series`` against the full ``truncated_series``.  Also the
packed division that the class sums and the braid closures share,
``exact._packed_div``, against quotients too wide for their slots, and the
slot codec, ``exact._unpack``, ``exact._slot_bytes`` and ``exact._pack``,
and the digits and l1 that ``schur._class_data`` and
``schur._hook_cofactor`` keep from it, against one that handles one slot
at a time."""

import random
from collections import Counter
from math import prod

import pytest
import sympy as sp

from skein_homfly.errors import ZeroFunction
from skein_homfly.exact import (
    LaurentQT,
    RationalQT,
    _cyclotomic,
    _exact_div,
    _pack,
    _packed_div,
    _slot_bytes,
    _udiv,
    _umul,
    _unpack,
    expand_series,
    limit_at_one,
    truncated_series,
)
from skein_homfly.partitions import partitions_of
from skein_homfly.schur import _class_data, _hook_cofactor

from oracles import digits_per_slot, unpack_per_slot

CASES = 300


def _coeff(rng):
    return rng.randint(-9, 9) or 1


def _poly(rng, size=None):
    """A nonzero dict with negative and positive exponents."""
    return {rng.randint(-6, 6): _coeff(rng) for _ in range(size or rng.randint(1, 6))}


def _divisor(rng):
    """A divisor whose top coefficient is one of 2, -3 or a random one."""
    b = _poly(rng, rng.randint(1, 4))
    b[max(b)] = rng.choice((2, -3, _coeff(rng)))
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
    halves = 0
    for _ in range(CASES):
        a, b = _poly(rng), _divisor(rng)
        q = _udiv(_umul(a, b), b)
        assert q == a
        assert all(type(c) is int for c in q.values())
        # over 2b the quotient is a/2, which is an integer quotient only
        # when every coefficient of a is even
        half = {e: c // 2 for e, c in a.items()} if all(c % 2 == 0 for c in a.values()) else None
        assert _udiv(_umul(a, b), {e: 2 * c for e, c in b.items()}) == half
        halves += half is not None
    # both outcomes occur
    assert 0 < halves < CASES


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


def test_cyclotomic_factors_of_brackets():
    # q^2k - 1 is the product of Phi_d(q^2) over d | k, and each factor is
    # sympy's Phi_d(u) at u = q^2
    for k in range(1, 41):
        product = {0: 1}
        for d in range(1, k + 1):
            if k % d == 0:
                product = _umul(product, _cyclotomic(d))
        assert product == {2 * k: 1, 0: -1}, k
    u = sp.Symbol("u")
    for d in range(1, 41):
        coeffs = sp.Poly(sp.cyclotomic_poly(d, u), u).all_coeffs()[::-1]
        assert _cyclotomic(d) == {2 * e: int(c) for e, c in enumerate(coeffs) if c}, d


def _laurent(rng, variables):
    """A nonzero LaurentQT in q, t or both."""
    q = "q" in variables
    t = "t" in variables
    return LaurentQT(
        {(rng.randint(-3, 3) if q else 0, rng.randint(-3, 3) if t else 0): _coeff(rng) for _ in range(rng.randint(1, 4))}
    )


def test_exact_div_inverts_product():
    rng = random.Random(1104)
    for i in range(CASES):
        variables = ("q", "t", "qt")[i % 3]
        a, b = _laurent(rng, variables), _laurent(rng, variables)
        assert _exact_div(a * b, b) == a
        # a monomial is divisible by monomials only
        s = LaurentQT.monomial(_coeff(rng), rng.randint(-4, 4), rng.randint(-4, 4))
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


def _vanishing_part(rng, variable, order):
    """A LaurentQT in q and t that vanishes to exactly ``order`` at
    variable = 1: a cofactor nonzero there times factors v^j - 1, v = q or t
    and j in {1, 2}."""
    idx = 0 if variable == "q" else 1
    while True:
        p = {(rng.randint(-2, 2), rng.randint(-2, 2)): _coeff(rng) for _ in range(rng.randint(1, 3))}
        at_one = {}
        for key, c in p.items():
            at_one[key[1 - idx]] = at_one.get(key[1 - idx], 0) + c
        if any(at_one.values()):
            break
    for _ in range(order):
        j = rng.randint(1, 2)
        shifted = {(a + j, b) if idx == 0 else (a, b + j): c for (a, b), c in p.items()}
        for key, c in p.items():
            shifted[key] = shifted.get(key, 0) - c
        p = shifted
    return LaurentQT(p)


def _span_cap(p, variable):
    """One more than p's span in the variable, a bound on the vanishing
    order of a nonzero p at variable = 1."""
    exps = p.exponents(variable)
    return max(exps) - min(exps) + 1


def test_expand_series_orders_match_truncated_series():
    # orders up to 9 in each part, which took the old order-doubling loop
    # through 4, 8 and 16; the other part stays at 4 or below, which keeps
    # the reference expansions short.  Term dicts are compared, not only values
    rng = random.Random(1106)
    seen = set()
    for i in range(1000):
        variable, high = ("q", "t")[i % 2], i // 2 % 2
        orders = [rng.randint(0, 4), rng.randint(0, 4)]
        orders[high] = rng.randint(0, 9)
        f = RationalQT(*(_vanishing_part(rng, variable, k) for k in orders))
        on, od, ln, ld = expand_series(f, variable)
        for p, order, lead in ((f.num, on, ln), (f.den, od, ld)):
            s = truncated_series(p, variable, _span_cap(p, variable))
            assert order == next((k for k, c in enumerate(s.coeffs) if not c.is_zero()), None)
            assert lead.terms == s.coeffs[order].terms
        assert [on, od] == orders
        seen.add((variable, high, orders[high]))
    assert {(v, high, 9) for v in "qt" for high in (0, 1)} <= seen


def test_expand_series_rejects_bad_input():
    f = RationalQT(LaurentQT.monomial(1, 1, 1) - 1, LaurentQT.monomial(1, 0, 1) + 1)
    with pytest.raises(ValueError, match="variable must be"):
        expand_series(f, "x")
    with pytest.raises(ZeroFunction):
        expand_series(RationalQT(LaurentQT.zero(), f.den), "q")
    # the variable is checked before the numerator
    with pytest.raises(ValueError, match="variable must be"):
        expand_series(RationalQT(LaurentQT.zero(), f.den), "banana")
    with pytest.raises(ValueError, match="variable must be"):
        limit_at_one(RationalQT(0), "banana")


def _dense(d: dict) -> list:
    """The coefficients of a dict on exponents 0.., lowest first."""
    return [d.get(e, 0) for e in range(max(d) + 1)]


def test_packed_div_never_unpacks_a_quotient_too_wide_for_its_slot():
    # X = P C with every coefficient of X inside a one-byte slot, where
    # P = Q (1 + y + ... + y^(m-1))^k and C = (y - 1)^k R often has P's
    # coefficients outside it.  The big-int quotient X(B) / C(B) is P(B)
    # either way; unpacked into bytes a wide P wraps around, and only the
    # slot check tells.  So the result is exactly P or None
    rng = random.Random(1107)
    size, half = 1, 1 << 7
    wide = narrow = unpacked = 0
    while wide < CASES or narrow < CASES:
        k, m = rng.randint(1, 3), rng.randint(2, 12)
        q, r = ({rng.randint(0, 3): rng.randint(-3, 3) or 1 for _ in range(rng.randint(1, 2))} for _ in range(2))
        c = _umul(r, _umul_power({1: 1, 0: -1}, k))
        p = _umul(q, _umul_power({e: 1 for e in range(m)}, k))
        x = _umul(p, c)
        if not p or not x or max(map(abs, x.values())) >= half:
            continue
        out = _packed_div(_packed(_dense(x), size), _packed(_dense(c), size), sum(map(abs, c.values())), size)
        if max(map(abs, p.values())) >= half:
            wide += 1
            assert out is None, (p, c)
        else:
            narrow += 1
            unpacked += out is not None
            assert out is None or _dense({e: v for e, v in enumerate(out) if v}) == _dense(p), (p, c)
    # the check is conservative, but most narrow quotients pass it
    assert unpacked > narrow // 2


def _umul_power(a: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = _umul(out, a)
    return out


def _packed(coeffs: list, size: int) -> int:
    return sum(v << (8 * size * e) for e, v in enumerate(coeffs))


def test_lane_codec_matches_the_per_slot_codec():
    # _unpack reads each slot off the biased bytes of _slot_bytes as
    # ceil(size / 8) 8-byte lanes.  At every size from 1 to 24 (one, two and
    # three lanes), slot values at both ends of the range, zeros and random
    # ones come back as they went in and as the per-slot codec has them
    rng = random.Random(2803)
    for size in range(1, 25):
        top = (1 << (8 * size - 1)) - 1
        for _ in range(40):
            coeffs = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(rng.randint(1, 40))]
            x = _packed(coeffs, size)
            slots = _unpack(x, size)
            assert slots == unpack_per_slot(x, size), (size, coeffs)
            width = max(len(slots), len(coeffs))
            assert slots + [0] * (width - len(slots)) == coeffs + [0] * (width - len(coeffs)), (size, coeffs)
            digits = _slot_bytes(x, size)
            assert digits == digits_per_slot(slots, size), (size, coeffs)
            assert _pack(digits, size, size, 1) == x, (size, coeffs)


def test_class_digits_match_the_per_slot_codec():
    # _class_data keeps each quotient's biased bytes and the l1 read off
    # them, and _hook_cofactor its product's bytes: both are the per-slot
    # codec's digits of the slots it unpacks.  n = 20 is the first n whose
    # slots are 9 bytes wide, so the lane decoder reads two lanes a slot
    for n in range(1, 21):
        _, _, size, classes = _class_data(n)
        d_packed = prod(((1 << (8 * size * k)) - 1) ** (n // k) for k in range(1, n + 1))
        for nu, _, _, l1, digits in classes:
            slots = unpack_per_slot(d_packed // prod((1 << (8 * size * p)) - 1 for p in nu), size)
            assert digits == digits_per_slot(slots, size), (n, nu)
            assert l1 == sum(map(abs, slots)), (n, nu)
    assert _class_data(20)[2] == 9 > _class_data(19)[2]
    for d in range(1, 6):
        for a in partitions_of(d):
            hooks = tuple(sorted(a.hook_lengths()))
            for m in (1, 2, 3):
                n = m * d
                size = _class_data(n)[2]
                powers = Counter(k for k in range(1, n + 1) for _ in range(n // k)) - Counter(hooks)
                cofactor = prod(((1 << (8 * size * k)) - 1) ** e for k, e in powers.items())
                digits = _hook_cofactor(n, hooks)[0]
                assert digits == digits_per_slot(_unpack(cofactor, size), size), (n, a)
