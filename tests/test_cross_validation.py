"""Independent recomputation of key values through sympy calculus.

These tests rebuild the invariants from the raw class sums with sympy
rational functions and take limits by sympy's own cancellation, sharing
nothing with the package's Laurent engine except the integer character
values (which test_characters pins against brute-force oracles).  They are
the court of appeal for the counterexample expansion.
"""

from fractions import Fraction

import sympy as sp

from skein_homfly.characters import character
from skein_homfly.exact import LaurentQT
from skein_homfly.partitions import Partition, partitions_of
from skein_homfly.special import special_delta, special_H
from skein_homfly.torus import TorusLinkSpec, colored_homfly

P = Partition
q, t = sp.symbols("q t")


def _s_star_sym(mu):
    total = sp.Integer(0)
    for nu in partitions_of(mu.size):
        chi = character(mu, nu)
        if not chi:
            continue
        term = sp.Rational(chi, nu.z_factor())
        for p in nu:
            term *= (t**p - t**-p) / (q**p - q**-p)
        total += term
    return total


def _w_sym(m, n, a):
    total = sp.Integer(0)
    for mu in partitions_of(m * a.size):
        c = Fraction(0)
        for b in partitions_of(a.size):
            chi_a = character(a, b)
            if not chi_a:
                continue
            rho = P(sorted((m * p for p in b), reverse=True))
            c += Fraction(chi_a, b.z_factor()) * character(mu, rho)
        if c:
            total += int(c) * q ** sp.Rational(n * mu.k_invariant(), m) * _s_star_sym(mu)
    return total * q ** (-m * n * a.k_invariant()) * t ** (-n * (m - 1) * a.size)


def _laurent_to_sympy(p: LaurentQT):
    total = sp.Integer(0)
    for (qe, te), c in p.terms.items():
        total += sp.Rational(Fraction(c)) * q**qe * t**te
    return total


def test_counterexample_limit_recomputed_independently():
    a = P((2, 2))
    ratio = sp.cancel(sp.together(_w_sym(2, 3, a) / _s_star_sym(a)))
    num, den = sp.fraction(ratio)
    den_at_one = sp.expand(den).subs(t, 1)
    assert den_at_one != 0
    independent = sp.cancel(sp.expand(num).subs(t, 1) / den_at_one)
    mine = special_delta(TorusLinkSpec(2, 3, 1, (a,))).value
    assert sp.expand(independent - _laurent_to_sympy(mine)) == 0


def test_single_box_H_recomputed_independently():
    a = P((1,))
    ratio = sp.cancel(sp.together(_w_sym(2, 3, a) / _s_star_sym(a)))
    num, den = sp.fraction(ratio)
    independent = sp.cancel(sp.expand(num).subs(q, 1) / sp.expand(den).subs(q, 1))
    mine = special_H(TorusLinkSpec(2, 3, 1, (a,))).value
    assert sp.expand(independent - _laurent_to_sympy(mine)) == 0


def _sympy_poly(p: LaurentQT) -> sp.Poly:
    # a normalized part has integer content and exponents >= 0 here
    return sp.Poly.from_dict({(int(qe), te): int(c) for (qe, te), c in p.terms.items()}, q, t)


def test_reduced_values_share_no_factor():
    # the class sum's cyclotomic cancellation leaves numerator and
    # denominator coprime: their gcd in Z[q, t] is a constant, so no
    # further reduction could change these values' text
    knots = [(m, n, a) for m, n in ((2, 3), (3, 4), (2, -3), (2, 5)) for d in (2, 3) for a in partitions_of(d)]
    knots += [(2, 3, a) for a in partitions_of(4)]
    specs = [TorusLinkSpec(m, n, 1, (a,)) for m, n, a in knots]
    pairs = ((P((1,)), P((1,))), (P((2,)), P((1,))), (P((1, 1)), P((1,))))
    specs += [TorusLinkSpec(1, n, 2, colors) for n in (1, 2) for colors in pairs]
    for spec in specs:
        value = colored_homfly(spec).value
        assert not value.is_laurent(), spec
        gcd = sp.gcd(_sympy_poly(value.num), _sympy_poly(value.den))
        assert gcd.is_ground, (spec, gcd)
