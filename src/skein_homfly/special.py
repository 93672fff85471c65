"""Special polynomials: exact limits of colored invariants at q=1 or t=1.

H is the q->1 limit of the colored invariant divided by the matching
product of colored unknot values; its dual (t->1) recovers the Alexander
polynomial at the single-box color and stays multiplicative in q^|A| for
hook colors on torus knots -- but not for arbitrary colors, and for links
the t->1 limit generally does not exist at all.  H is the ratio of two
leading q -> 1 coefficients: the torus value's, from the exact vanishing
orders of its numerator and denominator, over the unknots' closed form;
the dual is taken limit-first from a few classes of the torus class sum.
Both take a ``TorusLinkSpec``; the unknot and the unlinks are T(1, 0),
where both limits are 1.  Each value is built once per (m, n, colors) and
shared by every equal spec; the weight-free class data of the t -> 1
route is built once per (n, j) (``schur.class_sum_order``).
``alexander_torus``, the closed form the t -> 1 value is checked against,
is computed afresh on every call.

Values in q that are symmetric under q -> 1/q can be re-expressed on the
basis {1} and D_d = q^d + q^-d by greedy top-degree elimination; that is
the display form used for the non-hook counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import index

from .errors import LimitDoesNotExist, NonCoprime
from .exact import LaurentQT, _brackets, _udiv, _umul, expand_series
from .schur import class_sum_order
from .torus import TorusLinkSpec, _torus_value, _torus_weights


@dataclass(frozen=True)
class SpecialPolynomial:
    """A computed limit value tagged with its kind and source link."""

    kind: str  # "H" or "delta"
    variable: str  # the surviving variable: "t" for H, "q" for delta
    value: LaurentQT  # the limit in the surviving variable
    source: TorusLinkSpec


@lru_cache(maxsize=None)
def _H_torus(m: int, n: int, colors: tuple) -> LaurentQT:
    """H of T(m, n) colored by colors, built once per link."""
    w = _torus_value(m, n, colors)
    if w.is_zero():
        return LaurentQT.zero()
    a = sum(c.size for c in colors)
    on, od, ln, ld = expand_series(w, "q")
    if od - on > a:
        raise LimitDoesNotExist(
            f"pole of order {od - on} > sum |A| = {a} at q=1 "
            f"(numerator order {on}, denominator order {od})"
        )
    if od - on < a:
        return LaurentQT.zero()
    scale = prod(h for c in colors for h in c.hook_lengths()) << a
    num = {te: c * scale for (_, te), c in ln.terms.items()}
    den = _umul({te: c for (_, te), c in ld.terms.items()}, _brackets({1: a}))
    return _laurent_quotient(num, den, 1)


def special_H(spec: TorusLinkSpec) -> SpecialPolynomial:
    """q->1 limit of the invariant over the unknot normalization.

    At q = 1 + d each bracket [p] is 2pd + O(d^2), so prod s*_A has a pole
    of order a = sum |A|, reached by the class (1^|A|) alone, with leading
    coefficient prod (t - t^-1)^|A| / (prod h(A) 2^|A|).  The value is the
    torus value's d^a coefficient (from the exact vanishing orders of its
    numerator and denominator) over that one; a stronger pole raises
    LimitDoesNotExist, a weaker one gives zero.  TypeError on anything but
    a TorusLinkSpec.
    """
    if not isinstance(spec, TorusLinkSpec):
        raise TypeError(f"unsupported link spec: {spec!r}")
    return SpecialPolynomial("H", "t", _H_torus(spec.m, spec.n, spec.colors), spec)


@lru_cache(maxsize=None)
def _delta_torus(m: int, n: int, colors: tuple) -> LaurentQT:
    """The limit-first t -> 1 value of T(m, n) colored by colors, built once
    per link."""
    weights, n_total, _ = _torus_weights(m, n, colors)
    # s*_A vanishes at t = 1 once per cell of content 0: d(A), the Durfee size
    orders = [sum(1 for i, p in enumerate(a) if p > i) for a in colors]
    k = sum(orders)
    for j in range(k):
        if class_sum_order(n_total, weights, j)[0]:
            raise LimitDoesNotExist(f"numerator vanishes to order {j} < denominator order {k} at t=1")
    num, den = class_sum_order(n_total, weights, k)
    if not num:
        return LaurentQT.zero()
    for a, d in zip(colors, orders):
        un, ud = class_sum_order(a.size, {a: {0: 1}}, d)
        num, den = _umul(num, ud), _umul(den, un)
    return _laurent_quotient(num, den, 0)


def _laurent_quotient(num: dict, den: dict, idx: int) -> LaurentQT:
    """num / den, univariate dicts in the variable at key position idx
    (0 = q, 1 = t), as a LaurentQT; ValueError when den does not divide num."""
    out = _udiv(num, den)
    if out is None:
        raise ValueError("value is not a Laurent polynomial")
    return LaurentQT._of({((e, 0) if idx == 0 else (0, e)): c for e, c in out.items()})


def special_delta(spec: TorusLinkSpec) -> SpecialPolynomial:
    """t->1 limit of the invariant over the unknot normalization, limit-first.

    At t = e^h the unknot s*_A vanishes to order d(A), its Durfee size: the
    value is [h^k] V / prod [h^d(A)] s*_A, k = sum d(A), V the torus class
    sum with the prefactor's q-power in its weights, from the classes with
    at most k parts.  A link whose lower orders do not vanish raises
    LimitDoesNotExist.  TypeError on anything but a TorusLinkSpec.
    """
    if not isinstance(spec, TorusLinkSpec):
        raise TypeError(f"unsupported link spec: {spec!r}")
    return SpecialPolynomial("delta", "q", _delta_torus(spec.m, spec.n, spec.colors), spec)


def alexander_torus(m: int, n: int, d: int = 1) -> LaurentQT:
    """Alexander polynomial of the (m, n) torus knot evaluated at q^d.

    Computed as the exact quotient
        (q^{mnd} - q^{-mnd})(q^d - q^{-d}) / ((q^{md} - q^{-md})(q^{nd} - q^{-nd}))
    which is provably a Laurent polynomial for coprime m, n.  T(1, 0) is
    the unknot, whose brackets [0] would make that quotient 0/0: it gives 1.
    Fresh on every call, on the univariate kernel: it is the independent
    check of ``special_delta``.  TypeError when m, n or d is not an integer.
    """
    m, n, d = index(m), index(n), index(d)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if gcd(m, abs(n)) != 1:
        raise NonCoprime(f"gcd({m}, {n}) != 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if n == 0:
        return LaurentQT.one()
    num = _umul(_brackets({m * n * d: 1}), _brackets({d: 1}))
    out = _udiv(num, _umul(_brackets({m * d: 1}), _brackets({n * d: 1})))
    assert out is not None, "torus Alexander division must be exact"
    return LaurentQT._of({(e, 0): c for e, c in out.items()})


# -- display basis D_d = q^d + q^-d -------------------------------------


def delta_basis(p: LaurentQT):
    """Decompose a q -> 1/q symmetric Laurent polynomial on {1, D_d}.

    Returns (constant, {d: coefficient}) with D_d = q^d + q^-d, found by
    greedy elimination from the top degree down.  Raises ValueError when
    the input is not symmetric or not univariate in q.
    """
    if any(te != 0 for _, te in p.terms):
        raise ValueError("delta basis applies to univariate q-polynomials")
    rem = dict(p.terms)
    coeffs = {}
    # anything left besides the constant pairs up or is asymmetric
    while rem.keys() - {(0, 0)}:
        top = max(e for e, _ in rem)
        c = rem[(top, 0)]
        if top <= 0 or rem.get((-top, 0)) != c:
            raise ValueError("polynomial is not symmetric under q -> 1/q")
        coeffs[top] = c
        for key in ((top, 0), (-top, 0)):
            del rem[key]
    const = rem.get((0, 0), 0)
    return const, coeffs


def format_delta_basis(p: LaurentQT) -> str:
    """Canonical text on the D_d basis, e.g. ``8 - 7*D_4 - D_6 + ...``.

    Unit coefficients are dropped next to D_d, matching how such
    expansions are usually displayed.
    """
    const, coeffs = delta_basis(p)
    parts = []
    if const != 0 or not coeffs:
        parts.append(str(const))
    for d in sorted(coeffs):
        c = coeffs[d]
        mag = abs(c)
        body = f"D_{d}" if mag == 1 else f"{mag}*D_{d}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
