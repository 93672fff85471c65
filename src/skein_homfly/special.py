"""Special polynomials: exact limits of colored invariants at q=1 or t=1.

H is the q->1 limit of the colored invariant divided by the matching
product of colored unknot values; its dual (t->1) recovers the Alexander
polynomial at the single-box color and stays multiplicative in q^|A| for
hook colors on torus knots -- but not for arbitrary colors, and for links
the t->1 limit generally does not exist at all.

Values in q that are symmetric under q -> 1/q can be re-expressed on the
basis {1} and D_d = q^d + q^-d by greedy top-degree elimination; that is
the display form used for the non-hook counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NonCoprime
from .exact import (
    LaurentQT,
    RationalQT,
    _exact_div_univariate,
    _fmt_rational,
    limit_at_one,
    q_bracket,
)
from .torus import colored_homfly
from .schur import unknot_value


@dataclass(frozen=True)
class SpecialPolynomial:
    """A computed limit value tagged with its kind and source link."""

    kind: str  # "H" or "delta"
    variable: str  # the surviving variable: "t" for H, "q" for delta
    value: LaurentQT  # the limit in the surviving variable
    source: object


def _ratio(spec) -> RationalQT:
    w = colored_homfly(spec).value
    den = RationalQT.one()
    for a in spec.all_colors():
        den = den * unknot_value(a)
    return (w / den).simplified()


def special_H(spec) -> SpecialPolynomial:
    """q->1 limit of the invariant over the unknot normalization."""
    value = limit_at_one(_ratio(spec), "q").as_laurent()
    return SpecialPolynomial("H", "t", value, spec)


def special_delta(spec) -> SpecialPolynomial:
    """t->1 limit of the invariant over the unknot normalization.

    Exists for knots; for links it generally does not (LimitDoesNotExist
    propagates), which is itself a checked behavior.
    """
    value = limit_at_one(_ratio(spec), "t").as_laurent()
    return SpecialPolynomial("delta", "q", value, spec)


def alexander_torus(m: int, n: int, d: int = 1) -> LaurentQT:
    """Alexander polynomial of the (m, n) torus knot evaluated at q^d.

    Computed as the exact quotient
        (q^{mnd} - q^{-mnd})(q^d - q^{-d}) / ((q^{md} - q^{-md})(q^{nd} - q^{-nd}))
    which is provably a Laurent polynomial for coprime m, n.
    """
    if gcd(m, abs(n)) != 1:
        raise NonCoprime(f"gcd({m}, {n}) != 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    num = q_bracket(m * n * d) * q_bracket(d)
    den = q_bracket(m * d) * q_bracket(n * d)
    out = _exact_div_univariate(num, den)
    assert out is not None, "torus Alexander division must be exact"
    return out


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
    while rem:
        top = max(e for e, _ in rem)
        if top == 0:
            break
        c = rem[(top, 0)]
        if rem.get((-top, 0)) != c:
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
        parts.append(_fmt_rational(const))
    for d in sorted(coeffs):
        c = coeffs[d]
        mag = abs(c)
        body = f"D_{d}" if mag == 1 else f"{_fmt_rational(mag)}*D_{d}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def compose_q_power(p: LaurentQT, d: int) -> LaurentQT:
    """Substitute q -> q^d into a univariate q-polynomial."""
    return LaurentQT({(qe * d, te): c for (qe, te), c in p.terms.items()})
