"""Exact sparse Laurent arithmetic in (q, t) and series-based limits.

The coefficient domain is the rationals (stdlib ``fractions.Fraction``,
stored as plain ``int`` whenever the denominator is 1).  q-exponents may be
exact rationals, while t-exponents are always integers.  The class sums
carry the m-th roots of twist monomials as integer exponents on a scaled
lattice and check that they cancel (``schur._unscale``), so fractional
q-exponents reach LaurentQT only from callers who build them.  The
constructor is the one place that drops zero coefficients and stores
integral values as ``int``; the arithmetic accumulates raw sums and
constructs once.

Limits at q=1 or t=1 are computed by truncated series expansion around the
point, never by polynomial gcd: write the variable as 1+eps, expand
numerator and denominator to their first non-vanishing order, compare
orders, and return the quotient of the leading coefficients as a
RationalQT.

Univariate work runs on one kernel of {int exponent -> coefficient} dicts:
``_umul`` multiplies, ``_udiv`` divides exactly (or reports that it cannot),
and ``div_bracket_coeffs`` divides by v^k - v^-k.  ``_slices`` is the one
lattice conversion: it cuts a LaurentQT into such dicts, one per exponent of
the other variable, a fractional exponent e entering as the integer e * r
(r from ``_lattice``, the lcm of the exponent denominators); ``_unslice``
rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FractionalExponentSign, LimitDoesNotExist, ZeroFunction


def _canon(x):
    """Collapse Fraction with denominator 1 to int."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _fmt_rational(x) -> str:
    """Print an int or Fraction as "a" or "a/b"."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


class LaurentQT:
    """Sparse exact Laurent polynomial in q and t.

    Terms live in a mapping ``(q_exp, t_exp) -> coefficient`` with no zero
    coefficients stored.  Values are immutable; all operations allocate
    fresh results, so instances are safe to share across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (qe, te), c in terms.items():
                if type(c) is not int:
                    c = _canon(c)
                if c == 0:
                    continue
                if type(qe) is not int:
                    qe = _canon(qe)
                if not isinstance(te, int):
                    te = _canon(te)
                    if not isinstance(te, int):
                        raise ValueError(f"t-exponent must be an integer: {te}")
                clean[(qe, te)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentQT is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff, q_exp=0, t_exp=0):
        return cls({(q_exp, t_exp): coeff})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def sorted_terms(self):
        """Terms in canonical order: (q_exp, t_exp) ascending."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def exponents(self, variable: str):
        idx = 0 if variable == "q" else 1
        return [k[idx] for k in self.terms]

    def has_integral_q_exponents(self) -> bool:
        return all(isinstance(qe, int) for qe, _ in self.terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentQT(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentQT({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentQT({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentQT):
            return NotImplemented
        out = {}
        for (qa, ta), ca in self.terms.items():
            for (qb, tb), cb in other.terms.items():
                k = (qa + qb, ta + tb)
                out[k] = out.get(k, 0) + ca * cb
        return LaurentQT(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e < 0:
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            ((qe, te), c), = self.terms.items()
            return LaurentQT({(qe * e, te * e): Fraction(c) ** e})
        result = LaurentQT.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, LaurentQT):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentQT({(0, 0): other})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        return canonical_text(self)

    def __repr__(self):
        return f"LaurentQT<{canonical_text(self)}>"


def canonical_text(p: LaurentQT) -> str:
    """Deterministic text form: terms sorted by (q_exp, t_exp) ascending.

    Example: ``-1*q^-3*t^2 + 2*q^1/2*t^0``.
    """
    if p.is_zero():
        return "0"
    parts = []
    for i, ((qe, te), c) in enumerate(p.sorted_terms()):
        body = f"{_fmt_rational(abs(c))}*q^{_fmt_rational(qe)}*t^{_fmt_rational(te)}"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def t_power(e: int) -> LaurentQT:
    return LaurentQT({(0, e): 1})


def q_bracket(k: int) -> LaurentQT:
    """q^k - q^-k."""
    if k == 0:
        return LaurentQT.zero()
    return LaurentQT({(k, 0): 1, (-k, 0): -1})


def t_bracket(k: int) -> LaurentQT:
    """t^k - t^-k."""
    if k == 0:
        return LaurentQT.zero()
    return LaurentQT({(0, k): 1, (0, -k): -1})


_Q_TARGETS = {"q": (1, 1), "q^-1": (1, -1), "-q": (-1, 1), "-q^-1": (-1, -1)}
_T_TARGETS = {"t": (1, 1), "t^-1": (1, -1)}


def substitute(p: LaurentQT, q: str = "q", t: str = "t") -> LaurentQT:
    """Map q and t to signed monomials of themselves.

    ``q`` is one of "q", "q^-1", "-q", "-q^-1"; ``t`` is "t" or "t^-1".
    A sign on q contributes (-1)^a to the coefficient of q^a t^b and
    requires a to be an integer.
    """
    try:
        qs, qi = _Q_TARGETS[q]
        ts, ti = _T_TARGETS[t]
    except KeyError as e:
        raise ValueError(f"unsupported substitution target: {e.args[0]!r}") from None
    out = {}
    for (qe, te), c in p.terms.items():
        if qs < 0:
            if not isinstance(qe, int):
                raise FractionalExponentSign(
                    f"cannot apply q -> {q} to fractional exponent {qe}"
                )
            if qe % 2:
                c = -c
        out[(qe * qi, te * ti)] = c
    return LaurentQT(out)


# -- JSON wire format -------------------------------------------------


def laurent_to_json(p: LaurentQT) -> list:
    """Serialize as records {qn, qd, t, cn, cd} in canonical order."""
    out = []
    for (qe, te), c in p.sorted_terms():
        qf = Fraction(qe)
        cf = Fraction(c)
        out.append(
            {
                "qn": qf.numerator,
                "qd": qf.denominator,
                "t": te,
                "cn": cf.numerator,
                "cd": cf.denominator,
            }
        )
    return out


def laurent_from_json(records) -> LaurentQT:
    return LaurentQT({(Fraction(r["qn"], r["qd"]), r["t"]): Fraction(r["cn"], r["cd"]) for r in records})


# -- rational functions -----------------------------------------------


class RationalQT:
    """Quotient of two LaurentQT values; the field where limits live.

    Normalization shifts a common monomial so the collective minimal
    exponent in each variable is 0, scales both parts to coprime integer
    content, and gives the denominator a positive leading coefficient.
    Equality is by cross-multiplication unless the term dicts are identical,
    so representatives that differ by a common factor still compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQT, den: LaurentQT = None):
        if den is None:
            den = LaurentQT.one()
        if isinstance(num, (int, Fraction)):
            num = LaurentQT({(0, 0): num})
        if isinstance(den, (int, Fraction)):
            den = LaurentQT({(0, 0): den})
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = LaurentQT.zero(), LaurentQT.one()
        else:
            num, den = _normalize_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalQT is immutable")

    @classmethod
    def one(cls):
        return cls(LaurentQT.one())

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return len(self.den.terms) == 1

    def as_laurent(self) -> LaurentQT:
        """Return the value as a Laurent polynomial, folding unit denominators."""
        if self.den.is_one():
            return self.num
        if len(self.den.terms) == 1:
            ((qe, te), c), = self.den.terms.items()
            return self.num * LaurentQT({(-qe, -te): Fraction(1) / c})
        q = _exact_div_univariate(self.num, self.den)
        if q is not None:
            return q
        raise ValueError("value is not a Laurent polynomial")

    def _coerce(self, other):
        if isinstance(other, RationalQT):
            return other
        if isinstance(other, (LaurentQT, int, Fraction)):
            return RationalQT(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalQT(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalQT(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalQT(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero RationalQT")
        return RationalQT(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, e: int):
        if e < 0:
            return RationalQT(self.den, self.num) ** (-e)
        out = RationalQT.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        same = self.num.terms == other.num.terms and self.den.terms == other.den.terms
        return same or self.num * other.den == other.num * self.den

    def __str__(self):
        if self.is_laurent():
            return canonical_text(self.as_laurent())
        return f"({canonical_text(self.num)}) / ({canonical_text(self.den)})"

    def __repr__(self):
        return f"RationalQT<{self}>"

    def substituted(self, q: str = "q", t: str = "t") -> "RationalQT":
        return RationalQT(substitute(self.num, q, t), substitute(self.den, q, t))

    def simplified(self) -> "RationalQT":
        """Cancel bracket factors v^k - v^-k shared by num and den.

        This is content reduction, not general gcd: it strips exactly the
        structured factors that class sums and trace recursions accumulate.
        For each variable both parts are cut once into univariate slices on
        the variable's exponent lattice, k runs from half the denominator's
        span down to 1 (in lattice steps), and each bracket is cancelled
        while both parts divide; each part is then rebuilt once.
        """
        num, den = self.num, self.den
        if num.is_zero():
            return self
        for idx in (0, 1):
            r = _lattice(idx, num, den)
            ns, ds = _slices(num, idx, r), _slices(den, idx, r)
            exps = [e for coeffs in ds.values() for e in coeffs]
            cancelled = False
            for k in range((max(exps) - min(exps)) // 2, 0, -1):
                while (dd := _div_slices(ds, k)) is not None and (dn := _div_slices(ns, k)) is not None:
                    ns, ds, cancelled = dn, dd, True
            if cancelled:
                num, den = _unslice(ns, idx, r), _unslice(ds, idx, r)
        return RationalQT(num, den)


def _normalize_pair(num: LaurentQT, den: LaurentQT):
    """Shift to collective minimal exponents 0, then scale to coprime integer
    content with a positive denominator lead, in integers on the term dicts.
    A pair already in that form is returned as it is."""
    parts = (num.terms, den.terms)
    qmin = min(qe for p in parts for qe, _ in p)
    tmin = min(te for p in parts for _, te in p)
    scale = lcm(*(c.denominator for p in parts for c in p.values()))
    if qmin or tmin or scale != 1:
        parts = tuple(
            {(qe - qmin, te - tmin): c.numerator * (scale // c.denominator) for (qe, te), c in p.items()}
            for p in parts
        )
    content = gcd(*parts[0].values(), *parts[1].values())
    if den.terms[max(den.terms)] < 0:
        content = -content
    if content == 1 and parts[0] is num.terms:
        return num, den
    return tuple(LaurentQT({k: c // content for k, c in p.items()}) for p in parts)


def delta() -> RationalQT:
    """Value of a plain closed curve: (t - t^-1)/(q - q^-1)."""
    return RationalQT(t_bracket(1), q_bracket(1))


# -- truncated series and limits --------------------------------------


@dataclass(frozen=True)
class TruncSeries:
    """Expansion f(1+eps) + O(eps^{order+1}) in one variable around 1.

    coeffs[k] is the eps^k coefficient, a Laurent polynomial in the other
    variable.
    """

    variable: str
    order: int
    coeffs: tuple

    def first_nonzero(self):
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None


def truncated_series(p: LaurentQT, variable: str, order: int) -> TruncSeries:
    """Expand p around variable = 1 through eps^order, exactly.

    Each term c * v^e contributes c * binom(e, k) at eps^k; the binomial is
    generalized, so e may be any exact rational.
    """
    if variable not in ("q", "t"):
        raise ValueError("variable must be 'q' or 't'")
    levels = [dict() for _ in range(order + 1)]
    for (qe, te), c in p.terms.items():
        if variable == "q":
            e, kept = qe, (0, te)
        else:
            e, kept = te, (qe, 0)
        running = c
        for k in range(order + 1):
            levels[k][kept] = levels[k].get(kept, 0) + running
            step = e - k
            # binom(e, j) vanishes for every j > k once e = k
            if k == order or step == 0:
                break
            if isinstance(running, int) and isinstance(step, int):
                running = running * step // (k + 1)
            else:
                running = running * step / (k + 1)
                if isinstance(running, Fraction) and running.denominator == 1:
                    running = int(running)
    return TruncSeries(variable, order, tuple(LaurentQT(lv) for lv in levels))


def _expansion_cap(p: LaurentQT, variable: str) -> int:
    """Upper bound for the vanishing order of p at variable = 1."""
    exps = p.exponents(variable)
    span = (max(exps) - min(exps)) * _lattice(0 if variable == "q" else 1, p)
    return int(span) + 1


def expand_series(f: RationalQT, variable: str):
    """Expand num and den around variable = 1 to first non-vanishing order.

    Returns (order_num, order_den, leading_num, leading_den) where the
    leading coefficients are Laurent polynomials in the other variable.
    Raises ZeroFunction if the numerator is identically zero (its vanishing
    order would be the +infinity sentinel).
    """
    if f.num.is_zero():
        raise ZeroFunction("numerator is identically zero")
    cap = max(_expansion_cap(f.num, variable), _expansion_cap(f.den, variable))
    order = 4
    while True:
        sn = truncated_series(f.num, variable, order)
        sd = truncated_series(f.den, variable, order)
        on = sn.first_nonzero()
        od = sd.first_nonzero()
        if on is not None and od is not None:
            return on, od, sn.coeffs[on], sd.coeffs[od]
        if order >= cap:
            # a nonzero Laurent polynomial cannot vanish beyond its span
            raise ZeroFunction("no non-vanishing coefficient within the exponent span")
        order = min(order * 2, cap)


def limit_at_one(f: RationalQT, variable: str) -> RationalQT:
    """Exact limit of f as the variable goes to 1, a RationalQT in the other.

    The value is the quotient of the leading series coefficients; its
    ``as_laurent()`` gives the Laurent form when the division is exact.
    Raises LimitDoesNotExist on a pole and returns zero when the numerator
    vanishes faster.
    """
    if f.num.is_zero():
        return RationalQT(LaurentQT.zero())
    on, od, ln, ld = expand_series(f, variable)
    if on < od:
        raise LimitDoesNotExist(
            f"numerator vanishes to order {on} < denominator order {od} at {variable}=1"
        )
    if on > od:
        return RationalQT(LaurentQT.zero())
    return RationalQT(ln, ld)


# -- univariate kernel: {int exponent -> coefficient} dicts --------------


def _umul(a: dict, b: dict) -> dict:
    """Multiply integer-keyed sparse univariate polynomials exactly."""
    if not a or not b:
        return {}
    la, lb = min(a), min(b)
    g = 0
    for e in a:
        g = gcd(g, e - la)
    for e in b:
        g = gcd(g, e - lb)
    if g == 0:
        g = 1
    xs = [0] * ((max(a) - la) // g + 1)
    for e, c in a.items():
        xs[(e - la) // g] = c
    ys = [0] * ((max(b) - lb) // g + 1)
    for e, c in b.items():
        ys[(e - lb) // g] = c
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    out[i + j] += x * y
    base = la + lb
    return {base + g * k: v for k, v in enumerate(out) if v}


def _udiv(a: dict, b: dict):
    """a / b for nonzero univariate dicts; None when the division is not exact.

    Long division from the top exponent down.  The quotient's exponents lie
    in min(a) - min(b) .. max(a) - max(b), so a remainder term below that
    range proves the division inexact.
    """
    lo = min(a) - min(b)
    top_b = max(b)
    lead = b[top_b]
    rem = dict(a)
    out = {}
    while rem:
        e = max(rem) - top_b
        if e < lo:
            return None
        c = out[e] = _canon(Fraction(rem[e + top_b], lead))
        for eb, cb in b.items():
            s = rem.get(e + eb, 0) - c * cb
            if s == 0:
                rem.pop(e + eb, None)
            else:
                rem[e + eb] = s
    return out


def div_bracket_coeffs(coeffs: dict, k: int):
    """Divide {exp -> coeff} by v^k - v^-k; None when not exact.

    Synthetic division against v^-k (v^2k - 1); works over any coefficient
    ring since it only adds and subtracts.
    """
    if not coeffs:
        return {}
    lo = min(coeffs)
    n = max(coeffs) - lo
    if n < 2 * k:
        return None
    s = [0] * (n + 1)
    for e, c in coeffs.items():
        s[e - lo] = c
    u = [0] * (n + 1)
    for j in range(n + 1):
        prev = u[j - 2 * k] if j >= 2 * k else 0
        u[j] = prev - s[j]
    top = n - 2 * k
    if any(u[j] != 0 for j in range(top + 1, n + 1)):
        return None
    return {lo + k + j: u[j] for j in range(top + 1) if u[j]}


def _lattice(idx: int, *parts: LaurentQT) -> int:
    """lcm of the exponent denominators at key position idx (0 = q, 1 = t)."""
    return lcm(*(key[idx].denominator for p in parts for key in p.terms))


def _slices(p: LaurentQT, idx: int, r: int) -> dict:
    """Cut p into {other exponent: {exponent * r: coeff}} along key position idx."""
    out = {}
    for key, c in p.terms.items():
        out.setdefault(key[1 - idx], {})[int(key[idx] * r)] = c
    return out


def _unslice(slices: dict, idx: int, r: int) -> LaurentQT:
    """Inverse of ``_slices``."""
    items = ((o, e if r == 1 else Fraction(e, r), c) for o, cs in slices.items() for e, c in cs.items())
    return LaurentQT({((e, o) if idx == 0 else (o, e)): c for o, e, c in items})


def _div_slices(slices: dict, k: int):
    """Divide every slice by v^k - v^-k; None when one division is not exact."""
    out = {}
    for other, coeffs in slices.items():
        if (q := div_bracket_coeffs(coeffs, k)) is None:
            return None
        out[other] = q
    return out


def _exact_div_univariate(a: LaurentQT, b: LaurentQT):
    """a / b for univariate inputs in the same variable; None if not exact.

    Both operands are cut onto one exponent lattice and go through the
    kernel's ``_udiv``.
    """
    if b.is_zero():
        raise ZeroDivisionError("univariate division by zero")
    if a.is_zero():
        return LaurentQT.zero()
    keys = [*a.terms, *b.terms]
    idx = 1 if any(te for _, te in keys) else 0
    if idx and any(qe for qe, _ in keys):
        return None
    r = _lattice(idx, a, b)
    out = _udiv(_slices(a, idx, r)[0], _slices(b, idx, r)[0])
    return None if out is None else _unslice({0: out}, idx, r)
