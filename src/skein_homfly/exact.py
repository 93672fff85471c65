"""Exact sparse Laurent arithmetic in (q, t) and limits from vanishing orders.

Coefficients and both exponents are integers.  Every plethysm coefficient
is an integer (Littlewood), each colored value is a Laurent polynomial over
Z divided by the colors' hook brackets, and the torus twist exponents
(n/m) k_mu are integers term by term (``torus._torus_weights``); a quotient
lives in RationalQT, whose two parts are integer Laurent polynomials.  The
constructor checks every outside input: it drops zero coefficients, stores
integers as ``int`` and rejects anything non-integral, such as a float or
the Fraction 1/2, which would break exactness.  The arithmetic accumulates
raw sums and constructs once.  Terms the kernel makes from checked values
are already clean (int keys, nonzero int coefficients), so ``LaurentQT._of``
wraps them without a second pass, and ``RationalQT._of`` normalizes a pair
on its term dicts and builds each part once; ``RationalQT.substituted``
maps a normal pair to a normal pair, so it skips that normalization.

Limits at q=1 or t=1 come from exact vanishing orders, never from a
polynomial gcd: ``expand_series`` divides numerator and denominator by
v - 1 while the division is exact, and the limit compares the orders and
returns the quotient of the leading coefficients as a RationalQT.  The
full expansion ``truncated_series`` is the tests' reference.

Exact quotients run on one kernel of {int exponent -> coefficient} dicts:
``_umul`` multiplies, ``_brackets`` forms products of brackets v^k - v^-k,
``_udiv`` divides exactly or reports that it cannot, ``_cyclotomic`` builds
Phi_d(v^2) on it, ``_exact_div`` divides two LaurentQTs by Kronecker
substitution and one ``_udiv``, and ``_cancel`` strips the Phi_d(v^2) shared
by slices: a bracket is v^-k times the pairwise coprime Phi_d(v^2), d | k, so
any bracket-product quotient reduces to one form.  ``_slices`` cuts a
LaurentQT into one dict per exponent of the other variable; ``_unslice``
rebuilds its term dict.  ``_over_q`` is the reduction the class sums and the
Markov traces share: t-slices over a q-only denominator, ``_cancel``, one
RationalQT.  Both build those slices from Kronecker-packed ints, one signed
fixed-width slot per exponent, which ``_unpack`` cuts back into coefficients
and ``_packed_div`` divides by a known factor (a hook cofactor, z^(n - L)).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import LimitDoesNotExist, ZeroFunction


def _integer(x, name: str) -> int:
    """x as a plain int: an int (a bool included) or anything else with
    denominator 1, such as Fraction(4, 2); ValueError naming x otherwise."""
    if getattr(x, "denominator", None) != 1:
        raise ValueError(f"{name} must be an integer: {x}")
    return int(x)


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
                    c = _integer(c, "coefficient")
                if type(qe) is not int:
                    qe = _integer(qe, "q-exponent")
                if type(te) is not int:
                    te = _integer(te, "t-exponent")
                if c == 0:
                    continue
                clean[(qe, te)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict) -> "LaurentQT":
        """A value that owns the clean term dict terms (int keys, nonzero int
        coefficients), made by the kernel from checked values; no check."""
        self = cls.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentQT is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor
        return type(self), (self.terms,)

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

    def sorted_terms(self):
        """Terms in canonical order: (q_exp, t_exp) ascending."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def exponents(self, variable: str):
        idx = _variable_index(variable)
        return [k[idx] for k in self.terms]

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
        return LaurentQT._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
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
            if list(self.terms.values()) not in ([1], [-1]):
                raise ValueError("negative power of a non-unit")
            ((qe, te), c), = self.terms.items()
            return LaurentQT({(qe * e, te * e): c ** -e})
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
        if isinstance(other, int):
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

    Example: ``-1*q^-3*t^2 + 2*q^1*t^0``.
    """
    if p.is_zero():
        return "0"
    parts = []
    for i, ((qe, te), c) in enumerate(p.sorted_terms()):
        body = f"{abs(c)}*q^{qe}*t^{te}"
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
    A sign on q contributes (-1)^a to the coefficient of q^a t^b.
    """
    return LaurentQT._of(_substitute(p.terms, _targets(q, t)))


def _targets(q: str, t: str) -> tuple:
    """(sign of q, power of q, power of t) for ``substitute``'s targets."""
    try:
        qs, qi = _Q_TARGETS[q]
        _, ti = _T_TARGETS[t]
    except KeyError as e:
        raise ValueError(f"unsupported substitution target: {e.args[0]!r}") from None
    return qs, qi, ti


def _substitute(terms: dict, targets: tuple, q_shift: int = 0, t_shift: int = 0) -> dict:
    """``substitute`` on a term dict, to the ``_targets`` targets, times
    q^q_shift t^t_shift: a new clean dict, since the map of exponents is
    one-to-one."""
    qs, qi, ti = targets
    out = {}
    for (qe, te), c in terms.items():
        if qs < 0 and qe % 2:
            c = -c
        out[(qe * qi + q_shift, te * ti + t_shift)] = c
    return out


# -- JSON wire format -------------------------------------------------


def laurent_to_json(p: LaurentQT) -> list:
    """Serialize as records {qn, qd, t, cn, cd} in canonical order.

    The q-exponent is the integer qn and the coefficient the integer cn; qd
    and cd are always 1, kept so that records keep their shape.
    """
    return [{"qn": qe, "qd": 1, "t": te, "cn": c, "cd": 1} for (qe, te), c in p.sorted_terms()]


def _ratio(n, d, name: str) -> int:
    """n/d as an int when d divides n (4/2 reads as 2); ValueError naming it
    otherwise."""
    value, rem = divmod(n, d)
    if rem:
        raise ValueError(f"{name} must be an integer: {n}/{d}")
    return value


def laurent_from_json(records) -> LaurentQT:
    """Inverse of ``laurent_to_json``; ValueError when qn/qd or cn/cd is not
    an integer."""
    return LaurentQT(
        {(_ratio(r["qn"], r["qd"], "q-exponent"), r["t"]): _ratio(r["cn"], r["cd"], "coefficient") for r in records}
    )


# -- rational functions -----------------------------------------------


class RationalQT:
    """Quotient of two LaurentQT values; the field where limits live.

    Normalization shifts a common monomial so the collective minimal
    exponent in each variable is 0, divides both parts by their integer
    content, and gives the denominator a positive leading coefficient.
    Equality is by cross-multiplication unless the term dicts are identical,
    so representatives that differ by a common factor still compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQT, den: LaurentQT = None):
        if den is None:
            den = LaurentQT.one()
        # a scalar part goes through LaurentQT's check, so a float is a ValueError
        if not isinstance(num, LaurentQT):
            num = LaurentQT({(0, 0): num})
        if not isinstance(den, LaurentQT):
            den = LaurentQT({(0, 0): den})
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        n, d = _normalize_pair(num.terms, den.terms)
        if n is not num.terms or d is not den.terms:
            num, den = LaurentQT._of(n), LaurentQT._of(d)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: dict, den: dict) -> "RationalQT":
        """num / den from clean term dicts (den not empty) that the new value
        owns: normalized on the dicts, then one LaurentQT built per part."""
        return cls._pair(*map(LaurentQT._of, _normalize_pair(num, den)))

    @classmethod
    def _pair(cls, num: LaurentQT, den: LaurentQT) -> "RationalQT":
        """The value num / den of a pair already in normal form, as it is."""
        self = cls.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RationalQT is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor
        return type(self), (self.num, self.den)

    @classmethod
    def one(cls):
        return cls(LaurentQT.one())

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        """True when the denominator is a monomial with coefficient 1, so the
        value is a Laurent polynomial over Z."""
        return list(self.den.terms.values()) == [1]

    def as_laurent(self) -> LaurentQT:
        """The value as a LaurentQT when the denominator divides the numerator, else ValueError."""
        if (out := _exact_div(self.num, self.den)) is None:
            raise ValueError("value is not a Laurent polynomial")
        return out

    def _coerce(self, other):
        if isinstance(other, RationalQT):
            return other
        if isinstance(other, (LaurentQT, int)):
            return RationalQT(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalQT(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        # negating the numerator of a normal pair leaves it normal
        return RationalQT._pair(-self.num, self.den)

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
            return RationalQT(self.den ** -e, self.num ** -e)
        return RationalQT(self.num ** e, self.den ** e)

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
        """The value under ``substitute``'s targets, normal by construction.

        The map of exponents is one-to-one and changes coefficients by sign
        only, so it keeps the content, and a variable that is not inverted
        keeps its exponents and their minimum 0.  A variable sent to its
        inverse gets minus its old maximum as its new minimum, so both parts
        are shifted by that maximum.  What is left of the normal form is a
        positive denominator lead, which negating both parts restores.
        """
        targets = _targets(q, t)
        _, qi, ti = targets
        parts = (self.num.terms, self.den.terms)
        # a key's first entry is its q-exponent, so max(p) has the largest
        q_shift = max(max(p)[0] for p in parts if p) if qi < 0 else 0
        t_shift = max(te for p in parts for _, te in p) if ti < 0 else 0
        num, den = (_substitute(p, targets, q_shift, t_shift) for p in parts)
        if den[max(den)] < 0:
            num, den = ({k: -c for k, c in p.items()} for p in (num, den))
        return RationalQT._pair(LaurentQT._of(num), LaurentQT._of(den))

    def simplified(self) -> "RationalQT":
        """Cancel the cyclotomic factors Phi_d(v^2) shared by num and den.

        Content reduction, not general gcd: for each variable both parts are
        cut once into slices along its exponents, ``_cancel`` strips each
        shared Phi_d(v^2) with d <= half the den's span (every factor of a
        bracket product), and each part is rebuilt once; a Laurent value
        comes back over a monomial.  No computation path calls this.
        """
        num, den = self.num, self.den
        if num.is_zero():
            return self
        for idx in (0, 1):
            ns, ds = _slices(num, idx), _slices(den, idx)
            ns, dc = _cancel(ns, ds)
            if dc is not ds:
                num, den = LaurentQT._of(_unslice(ns, idx)), LaurentQT._of(_unslice(dc, idx))
        out = _exact_div(num, den)
        return RationalQT(num, den) if out is None else RationalQT(out)


def _normalize_pair(num: dict, den: dict) -> tuple:
    """The normal form of the term dicts num / den, den not empty: zero over
    one when num is empty, else shifted to collective minimal exponents 0 and
    divided by the integer content, signed so that the denominator lead is
    positive.  A pair already in that form comes back as the given dicts; the
    callers build one LaurentQT per part from what comes back."""
    if not num:
        return num, {(0, 0): 1}
    parts = (num, den)
    qmin = min(qe for p in parts for qe, _ in p)
    tmin = min(te for p in parts for _, te in p)
    if qmin or tmin:
        parts = tuple({(qe - qmin, te - tmin): c for (qe, te), c in p.items()} for p in parts)
    content = gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        content = -content
    if content == 1:
        return parts
    return tuple({k: c // content for k, c in p.items()} for p in parts)


def delta() -> RationalQT:
    """Value of a plain closed curve: (t - t^-1)/(q - q^-1)."""
    return RationalQT(t_bracket(1), q_bracket(1))


# -- vanishing orders and limits --------------------------------------


@dataclass(frozen=True)
class TruncSeries:
    """Expansion f(1+eps) + O(eps^{order+1}) in one variable around 1.

    coeffs[k] is the eps^k coefficient, a Laurent polynomial in the other
    variable.
    """

    variable: str
    order: int
    coeffs: tuple


def _variable_index(variable: str) -> int:
    """0 for "q", 1 for "t"; ValueError for anything else."""
    if variable not in ("q", "t"):
        raise ValueError("variable must be 'q' or 't'")
    return 0 if variable == "q" else 1


def truncated_series(p: LaurentQT, variable: str, order: int) -> TruncSeries:
    """Expand p around variable = 1 through eps^order, exactly.

    Each term c * v^e contributes c * binom(e, k) at eps^k, the generalized
    binomial for a negative integer e, an integer too.  ValueError for a
    negative order.  No computation path calls this: the limits take exact
    vanishing orders (``expand_series``), and this full expansion is the
    tests' reference for them.
    """
    _variable_index(variable)
    if order < 0:
        raise ValueError(f"order must be >= 0: {order}")
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
            running = running * step // (k + 1)
    return TruncSeries(variable, order, tuple(LaurentQT(lv) for lv in levels))


def expand_series(f: RationalQT, variable: str):
    """Vanishing orders and leading coefficients of num and den at variable = 1.

    Returns (order_num, order_den, leading_num, leading_den), the leading
    coefficients Laurent polynomials in the other variable.  Each slice of a
    part is a Laurent polynomial in v: the order k is how often v - 1
    divides every slice, and since v - 1 = eps at v = 1 + eps, the leading
    coefficient is each quotient slice's value at v = 1, the sum of its
    coefficients.  Raises ZeroFunction if the numerator is identically zero
    (its vanishing order would be the +infinity sentinel).
    """
    idx = _variable_index(variable)
    if f.num.is_zero():
        raise ZeroFunction("numerator is identically zero")
    parts = []
    for p in (f.num, f.den):
        slices, k = _slices(p, idx), 0
        while (quot := _div_slices(slices, {1: 1, 0: -1})) is not None:
            slices, k = quot, k + 1
        lead = {((0, o) if idx == 0 else (o, 0)): sum(cs.values()) for o, cs in slices.items()}
        parts.append((k, LaurentQT(lead)))
    (on, ln), (od, ld) = parts
    return on, od, ln, ld


def limit_at_one(f: RationalQT, variable: str) -> RationalQT:
    """Exact limit of f as the variable goes to 1, a RationalQT in the other.

    The value is the quotient of the leading series coefficients; its
    ``as_laurent()`` gives the Laurent form when the division is exact.
    Raises LimitDoesNotExist on a pole and returns zero when the numerator
    vanishes faster.
    """
    _variable_index(variable)
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
    """Multiply sparse univariate dicts exactly, dropping zero terms."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _brackets(powers: dict) -> dict:
    """prod_p (v^p - v^-p)^powers[p] as an {exponent: coeff} dict."""
    out = {0: 1}
    for p, e in powers.items():
        for _ in range(e):
            out = _umul(out, {p: 1, -p: -1})
    return out


def _udiv(a: dict, b: dict):
    """a / b for nonzero univariate dicts; None when b does not divide a over
    the integers.

    Dense synthetic division from the top exponent down.  The quotient's
    exponents lie in min(a) - min(b) .. max(a) - max(b); each quotient term
    costs len(b) - 1 updates of the remainder list, so the work is linear in
    the dividend for a fixed divisor.  The division is exact when the
    remainder left in the lowest max(b) - min(b) slots is zero.  A quotient
    coefficient that is not an integer also gives None; by Gauss's lemma it
    cannot occur in an exact division by a primitive divisor, such as a
    bracket product or v - 1.
    """
    lo_a, hi_b = min(a), max(b)
    span = hi_b - min(b)
    rem = [0] * (max(a) - lo_a + 1)
    for e, c in a.items():
        rem[e - lo_a] = c
    lead = b[hi_b]
    tail = [(e - hi_b, -c) for e, c in b.items() if e != hi_b]
    base = lo_a - hi_b
    out = {}
    for j in range(len(rem) - 1, span - 1, -1):
        if r := rem[j]:
            if r % lead:
                return None
            c = out[base + j] = r // lead
            for off, nc in tail:
                rem[j + off] += c * nc
    return None if any(rem[:span]) else out


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> dict:
    """Phi_d(v^2) as a shared {exponent: coeff} dict, never mutated: v^2d - 1
    divided exactly by Phi_e(v^2) for each proper divisor e of d."""
    out = {2 * d: 1, 0: -1}
    for e in range(1, d):
        if d % e == 0:
            out = _udiv(out, _cyclotomic(e))
    return out


def _slices(p: LaurentQT, idx: int) -> dict:
    """Cut p into {other exponent: {exponent: coeff}} along key position idx
    (0 = q, 1 = t)."""
    out = {}
    for key, c in p.terms.items():
        out.setdefault(key[1 - idx], {})[key[idx]] = c
    return out


def _unslice(slices: dict, idx: int) -> dict:
    """Inverse of ``_slices``, as a term dict."""
    return {((e, o) if idx == 0 else (o, e)): c for o, cs in slices.items() for e, c in cs.items()}


def _unpack(x: int, size: int) -> list:
    """The signed size-byte slots of a packed int, lowest first: adding half
    the range to every slot settles all borrows between slots at once.

    Slots of at most 8 bytes are read in one step: strided copies put slot
    k's bytes in the low bytes of the k-th 8-byte lane, and one
    ``struct.unpack`` reads the lanes as little-endian unsigned 64-bit ints.
    A wider slot fits no lane and is read on its own; such slots are rare
    (the class sums' widest bounds: 13 of 666 calls in a cold pass of the
    benchmark's CLI corpus).
    """
    count = x.bit_length() // (8 * size) + 1
    x += int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw, half = x.to_bytes(count * size, "little"), 1 << (8 * size - 1)
    if size > 8:
        return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]
    lanes = bytearray(8 * count)
    for j in range(size):
        lanes[j::8] = raw[j::size]
    return [v - half for v in struct.unpack(f"<{count}Q", lanes)]


def _packed_div(x: int, c: int, l1: int, size: int):
    """The size-byte slots of x / c when c divides x and no slot of the
    quotient times c can overflow (max |slot| * l1 < 2^(8 size - 1), l1 the
    sum of |coefficients| of c); else None.  Then the unpacked quotient P
    has P(B) c(B) = x with no carry between slots, so P * c is x's slots as
    a polynomial."""
    quot, rem = divmod(x, c)
    if rem:
        return None
    slots = _unpack(quot, size)
    return slots if max(map(abs, slots)) * l1 < 1 << (8 * size - 1) else None


def _div_slices(slices: dict, divisor: dict):
    """Divide every slice by one univariate dict with ``_udiv``; None when
    one division is not exact."""
    out = {}
    for other, coeffs in slices.items():
        if (q := _udiv(coeffs, divisor)) is None:
            return None
        out[other] = q
    return out


def _cancel(ns: dict, ds: dict) -> tuple:
    """Cancel each Phi_d(v^2), d from half the span of the nonzero ds down to
    1, while it divides every slice of ns and ds (``_slices`` form); the
    given objects come back when nothing cancelled."""
    exps = [e for coeffs in ds.values() for e in coeffs]
    for d in range((max(exps) - min(exps)) // 2, 0, -1):
        div = _cyclotomic(d)
        while (dd := _div_slices(ds, div)) is not None and (dn := _div_slices(ns, div)) is not None:
            ns, ds = dn, dd
    return ns, ds


def _over_q(ns: dict, den: dict) -> RationalQT:
    """The t-slices ns ({t-exponent: {q-exponent: coeff}}) over the q-only
    den, after ``_cancel`` strips their shared Phi_d(q^2); zero when ns is
    empty.  Both hold nonzero coefficients only, and ns no empty slice: the
    pair is normalized on the term dicts and each part built once."""
    if not ns:
        return RationalQT(0)
    ns, ds = _cancel(ns, {0: den})
    return RationalQT._of(_unslice(ns, 0), _unslice(ds, 0))


def _exact_div(a: LaurentQT, b: LaurentQT):
    """a / b for any LaurentQTs; None when b does not divide a.

    Kronecker substitution q^i t^j -> v^(i + w j), i the offset above each
    operand's lowest q-exponent and w one more than a's q-span, is a ring
    map, one-to-one on offsets below w.  So a univariate quotient whose
    offsets stay <= span(a) - span(b) is the quotient, and any other offset,
    or no univariate quotient, proves there is none.  A monomial b, such as
    the denominator of every Laurent RationalQT, divides by a key shift.
    """
    if b.is_zero():
        raise ZeroDivisionError("exact division by zero")
    if a.is_zero():
        return LaurentQT.zero()
    if len(b.terms) == 1:
        ((bq, bt), bc), = b.terms.items()
        if any(c % bc for c in a.terms.values()):
            return None
        return LaurentQT._of({(qe - bq, te - bt): c // bc for (qe, te), c in a.terms.items()})
    (lo_a, hi_a), (lo_b, hi_b) = ((min(e), max(e)) for e in (a.exponents("q"), b.exponents("q")))
    w, room = hi_a - lo_a + 1, hi_a - lo_a - hi_b + lo_b
    kron = ({e - lo + w * t: c for (e, t), c in p.terms.items()} for p, lo in ((a, lo_a), (b, lo_b)))
    if room < 0 or (out := _udiv(*kron)) is None or any(e % w > room for e in out):
        return None
    return LaurentQT({(lo_a - lo_b + e % w, e // w): c for e, c in out.items()})
