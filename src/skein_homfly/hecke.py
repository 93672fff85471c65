"""Hecke-algebra oracle: framed invariants of closed braids by Markov trace.

Elements are kept in the positive-permutation-braid basis {w_pi}; right
multiplication by a generator either extends the permutation (length goes
up) or re-expands through the quadratic relation s^2 = z*s + 1 with
z = q - q^-1.  The trace is the unique linear functional with

    tr(identity on one strand) = delta
    tr_n(w_pi) = delta * tr_{n-1}(restriction)        if pi fixes n
    tr_n(w_a s_{n-1} w_b) = t * tr_{n-1}(w_a w_b)     for a, b fixing n

pinned by the two anchors <unknot> = delta and <positive kink> = t*delta.
Since z * delta = t - t^-1, ``_trace_perm`` keeps z^(n-1) * tr_n(w_pi) / delta,
a Laurent polynomial that is 1 on one strand.  The framed closure is
(t - t^-1) sum_pi c_pi U_pi over z^n and the normalized one
t^(-writhe) sum_pi c_pi U_pi over z^(n-1); each builds one RationalQT at
the end through ``exact._over_q``, with no delta and no RationalQT
division.  This path never touches the plethysm machinery, so it
cross-validates the torus formula on uncolored specializations.

Inside, the structure constants involve q alone, so a braid's image has
coefficients in Z[q, q^-1], kept as plain {q-exponent: int} dicts:
``_apply`` multiplies by z as two shifted copies and a subtraction, and
``_trace_perm`` returns the t-slices {t-exponent: {q-exponent: int}} that
``exact._over_q`` takes.  The closures run from the braid word to
``_over_q`` on these dicts alone.  LaurentQT stays at the boundary:
``HeckeElement`` and ``element_of_braid`` carry LaurentQT coefficients,
and ``markov_trace`` cuts its argument's coefficients into t-slices once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, starmap
from operator import gt, index

from .errors import IndexOutOfRange
from .exact import LaurentQT, RationalQT, _brackets, _over_q, _slices


# -- permutations in one-line, zero-indexed form -----------------------


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def perm_length(pi: tuple) -> int:
    """Coxeter length = inversion count."""
    return sum(starmap(gt, combinations(pi, 2)))


def perm_cycle_count(pi: tuple) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(pi)
    count = 0
    for i in range(len(pi)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = pi[j]
    return count


# -- braid words -------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators: letters are (index, sign)."""

    strands: int
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "strands", index(self.strands))
        if self.strands < 1:
            raise ValueError("strands must be >= 1")
        letters = tuple((index(i), index(s)) for i, s in self.letters)
        for i, s in letters:
            if not 1 <= i <= self.strands - 1:
                raise IndexOutOfRange(f"generator index {i} outside 1..{self.strands - 1}")
            if s not in (1, -1):
                raise ValueError(f"sign must be +-1, got {s}")
        object.__setattr__(self, "letters", letters)

    #: default size caps for text input; the basis is all of S_n, so large
    #: strand counts blow up factorially
    MAX_STRANDS = 8
    MAX_LETTERS = 64

    @classmethod
    def parse(cls, strands: int, text: str, max_strands: int = None, max_letters: int = None) -> "BraidWord":
        """Parse "s1 s2 s1^-1" or the compact "1 2 -1".

        Caps strand count at 8 and word length at 64 unless raised
        explicitly; direct construction is not capped.
        """
        max_strands = cls.MAX_STRANDS if max_strands is None else max_strands
        max_letters = cls.MAX_LETTERS if max_letters is None else max_letters
        if strands > max_strands:
            raise ValueError(f"strand count {strands} exceeds the cap {max_strands}")
        # (letter, count) runs, so a power is counted against the cap before
        # it is expanded
        runs = []
        for tok in text.split():
            try:
                if tok.startswith("s"):
                    body = tok[1:]
                    if "^" in body:
                        idx, exp = body.split("^")
                        sign = 1 if int(exp) > 0 else -1
                        runs.append(((int(idx), sign), abs(int(exp))))
                    else:
                        runs.append(((int(body), 1), 1))
                else:
                    v = int(tok)
                    runs.append(((abs(v), 1 if v > 0 else -1), 1))
            except ValueError:
                raise ValueError(f"bad braid letter {tok!r}: write s2, s2^-1 or -2") from None
        length = sum(count for _, count in runs)
        if length > max_letters:
            raise ValueError(f"word length {length} exceeds the cap {max_letters}")
        return cls(strands, tuple(letter for letter, count in runs for _ in range(count)))

    @property
    def writhe(self) -> int:
        return sum(s for _, s in self.letters)

    def __str__(self):
        return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in self.letters)


def torus_braid_word(m: int, n: int) -> BraidWord:
    """(s_1 s_2 ... s_{m-1})^n on m strands; its closure is the torus link."""
    base = [(i, 1) for i in range(1, m)]
    sign = 1 if n >= 0 else -1
    if sign < 0:
        base = [(i, -1) for i in range(m - 1, 0, -1)]
    return BraidWord(m, tuple(base * abs(n)))


# -- Hecke algebra elements --------------------------------------------


class HeckeElement:
    """Finite combination of positive permutation braids with LaurentQT coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        if terms:
            for pi, c in terms.items():
                if not isinstance(c, LaurentQT):
                    c = LaurentQT.monomial(c)
                if c.is_zero():
                    continue
                if len(pi) != n or sorted(pi) != list(range(n)):
                    raise ValueError(f"not a permutation of 0..{n - 1}: {pi}")
                clean[tuple(pi)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HeckeElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " + ".join(f"[{c}]*w{pi}" for pi, c in sorted(self.terms.items()))
        return f"HeckeElement({self.n}: {body or '0'})"


def element_of_braid(w: BraidWord) -> HeckeElement:
    """Image of a braid word in the Hecke algebra, folded left to right."""
    return HeckeElement(
        w.strands, {pi: LaurentQT({(qe, 0): v for qe, v in c.items()}) for pi, c in _word_terms(w).items()}
    )


# -- the integer kernel --------------------------------------------------


def _apply(terms: dict, p: int, sign: int) -> dict:
    """{permutation: {q-exponent: coeff}} right-multiplied by the generator
    swapping positions p and p + 1 (sign -1: its inverse).

    Each term moves to its swapped permutation; where the swap lowers the
    length (raises it, for the inverse) the term also stays, times sign * z:
    two shifted copies of its coefficient, one subtracted.  The result
    shares the coefficient dicts it moved; no coefficient dict is ever
    mutated, so cached ones may be passed in.
    """
    out = {}
    stays = []
    for pi, c in terms.items():
        a, b = pi[p], pi[p + 1]
        out[pi[:p] + (b, a) + pi[p + 2:]] = c
        if (a > b) == (sign > 0):
            stays.append((pi, c))
    for pi, c in stays:
        acc = dict(out.get(pi, ()))
        get = acc.get
        # sign * (q - q^-1) * c
        for e, v in c.items():
            acc[e + sign] = get(e + sign, 0) + v
            acc[e - sign] = get(e - sign, 0) - v
        if acc := {e: v for e, v in acc.items() if v}:
            out[pi] = acc
        else:
            del out[pi]
    return out


def _word_terms(w: BraidWord) -> dict:
    """``element_of_braid`` in the integer kernel: {permutation: {q-exponent: int}}."""
    terms = {perm_identity(w.strands): {0: 1}}
    for i, s in w.letters:
        terms = _apply(terms, i - 1, s)
    return terms


def _mul_into(out: dict, a: dict, b: dict) -> dict:
    """Add a * b to out, all {t-exponent: {q-exponent: coeff}}; zero terms
    are kept."""
    for ta, sa in a.items():
        for tb, sb in b.items():
            acc = out.setdefault(ta + tb, {})
            get = acc.get
            for eb, vb in sb.items():
                for ea, va in sa.items():
                    acc[ea + eb] = get(ea + eb, 0) + va * vb
    return out


def _nonzero(slices: dict) -> dict:
    """slices without zero terms and empty slices."""
    out = {}
    for te, s in slices.items():
        if s := {e: v for e, v in s.items() if v}:
            out[te] = s
    return out


#: t - t^-1 and t * z as t-slices
_T_BRACKET = {1: {0: 1}, -1: {0: -1}}
_T_Z = {1: {1: 1, -1: -1}}


# -- the Markov trace --------------------------------------------------


@lru_cache(maxsize=None)
def _trace_perm(n: int, pi: tuple) -> dict:
    """U_pi = z^(n-1) * tr_n(w_pi) / delta, a Laurent polynomial since
    z * delta = t - t^-1, as {t-exponent: {q-exponent: int}}.  Callers
    must not mutate it: it is the cached object."""
    if n == 1:
        return {0: {0: 1}}
    if pi[n - 1] == n - 1:
        return _nonzero(_mul_into({}, _T_BRACKET, _trace_perm(n - 1, pi[: n - 1])))
    j = pi.index(n - 1)
    alpha = list(pi)
    for p in range(j, n - 1):
        alpha[p], alpha[p + 1] = alpha[p + 1], alpha[p]
    assert alpha[n - 1] == n - 1
    # pi = w_alpha * s_{n-1} * (s_{n-2} ... s_{j+1}) with additive lengths
    terms = {tuple(alpha[: n - 1]): {0: 1}}
    for i in range(n - 2, j, -1):
        terms = _apply(terms, i - 1, 1)
    return _nonzero(_mul_into({}, _T_Z, _fold(n - 1, {pi: {0: c} for pi, c in terms.items()})))


def _fold(n: int, terms: dict) -> dict:
    """sum_pi c_pi U_pi = z^(n-1) * tr_n(x) / delta, each c_pi given as
    t-slices."""
    out = {}
    for pi, c in terms.items():
        _mul_into(out, c, _trace_perm(n, pi))
    return _nonzero(out)


def _framed(n: int, terms: dict) -> RationalQT:
    """(t - t^-1) sum_pi c_pi U_pi over z^n: the framed closure, with c_pi
    as in ``_fold``."""
    return _over_q(_nonzero(_mul_into({}, _T_BRACKET, _fold(n, terms))), _brackets({1: n}))


def markov_trace(x: HeckeElement) -> RationalQT:
    """Framed invariant of the closure of x, extended linearly; the
    coefficients enter the kernel once, as t-slices."""
    return _framed(x.n, {pi: _slices(c, 0) for pi, c in x.terms.items()})


def framed_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Bracket of the braid closure: the Markov trace of its Hecke image."""
    return _framed(w.strands, {pi: {0: c} for pi, c in _word_terms(w).items()})


def normalized_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Writhe-corrected invariant divided by the unknot value:
    t^(-writhe) sum_pi c_pi U_pi over z^(n-1)."""
    te = -w.writhe
    total = _fold(w.strands, {pi: {te: c} for pi, c in _word_terms(w).items()})
    return _over_q(total, _brackets({1: w.strands - 1}))
