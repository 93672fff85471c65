"""Hecke-algebra oracle: framed invariants of closed braids by Markov trace.

Elements are kept in the positive-permutation-braid basis {w_pi}; right
multiplication by a generator either extends the permutation (length goes
up) or re-expands through the quadratic relation s^2 = z*s + 1 with
z = q - q^-1.  The trace is the unique linear functional with

    tr(identity on one strand) = delta
    tr_n(w_pi) = delta * tr_{n-1}(restriction)        if pi fixes n
    tr_n(w_a s_{n-1} w_b) = t * tr_{n-1}(w_a w_b)     for a, b fixing n

pinned by the two anchors <unknot> = delta and <positive kink> = t*delta.
Since z * delta = t - t^-1, traces on n strands are kept as Laurent
numerators over z^n: ``_trace_perm`` returns z^n * tr_n(w_pi), and
``markov_trace`` builds the one RationalQT numerator / z^n at the end.
This path never touches the plethysm machinery, so it cross-validates the
torus formula on uncolored specializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _permutations
from operator import index

from .errors import IndexOutOfRange
from .exact import LaurentQT, RationalQT, delta, q_bracket, t_bracket, t_power
from .partitions import Partition

_Z = q_bracket(1)


# -- permutations in one-line, zero-indexed form -----------------------


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def perm_length(pi: tuple) -> int:
    """Coxeter length = inversion count."""
    n = len(pi)
    return sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])


def perm_cycle_type(pi: tuple) -> Partition:
    n = len(pi)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            c += 1
        lens.append(c)
    return Partition(sorted(lens, reverse=True))


def all_permutations(n: int):
    return _permutations(range(n))


# -- braid words -------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators: letters are (index, sign)."""

    strands: int
    letters: tuple

    def __post_init__(self):
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
        letters = []
        for tok in text.split():
            try:
                if tok.startswith("s"):
                    body = tok[1:]
                    if "^" in body:
                        idx, exp = body.split("^")
                        sign = 1 if int(exp) > 0 else -1
                        letters.extend([(int(idx), sign)] * abs(int(exp)))
                    else:
                        letters.append((int(body), 1))
                else:
                    v = int(tok)
                    letters.append((abs(v), 1 if v > 0 else -1))
            except ValueError:
                raise ValueError(f"bad braid letter {tok!r}: write s2, s2^-1 or -2") from None
        if len(letters) > max_letters:
            raise ValueError(f"word length {len(letters)} exceeds the cap {max_letters}")
        return cls(strands, tuple(letters))

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

    @classmethod
    def identity(cls, n: int) -> "HeckeElement":
        return cls(n, {perm_identity(n): LaurentQT.one()})

    @classmethod
    def basis(cls, pi: tuple) -> "HeckeElement":
        return cls(len(pi), {tuple(pi): LaurentQT.one()})

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " + ".join(f"[{c}]*w{pi}" for pi, c in sorted(self.terms.items()))
        return f"HeckeElement({self.n}: {body or '0'})"


def apply_generator(x: HeckeElement, i: int, sign: int = 1) -> HeckeElement:
    """Right-multiply by the i-th braid generator or its inverse.

    In the permutation-braid basis: when the swap raises length the basis
    element just extends; otherwise s^2 = z*s + 1 (resp. s^-1 = s - z)
    re-expands the product.
    """
    n = x.n
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"generator index {i} outside 1..{n - 1}")
    p = i - 1
    out = {}

    def _add(pi, c):
        out[pi] = out[pi] + c if pi in out else c

    for pi, c in x.terms.items():
        tau = pi[:p] + (pi[p + 1], pi[p]) + pi[p + 2:]
        raises = pi[p] < pi[p + 1]
        if sign > 0 and not raises:
            _add(pi, c * _Z)
        _add(tau, c)
        if sign < 0 and raises:
            _add(pi, -(c * _Z))
    return HeckeElement(n, out)


def element_of_braid(w: BraidWord) -> HeckeElement:
    """Image of a braid word in the Hecke algebra, folded left to right."""
    x = HeckeElement.identity(w.strands)
    for i, s in w.letters:
        x = apply_generator(x, i, s)
    return x


# -- the Markov trace --------------------------------------------------


@lru_cache(maxsize=None)
def _trace_perm(n: int, pi: tuple) -> LaurentQT:
    """z^n * tr_n(w_pi), a Laurent polynomial since z * delta = t - t^-1."""
    if n == 1:
        return t_bracket(1)
    if pi[n - 1] == n - 1:
        return t_bracket(1) * _trace_perm(n - 1, pi[: n - 1])
    j = pi.index(n - 1)
    alpha = list(pi)
    for p in range(j, n - 1):
        alpha[p], alpha[p + 1] = alpha[p + 1], alpha[p]
    assert alpha[n - 1] == n - 1
    x = HeckeElement.basis(tuple(alpha[: n - 1]))
    # pi = w_alpha * s_{n-1} * (s_{n-2} ... s_{j+1}) with additive lengths
    for i in range(n - 2, j, -1):
        x = apply_generator(x, i, 1)
    total = sum((c * _trace_perm(n - 1, sigma) for sigma, c in x.terms.items()), LaurentQT.zero())
    return t_power(1) * _Z * total


def markov_trace(x: HeckeElement) -> RationalQT:
    """Framed invariant of the closure of x, extended linearly."""
    total = sum((c * _trace_perm(x.n, pi) for pi, c in x.terms.items()), LaurentQT.zero())
    return RationalQT(total, _Z ** x.n).simplified()


def framed_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Bracket of the braid closure: the Markov trace of its Hecke image."""
    return markov_trace(element_of_braid(w))


def normalized_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Writhe-corrected invariant divided by the unknot value."""
    bracket = framed_homfly_of_closure(w)
    return (bracket * RationalQT(t_power(-w.writhe)) / delta()).simplified()
