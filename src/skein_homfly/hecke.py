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
t^(-writhe) sum_pi c_pi U_pi over z^(n-1).  An L-component link's HOMFLY
polynomial lies in z^(1 - L) Z[v^+-1, z] (Lickorish-Millett, Topology 26,
1987), so ``_closure`` divides z^(n - L) out of the sum, L the cycles of
the braid's permutation, and each closure builds one RationalQT over z^L
or z^(L-1) through ``exact._over_q``: no delta, no RationalQT division, no
trial division by z.  This path never touches the plethysm machinery, so
it cross-validates the torus formula on uncolored specializations.

Inside, the structure constants involve q alone, so a braid's image has
coefficients in Z[q, q^-1], each Kronecker-packed into one int (as the
class sums pack theirs): sum_e v_e q^e is sum_e v_e X^(e + O) at
X = 2^(8 size), one signed size-byte slot per exponent, the offset O
keeping every slot index >= 0.  ``_apply`` multiplies by z as two shifts
and a subtraction, ``_trace_perm`` keeps each t-slice of U_pi as one int,
and the trace is one big-int product per permutation and t-slice of U_pi.
The slot width comes from a proved bound (``_slot_size``): one letter at
most triples an element's l1 norm, and ``_trace_perm`` bounds l1(U_pi), so
no coefficient of the sum, nor of its quotient by z^(n - L), can overflow
its slot.  ``exact._packed_div`` divides a t-slice by z^(n - L) in one
divmod and ``exact._unpack`` cuts it back into the {t-exponent:
{q-exponent: int}} slices that ``exact._over_q`` takes.  LaurentQT stays
at the boundary: ``HeckeElement`` and ``element_of_braid`` carry LaurentQT
coefficients, and ``markov_trace`` packs each t-slice of its argument's
coefficients once.

The folds key their terms by permutation numbers, not tuples: one
``_Numbering`` per strand count numbers each permutation when a fold first
reaches it (the identity is 0), and ``_apply`` looks up each swap of
neighbours, with whether it lowers the length, in a memo filled on first
use.  So no permutation tuple is built or hashed per term and letter, and
nothing enumerates S_n.  Tuples remain at the boundary too: the keys of
``_trace_perm``'s cache and of ``HeckeElement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, starmap
from operator import gt, index
from threading import Lock

from .errors import IndexOutOfRange
from .exact import LaurentQT, RationalQT, _brackets, _over_q, _packed_div, _unpack
from .partitions import integer


# -- permutations in one-line, zero-indexed form -----------------------


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


class _Numbering:
    """The permutations of 0..n-1 that folds have reached, numbered in the
    order they were first reached (0 is the identity), with the swaps looked
    up so far: ``swaps[p][i]`` is (the number of ``perms[i]`` with positions
    p and p + 1 swapped, whether that swap lowers the length).

    Nothing enumerates S_n: a fold of L letters from the identity reaches at
    most 2^L permutations.  Readers see plain dicts and lists; a miss numbers
    its permutation under a lock, appending to ``perms`` before ``numbers``
    names it, so threads that fold at once agree on every number.  Numbers
    mean nothing outside their numbering, so a fold takes one numbering and
    passes it on.
    """

    __slots__ = ("n", "perms", "numbers", "swaps", "_lock")

    def __init__(self, n: int):
        self.n = n
        self.perms = [tuple(range(n))]
        self.numbers = {self.perms[0]: 0}
        self.swaps = [{} for _ in range(n - 1)]
        self._lock = Lock()

    def number(self, pi: tuple) -> int:
        """pi's number, the next one if it had none."""
        if (i := self.numbers.get(pi)) is None:
            with self._lock:
                if (i := self.numbers.get(pi)) is None:
                    i = len(self.perms)
                    self.perms.append(pi)
                    self.numbers[pi] = i
        return i

    def swap(self, p: int, i: int) -> tuple:
        """``swaps[p][i]``, worked out on a miss and kept with its reverse:
        the swap back from j to i changes the length the other way."""
        pi, memo = self.perms[i], self.swaps[p]
        a, b = pi[p], pi[p + 1]
        j = self.number(pi[:p] + (b, a) + pi[p + 2 :])
        memo[j] = (i, b > a)
        out = memo[i] = (j, a > b)
        return out


@lru_cache(maxsize=None)
def _numbering(n: int) -> _Numbering:
    """The one numbering of the permutations of 0..n-1 that folds share."""
    return _Numbering(n)


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
                        sign = 1 if integer(exp) > 0 else -1
                        runs.append(((integer(idx), sign), abs(integer(exp))))
                    else:
                        runs.append(((integer(body), 1), 1))
                else:
                    v = integer(tok)
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

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor
        return type(self), (self.n, self.terms)

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
    """Image of a braid word in the Hecke algebra, folded left to right and
    unpacked once."""
    (terms, size, numbering), low = _word_terms(w), -len(w.letters)
    return HeckeElement(
        w.strands,
        {
            numbering.perms[i]: LaurentQT._of({(low + k, 0): v for k, v in enumerate(_unpack(c, size)) if v})
            for i, c in terms.items()
        },
    )


# -- the packed kernel ---------------------------------------------------


def _apply(numbering: _Numbering, terms: dict, p: int, sign: int, bits: int) -> dict:
    """{permutation number: packed coefficient} right-multiplied by the
    generator swapping positions p and p + 1 (sign -1: its inverse); slots
    are bits wide.

    Each term moves to its swapped permutation, looked up in
    ``numbering.swaps[p]``; where the swap lowers the length (raises it, for
    the inverse) the term also stays, times sign * z: z * c is
    (c << bits) - (c >> bits), whose right shift is exact while the lowest
    slot of c is empty.  A term whose int is 0 is dropped.
    """
    swaps, up = numbering.swaps[p], sign > 0
    out = {}
    stays = []
    for i, c in terms.items():
        j, lowers = swaps.get(i) or numbering.swap(p, i)
        out[j] = c
        if lowers == up:
            stays.append((i, c))
    for i, c in stays:
        zc = (c << bits) - (c >> bits)
        if acc := out.get(i, 0) + (zc if up else -zc):
            out[i] = acc
        else:
            del out[i]
    return out


def _word_terms(w: BraidWord) -> tuple:
    """``element_of_braid`` packed: ({permutation number: int}, size,
    numbering), q^e at the size-byte slot e + len(w.letters).  One letter at
    most triples the l1 norm of an element, so the size is ``_slot_size`` of
    3^letters; after k letters every exponent is at least -k, so the lowest
    slot is empty before each letter."""
    size = _slot_size(3 ** len(w.letters), w.strands)
    bits = 8 * size
    numbering = _numbering(w.strands)
    terms = {0: 1 << (bits * len(w.letters))}
    for i, s in w.letters:
        terms = _apply(numbering, terms, i - 1, s, bits)
    return terms, size, numbering


def _slot_size(l1: int, n: int) -> int:
    """Bytes per slot for the closures on n strands of an element whose
    coefficients have l1 norm at most l1, a multiple of 8 so that few sizes
    of ``_trace_perm`` entries occur.

    Every coefficient of (t - t^-1) sum_pi c_pi U_pi is at most
    2 * l1 * max_pi l1(U_pi), and l1(U_pi) <= 2^(n-1) 3^((n-1)(n-2)/2)
    (``_trace_perm``); the slot holds that bound with a sign bit.  So does
    it hold a braid closure's quotient by z^k, k = n - L, times the l1 norm
    2^k of z^k, as ``exact._packed_div``'s check needs: a word's c_pi is a
    sum over paths of +-z^b, b the letters where the term stayed, and such
    a path ends on a pi with at most L + b cycles c, so by ``_trace_perm``'s
    bound on 2^(n-c) l1(U_pi / z^(n-c)) its term over z^k has l1 at most
    2^(b-k) 2^(n-1) 3^((n-1)(n-2)/2), where the sum over paths of 2^b is at
    most 3^letters.
    """
    bound = 2 * l1 * 2 ** (n - 1) * 3 ** ((n - 1) * (n - 2) // 2)
    return (bound.bit_length() // 64 + 1) * 8


def _t_bracket(slices: dict) -> dict:
    """(t - t^-1) times {t-exponent: int}, nonzero slices only."""
    out = {}
    for te, x in slices.items():
        out[te + 1] = out.get(te + 1, 0) + x
        out[te - 1] = out.get(te - 1, 0) - x
    return {te: x for te, x in out.items() if x}


def _sliced(slots: dict, low: int, t_shift: int = 0) -> dict:
    """{t-exponent: slot list}, slot 0 holding q^low, as the nonzero
    {t-exponent: {q-exponent: int}} slices that ``exact._over_q`` takes,
    each t-exponent moved by t_shift."""
    return {te + t_shift: {low + k: v for k, v in enumerate(s) if v} for te, s in slots.items()}


# -- the Markov trace --------------------------------------------------


@lru_cache(maxsize=None)
def _trace_perm(n: int, pi: tuple, size: int) -> dict:
    """U_pi = z^(n-1) * tr_n(w_pi) / delta, a Laurent polynomial since
    z * delta = t - t^-1, as {t-exponent: int}: each t-slice packed in
    size-byte slots with q^e at slot e + n(n-1)/2.  Callers must not mutate
    it: it is the cached object, one per size.

    By induction on the recursion, its q-exponents lie within +-n(n-1)/2
    and l1(U_pi) <= 2 * 3^(n-2) * max l1(U on n - 1 strands), so
    l1(U_pi) <= 2^(n-1) 3^((n-1)(n-2)/2): a permutation that fixes n gives
    (t - t^-1) U_restriction; any other folds k <= n - 2 letters on n - 1
    strands (each letter at most triples l1 and moves an exponent by one)
    and multiplies by t * z.  The largest l1 is 1, 2, 8, 32, 128, 512 for
    n = 1..6.  The size must hold the bound with a sign bit, as every
    ``_slot_size`` does.  The same induction bounds 2^(n-c) l1(U_pi / z^(n-c)),
    c the cycles of pi, which is at least l1(U_pi): a folded term z^b U_sigma
    has cycles c(sigma) <= c(pi) + b, since dropping a letter from a word
    moves its permutation's cycle count by one, so it keeps z^(n-c(pi)).
    """
    if n == 1:
        return {0: 1}
    bits = 8 * size
    if pi[n - 1] == n - 1:
        return _t_bracket({te: x << (bits * (n - 1)) for te, x in _trace_perm(n - 1, pi[: n - 1], size).items()})
    j = pi.index(n - 1)
    alpha = list(pi)
    for p in range(j, n - 1):
        alpha[p], alpha[p + 1] = alpha[p + 1], alpha[p]
    assert alpha[n - 1] == n - 1
    # pi = w_alpha * s_{n-1} * (s_{n-2} ... s_{j+1}) with additive lengths;
    # the k letters start from q^0 at slot k
    k = n - 2 - j
    numbering = _numbering(n - 1)
    terms = {numbering.number(tuple(alpha[: n - 1])): 1 << (bits * k)}
    for i in range(n - 2, j, -1):
        terms = _apply(numbering, terms, i - 1, 1, bits)
    # the fold puts q^e at slot e + k + (n-1)(n-2)/2; t * z moves it to
    # e +- 1 + n(n-1)/2, that is n - 1 - k >= 1 slots up, plus or minus one
    up, down = bits * (n - k), bits * (n - 2 - k)
    return {te + 1: (x << up) - (x << down) for te, x in _fold(numbering, terms, size).items()}


def _fold(numbering: _Numbering, terms: dict, size: int) -> dict:
    """sum_pi c_pi U_pi = z^(n-1) * tr_n(x) / delta for the packed c_pi of
    ``terms``, keyed by their numbers in ``numbering``, as nonzero
    {t-exponent: int}: one product per t-slice of each U_pi, so a
    coefficient's slot k lands at k + n(n-1)/2."""
    n, perms, out = numbering.n, numbering.perms, {}
    for i, c in terms.items():
        for te, u in _trace_perm(n, perms[i], size).items():
            out[te] = out.get(te, 0) + c * u
    return {te: x for te, x in out.items() if x}


def markov_trace(x: HeckeElement) -> RationalQT:
    """Framed invariant of the closure of x, extended linearly: each t-slice
    of the coefficients is packed once, from their lowest q-exponent, in
    slots sized by their l1 norm, and folded; with no component count to
    divide by, (t - t^-1) times the sum goes over z^n."""
    n, coeffs = x.n, x.terms.values()
    low = min((qe for c in coeffs for qe, _ in c.terms), default=0)
    size = _slot_size(sum(abs(v) for c in coeffs for v in c.terms.values()), n)
    bits = 8 * size
    numbering, rows = _numbering(n), {}
    for pi, c in x.terms.items():
        i = numbering.number(pi)
        for (qe, te), v in c.terms.items():
            row = rows.setdefault(te, {})
            row[i] = row.get(i, 0) + (v << (bits * (qe - low)))
    total = {}
    for tc, row in rows.items():
        for te, y in _fold(numbering, row, size).items():
            total[te + tc] = total.get(te + tc, 0) + y
    slots = {te: _unpack(y, size) for te, y in _t_bracket(total).items()}
    return _over_q(_sliced(slots, low - n * (n - 1) // 2), _brackets({1: n}))


def _closure(w: BraidWord, framed: bool) -> RationalQT:
    """A closure of w with L components, the cycles of its permutation:
    z^(n - L) = q^(L - n) (X^2 - 1)^(n - L) leaves each t-slice of
    sum_pi c_pi U_pi (times t - t^-1 when framed, else times t^-writhe) in
    one big-int division, and the rest goes over z^L (z^(L-1)).  The slots
    hold the quotient (``_slot_size``), so ``_packed_div`` always returns it;
    a sum it does not divide is an ArithmeticError."""
    n, perm = w.strands, list(range(w.strands))
    for i, _ in w.letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    k = n - perm_cycle_count(perm)
    terms, size, numbering = _word_terms(w)
    total = _fold(numbering, terms, size)
    if framed:
        total = _t_bracket(total)
    c = ((1 << (16 * size)) - 1) ** k
    slots = {te: _packed_div(x, c, 1 << k, size) for te, x in total.items()}
    if None in slots.values():
        raise ArithmeticError(f"z^{k} does not divide the closure of {w}")
    slices = _sliced(slots, k - len(w.letters) - n * (n - 1) // 2, 0 if framed else -w.writhe)
    return _over_q(slices, _brackets({1: n - k if framed else n - k - 1}))


def framed_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Bracket of the braid closure: the Markov trace of its Hecke image,
    (t - t^-1) sum_pi c_pi U_pi over z^n, z^(n - L) divided out first."""
    return _closure(w, True)


def normalized_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Writhe-corrected invariant divided by the unknot value:
    t^(-writhe) sum_pi c_pi U_pi over z^(n-1), z^(n - L) divided out first."""
    return _closure(w, False)
