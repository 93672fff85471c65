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
divmod, and the slot codec of exact.py cuts it back into the {t-exponent:
{q-exponent: int}} slices that ``exact._over_q`` takes.  LaurentQT stays
at the boundary: ``HeckeElement`` and ``element_of_braid`` carry LaurentQT
coefficients, and ``markov_trace`` packs each t-slice of its argument's
coefficients once.

The folds key their terms by permutation codes, not tuples: ``_code``
packs a permutation into one int, so it has the same key in every fold,
thread and cache, ``_trace_perm``'s included.  ``_apply`` looks up each
swap of neighbours, with whether it lowers the length, in the memo of
``_swaps(n)``, which a miss fills from the code alone.  So no permutation
tuple is built or hashed per term and letter, nothing enumerates S_n, and
tuples remain only at the boundary, in ``HeckeElement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, starmap
from operator import gt, index, lshift

from .errors import IndexOutOfRange
from .exact import LaurentQT, RationalQT, _brackets, _over_q, _packed_div, _sliced, _unpack, _unslice
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


def _code(pi) -> int:
    """The permutation pi of 0..n-1 as one int: entry i in the w bits from
    w * i, w = max(1, (n - 1).bit_length())."""
    w = max(1, (len(pi) - 1).bit_length())
    return sum(map(lshift, pi, range(0, w * len(pi), w)))


def _perm(code: int, n: int) -> tuple:
    """The permutation of 0..n-1 whose ``_code`` is code."""
    w = max(1, (n - 1).bit_length())
    mask = (1 << w) - 1
    return tuple(code >> s & mask for s in range(0, w * n, w))


@lru_cache(maxsize=None)
def _swaps(n: int) -> tuple:
    """([one memo per position p], the identity's code) on n strands:
    ``memo[code]`` is (the code with entries p and p + 1 swapped, whether
    that swap lowers the length), filled by ``_swap`` on first use.

    Nothing enumerates S_n: a fold of L letters from the identity reaches
    at most 2^L permutations.  Every entry depends on its key alone, so
    threads that fill a memo at once, or that each build one on a race for
    the cache, need no lock.
    """
    return [{} for _ in range(n - 1)], _code(range(n))


def _swap(memos: list, p: int, code: int) -> tuple:
    """``memos[p][code]``, worked out on a miss and kept with its reverse:
    the swap back changes the length the other way."""
    w = max(1, len(memos).bit_length())
    memo, shift, mask = memos[p], w * p, (1 << w) - 1
    a, b = code >> shift & mask, code >> (shift + w) & mask
    d = a ^ b
    other = code ^ d << shift ^ d << (shift + w)
    memo[other] = (code, b > a)
    out = memo[code] = (other, a > b)
    return out


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
    terms, size = _word_terms(w)
    coeffs = _sliced({i: _unpack(c, size) for i, c in terms.items()}, -len(w.letters))
    return HeckeElement(
        w.strands, {_perm(i, w.strands): LaurentQT._of(_unslice({0: c}, 0)) for i, c in coeffs.items()}
    )


# -- the packed kernel ---------------------------------------------------


def _apply(memos: list, terms: dict, p: int, sign: int, bits: int) -> dict:
    """{permutation code: packed coefficient} on n strands right-multiplied
    by the generator swapping positions p and p + 1 (sign -1: its inverse);
    memos is ``_swaps(n)[0]`` and slots are bits wide.

    Each term moves to its swapped permutation, looked up in ``memos[p]``;
    where the swap lowers the length (raises it, for the inverse) the term
    also stays, times sign * z: z * c is (c << bits) - (c >> bits), whose
    right shift is exact while the lowest slot of c is empty.  A term whose
    int is 0 is dropped.
    """
    memo, up = memos[p], sign > 0
    out = {}
    stays = []
    for i, c in terms.items():
        j, lowers = memo.get(i) or _swap(memos, p, i)
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
    """``element_of_braid`` packed: ({permutation code: int}, size), q^e at
    the size-byte slot e + len(w.letters).  One letter at most triples the
    l1 norm of an element, so the size is ``_slot_size`` of 3^letters; after
    k letters every exponent is at least -k, so the lowest slot is empty
    before each letter."""
    size = _slot_size(3 ** len(w.letters), w.strands)
    bits = 8 * size
    memos, identity = _swaps(w.strands)
    terms = {identity: 1 << (bits * len(w.letters))}
    for i, s in w.letters:
        terms = _apply(memos, terms, i - 1, s, bits)
    return terms, size


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


# -- the Markov trace --------------------------------------------------


@lru_cache(maxsize=None)
def _trace_perm(n: int, code: int, size: int) -> dict:
    """U_pi = z^(n-1) * tr_n(w_pi) / delta for the pi whose ``_code`` is
    code, a Laurent polynomial since z * delta = t - t^-1, as {t-exponent:
    int}: each t-slice packed in size-byte slots with q^e at slot
    e + n(n-1)/2.  Callers must not mutate it: it is the cached object, one
    per size.

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
    # alpha: pi with n - 1 moved from position j to the end, restricted to
    # 0..n-2
    bits, pi = 8 * size, _perm(code, n)
    j = pi.index(n - 1)
    alpha = _code(pi[:j] + pi[j + 1 :])
    if j == n - 1:
        return _t_bracket({te: x << (bits * (n - 1)) for te, x in _trace_perm(n - 1, alpha, size).items()})
    # pi = w_alpha * s_{n-1} * (s_{n-2} ... s_{j+1}) with additive lengths;
    # the k letters start from q^0 at slot k
    k = n - 2 - j
    terms = {alpha: 1 << (bits * k)}
    memos = _swaps(n - 1)[0]
    for i in range(n - 2, j, -1):
        terms = _apply(memos, terms, i - 1, 1, bits)
    # the fold puts q^e at slot e + k + (n-1)(n-2)/2; t * z moves it to
    # e +- 1 + n(n-1)/2, that is n - 1 - k >= 1 slots up, plus or minus one
    up, down = bits * (n - k), bits * (n - 2 - k)
    return {te + 1: (x << up) - (x << down) for te, x in _fold(n - 1, terms, size).items()}


def _fold(n: int, terms: dict, size: int) -> dict:
    """sum_pi c_pi U_pi = z^(n-1) * tr_n(x) / delta for the packed c_pi of
    ``terms``, keyed by the codes of permutations of 0..n-1, as nonzero
    {t-exponent: int}: one product per t-slice of each U_pi, so a
    coefficient's slot k lands at k + n(n-1)/2."""
    out = {}
    for i, c in terms.items():
        for te, u in _trace_perm(n, i, size).items():
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
    rows = {}
    for pi, c in x.terms.items():
        i = _code(pi)
        for (qe, te), v in c.terms.items():
            row = rows.setdefault(te, {})
            row[i] = row.get(i, 0) + (v << (bits * (qe - low)))
    total = {}
    for tc, row in rows.items():
        for te, y in _fold(n, row, size).items():
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
    terms, size = _word_terms(w)
    total = _fold(n, terms, size)
    if framed:
        total = _t_bracket(total)
    c = ((1 << (16 * size)) - 1) ** k
    slots = {te: _packed_div(x, c, 1 << k, size) for te, x in total.items()}
    if None in slots.values():
        raise ArithmeticError(f"z^{k} does not divide the closure of {w}")
    slices = _sliced(slots, k - len(w.letters) - n * (n - 1) // 2, 1, 0 if framed else -w.writhe)
    return _over_q(slices, _brackets({1: n - k if framed else n - k - 1}))


def framed_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Bracket of the braid closure: the Markov trace of its Hecke image,
    (t - t^-1) sum_pi c_pi U_pi over z^n, z^(n - L) divided out first."""
    return _closure(w, True)


def normalized_homfly_of_closure(w: BraidWord) -> RationalQT:
    """Writhe-corrected invariant divided by the unknot value:
    t^(-writhe) sum_pi c_pi U_pi over z^(n-1), z^(n - L) divided out first."""
    return _closure(w, False)
