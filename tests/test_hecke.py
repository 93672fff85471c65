import copy
import random
import sys
import threading
import tracemalloc
from itertools import permutations

import pytest

from skein_homfly.errors import IndexOutOfRange
from skein_homfly.exact import LaurentQT, RationalQT, _brackets, _udiv, _unpack, delta, q_bracket, substitute, t_power
from skein_homfly.hecke import (
    BraidWord,
    HeckeElement,
    _apply,
    _code,
    _perm,
    _slot_size,
    _swap,
    _swaps,
    _word_terms,
    element_of_braid,
    framed_homfly_of_closure,
    markov_trace,
    _trace_perm,
    normalized_homfly_of_closure,
    perm_cycle_count,
    perm_length,
    torus_braid_word,
)
from skein_homfly.partitions import Partition
from skein_homfly.torus import uncolored_homfly_torus_knot

from oracles import (
    apply_generator_laurent,
    element_of_braid_laurent,
    hecke_multiply,
    hecke_scaled,
    idempotent_scalars,
    markov_trace_simplified,
    negative_symmetrizer,
    normalized_closure_by_delta,
    perm_cycle_type,
    perm_inversions_by_bubble_sort,
    perm_inversions_by_index,
    positive_symmetrizer,
    reduced_word,
)

P = Partition
Z = q_bracket(1)

TREFOIL_P = RationalQT(LaurentQT({(2, -2): 1, (-2, -2): 1, (0, -4): -1}))


def test_reduced_words_replay():
    for n in (2, 3, 4):
        for pi in permutations(range(n)):
            word = BraidWord(n, tuple((i, 1) for i in reduced_word(pi)))
            assert element_of_braid(word) == HeckeElement(n, {pi: 1})
            assert len(reduced_word(pi)) == perm_length(pi)


def test_generator_raises_length():
    assert element_of_braid(BraidWord(2, ((1, 1),))) == HeckeElement(2, {(1, 0): 1})


def test_generator_quadratic_relation():
    x = element_of_braid(BraidWord(2, ((1, 1), (1, 1))))
    assert x == HeckeElement(2, {(1, 0): Z, (0, 1): LaurentQT.one()})


def test_generator_inverse():
    assert element_of_braid(BraidWord(2, ((1, -1),))) == HeckeElement(2, {(1, 0): 1, (0, 1): -Z})
    # s s^-1 = 1, and s^-1 s = (w_s - z) s = z w_s + 1 - z w_s, where the w_s
    # coefficient cancels and leaves no zero term
    for word in (((1, 1), (1, -1)), ((1, -1), (1, 1))):
        assert element_of_braid(BraidWord(2, word)).terms == {(0, 1): LaurentQT.one()}


def test_generator_index_checked():
    with pytest.raises(IndexOutOfRange):
        BraidWord(2, ((2, 1),))
    with pytest.raises(ValueError, match="sign must be"):
        BraidWord(2, ((1, 2),))


def test_empty_word_is_identity():
    assert element_of_braid(BraidWord(3, ())) == HeckeElement(3, {(0, 1, 2): 1})


def test_braid_relations():
    a = element_of_braid(BraidWord(3, ((1, 1), (2, 1), (1, 1))))
    b = element_of_braid(BraidWord(3, ((2, 1), (1, 1), (2, 1))))
    assert a == b
    far = element_of_braid(BraidWord(4, ((1, 1), (3, 1))))
    far2 = element_of_braid(BraidWord(4, ((3, 1), (1, 1))))
    assert far == far2


def _random_rewrites(word, strands, rng, rounds=6):
    """Apply random braid-relation and far-commutation rewrites."""
    w = list(word)
    for _ in range(rounds):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        (a, sa), (b, sb) = w[i], w[i + 1]
        if abs(a - b) >= 2:
            w[i], w[i + 1] = w[i + 1], w[i]
        elif i + 2 < len(w) and sa == sb == w[i + 2][1]:
            c = w[i + 2][0]
            if a == c and abs(a - b) == 1:
                w[i], w[i + 1], w[i + 2] = (b, sb), (a, sa), (b, sb)
    return w


def test_braid_relation_invariance_randomized():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        length = rng.randint(1, 12)
        word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
        x = element_of_braid(BraidWord(n, tuple(word)))
        y = element_of_braid(BraidWord(n, tuple(_random_rewrites(word, n, rng))))
        assert x == y
        # no term with a zero coefficient survives the fold
        for c in x.terms.values():
            assert not c.is_zero() and 0 not in c.terms.values()


def test_trace_anchor_values():
    assert markov_trace(HeckeElement(2, {(0, 1): 1})) == delta() * delta()
    assert markov_trace(HeckeElement(2, {(1, 0): 1})) == delta() * RationalQT(t_power(1))
    neg = framed_homfly_of_closure(BraidWord(2, ((1, -1),)))
    assert neg == delta() * RationalQT(t_power(-1))


def test_trace_conjugation_invariance():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 4)
        la = rng.randint(1, 6)
        lb = rng.randint(1, 6)
        wa = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(la)]
        wb = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(lb)]
        ab = element_of_braid(BraidWord(n, tuple(wa + wb)))
        ba = element_of_braid(BraidWord(n, tuple(wb + wa)))
        assert markov_trace(ab) == markov_trace(ba)


def test_skein_relation_on_closures():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(2, 4)
        length = rng.randint(0, 6)
        w = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
        i = rng.randint(1, n - 1)
        plus = framed_homfly_of_closure(BraidWord(n, tuple(w + [(i, 1)])))
        minus = framed_homfly_of_closure(BraidWord(n, tuple(w + [(i, -1)])))
        base = framed_homfly_of_closure(BraidWord(n, tuple(w)))
        assert plus - minus == RationalQT(Z) * base


def test_trefoil_bracket():
    bracket = framed_homfly_of_closure(torus_braid_word(2, 3))
    assert bracket == RationalQT(t_power(3)) * delta() * TREFOIL_P


def test_markov_stabilization():
    base = framed_homfly_of_closure(torus_braid_word(2, 3))
    stabilized = framed_homfly_of_closure(BraidWord(3, ((1, 1), (1, 1), (1, 1), (2, 1))))
    assert stabilized == RationalQT(t_power(1)) * base


def test_normalized_homfly_of_unknot_word():
    assert normalized_homfly_of_closure(BraidWord(1, ())) == RationalQT.one()
    assert normalized_homfly_of_closure(BraidWord(2, ((1, 1),))) == RationalQT.one()


def test_oracle_agreement_with_torus_formula():
    for m, n in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        w, _ = uncolored_homfly_torus_knot(m, n)
        bracket = framed_homfly_of_closure(torus_braid_word(m, n))
        assert bracket == RationalQT(t_power(n * (m - 1))) * w, (m, n)


def test_idempotent_scalars():
    a1, b1 = idempotent_scalars(1)
    assert a1 == LaurentQT.one() and b1 == LaurentQT.one()
    a2, b2 = idempotent_scalars(2)
    assert a2 == LaurentQT({(2, 0): 1, (0, 0): 1})
    assert b2 == substitute(a2, q="-q^-1")


def test_symmetrizer_eigenvalues():
    for m in (2, 3):
        a = positive_symmetrizer(m)
        alpha, _ = idempotent_scalars(m)
        assert hecke_multiply(a, a) == hecke_scaled(a, alpha)
        b = negative_symmetrizer(m)
        _, beta = idempotent_scalars(m)
        assert hecke_multiply(b, b) == hecke_scaled(b, beta)


def test_symmetrizer_absorption():
    for m in (2, 3, 4):
        a = positive_symmetrizer(m)
        q_mono = LaurentQT.monomial(1, 1, 0)
        for i in range(1, m):
            assert apply_generator_laurent(a, i, 1) == hecke_scaled(a, q_mono), (m, i)


def test_braid_word_parsing():
    w = BraidWord.parse(3, "s1 s2 s1^-1")
    assert w.letters == ((1, 1), (2, 1), (1, -1))
    assert w.writhe == 1
    compact = BraidWord.parse(3, "1 2 -1")
    assert compact.letters == ((1, 1), (2, 1), (1, -1))
    powers = BraidWord.parse(2, "s1^3")
    assert powers.letters == ((1, 1), (1, 1), (1, 1))
    with pytest.raises(IndexOutOfRange):
        BraidWord.parse(2, "s2")
    # a non-integral generator index is rejected, not truncated
    with pytest.raises(TypeError):
        BraidWord(3, ((1.9, 1),))


def test_braid_word_strands_must_be_an_integer():
    # a float strand count is rejected when the word is built, not late in
    # the fold; an integral one is stored as a plain int
    with pytest.raises(TypeError):
        BraidWord(2.5, ())
    word = BraidWord(True, ())
    assert type(word.strands) is int and word.strands == 1
    assert normalized_homfly_of_closure(word) == RationalQT.one()


def test_braid_text_takes_ascii_digits_only():
    # int() would read each: a sign, a separator, Arabic-Indic and fullwidth digits
    for text in ("s1^+1", "+1", "s1_0", "1_0", "\u0661", "s\u0661", "s1^-\u0661", "-\uff11"):
        with pytest.raises(ValueError, match="^bad braid letter"):
            BraidWord.parse(3, text)
    assert BraidWord.parse(3, " s2^-1  -1 ").letters == ((2, -1), (1, -1))


def test_braid_word_power_checked_before_expansion():
    # the power is counted against the cap, not built letter by letter first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="word length 5000000 exceeds the cap 64"):
            BraidWord.parse(2, "s1^5000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert BraidWord.parse(3, "s2^-2 1 s1^0").letters == ((2, -1), (2, -1), (1, 1))


def test_permutation_helpers():
    assert perm_length((2, 1, 0)) == 3
    assert perm_cycle_type((1, 0, 2)) == P((2, 1))
    assert perm_cycle_type((1, 2, 0)) == P((3,))


def test_permutation_counts_match_first_definitions():
    # the parity sweep's counts against the index-pair inversion count,
    # bubble sort's swap count (one adjacent inverted pair per swap) and
    # the length of the cycle type, on every permutation of degree <= 6
    for n in range(7):
        for pi in permutations(range(n)):
            assert perm_length(pi) == perm_inversions_by_index(pi) == perm_inversions_by_bubble_sort(pi), pi
            assert perm_cycle_count(pi) == len(perm_cycle_type(pi)), pi


def test_constructors_check_permutations():
    with pytest.raises(ValueError, match=r"not a permutation of 0\.\.2"):
        HeckeElement(3, {(0, 0, 1): 1})
    with pytest.raises(ValueError, match="not a permutation"):
        HeckeElement(3, {(0, 1): 1})
    with pytest.raises(ValueError, match="not a permutation"):
        HeckeElement(3, {(1, 1, 0): 1})
    # zero coefficients are dropped
    assert HeckeElement(3, {(0, 1, 2): 1, (1, 0, 2): 0}).terms == {(0, 1, 2): LaurentQT.one()}


def _random_words(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        length = rng.randint(0, 8) if n > 1 else 0
        yield BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))


def test_trace_reduction_matches_simplified_route(monkeypatch):
    # cancelling z on the t-slices of sum c_pi U_pi gives the text and the
    # term dicts of the numerator over z^n reduced by simplified(), and of
    # its division by delta
    def key(value):
        return str(value), sorted(value.num.terms.items()), sorted(value.den.terms.items())

    for w in _random_words(400, 1206):
        assert key(framed_homfly_of_closure(w)) == key(markov_trace_simplified(element_of_braid(w))), w
        assert key(normalized_homfly_of_closure(w)) == key(normalized_closure_by_delta(w)), w

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure reached simplified()")

    monkeypatch.setattr(RationalQT, "simplified", forbidden)
    for m, n in ((2, 3), (2, 5), (3, 4), (2, -3), (3, 2)):
        word = torus_braid_word(m, n)
        w, p = uncolored_homfly_torus_knot(m, n)
        assert framed_homfly_of_closure(word) == RationalQT(t_power(n * (m - 1))) * w
        assert normalized_homfly_of_closure(word) == p


def _key(value):
    return str(value), sorted(value.num.terms.items()), sorted(value.den.terms.items())


def _random_laurent(rng):
    """A few terms with q- and t-exponents and integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(-3, 3), rng.randint(-2, 2))] = rng.randint(-5, 5) * rng.randint(1, 4)
    return LaurentQT(terms)


def _random_element(rng, n):
    perms = list(permutations(range(n)))
    return HeckeElement(n, {pi: _random_laurent(rng) for pi in rng.sample(perms, min(len(perms), 5))})


def test_integer_fold_matches_laurent_oracle_on_long_conjugated_words():
    # 5-strand words g b g^-1 of 12-24 letters, longer than the words of
    # test_trace_reduction_matches_simplified_route, against the LaurentQT
    # fold reduced by simplified() and a division by delta
    rng = random.Random(1607)
    for _ in range(24):
        g = [(rng.randint(1, 4), rng.choice((1, -1))) for _ in range(rng.randint(4, 8))]
        b = [(rng.randint(1, 4), rng.choice((1, -1))) for _ in range(rng.randint(4, 8))]
        w = BraidWord(5, tuple(g + b + [(i, -s) for i, s in reversed(g)]))
        assert 12 <= len(w.letters) <= 24
        assert _key(normalized_homfly_of_closure(w)) == _key(normalized_closure_by_delta(w)), w
        assert _key(framed_homfly_of_closure(w)) == _key(markov_trace_simplified(element_of_braid_laurent(w))), w


def test_markov_trace_of_general_coefficients_matches_oracle():
    # coefficients with q- and t-exponents and integer coefficients
    rng = random.Random(1608)
    for _ in range(50):
        x = _random_element(rng, rng.randint(1, 4))
        assert _key(markov_trace(x)) == _key(markov_trace_simplified(x)), x
    assert markov_trace(HeckeElement(2, {})) == RationalQT(0)


def _in_q(c: dict) -> LaurentQT:
    return LaurentQT({(qe, 0): v for qe, v in c.items()})


def _packed(c: dict, size: int, offset: int) -> int:
    """{q-exponent: int} as the kernel's int: q^e in the size-byte slot e + offset."""
    return sum(v << (8 * size * (e + offset)) for e, v in c.items())


def _unpacked(x: int, size: int, offset: int) -> dict:
    return {k - offset: v for k, v in enumerate(_unpack(x, size)) if v}


def test_public_results_keep_laurent_coefficients():
    # the packed kernel against the LaurentQT generator on elements with
    # several q-terms per coefficient, in one-byte slots (the coefficients
    # stay under 64) and in eight-byte ones; it drops the terms that cancel,
    # and an int is 0 only for a zero coefficient, and it leaves its input
    # as it was
    rng = random.Random(1609)
    for _ in range(20):
        n = rng.randint(2, 4)
        perms = list(permutations(range(n)))
        terms = {
            pi: {rng.randint(-3, 3): rng.randint(1, 5) * rng.choice((1, -1)) for _ in range(rng.randint(1, 4))}
            for pi in rng.sample(perms, min(len(perms), 5))
        }
        i, sign = rng.randint(1, n - 1), rng.choice((1, -1))
        x = HeckeElement(n, {pi: _in_q(c) for pi, c in terms.items()})
        for size in (1, 8):
            # exponents >= -3, so slot 4 and up: the lowest slot is empty
            packed = {_code(pi): _packed(c, size, 4) for pi, c in terms.items()}
            before = dict(packed)
            y = _apply(_swaps(n)[0], packed, i - 1, sign, 8 * size)
            unpacked = {_perm(j, n): _unpacked(c, size, 4) for j, c in y.items()}
            expected = apply_generator_laurent(x, i, sign)
            assert HeckeElement(n, {pi: _in_q(c) for pi, c in unpacked.items()}) == expected
            assert all(y.values()) and all(unpacked.values())
            assert packed == before
    for w in _random_words(40, 1610):
        x = element_of_braid(w)
        assert x == element_of_braid_laurent(w), w
        assert all(isinstance(c, LaurentQT) for c in x.terms.values())


def test_codes_and_swaps_agree_with_tuple_swaps():
    # every permutation of at most 5 strands, and seeded samples on 9 and 17
    # strands, the first with 4- and 5-bit fields: a code decodes to its
    # permutation, distinct permutations have distinct codes, and every
    # entry of the swap memo, the reverse swaps it stores on the side
    # included, is the code of the swapped tuple and says whether the swap
    # lowers the length
    rng = random.Random(3301)
    samples = {n: list(permutations(range(n))) for n in range(1, 6)}
    samples.update({n: [tuple(rng.sample(range(n), n)) for _ in range(300)] for n in (9, 17)})
    try:
        for n, perms in samples.items():
            _swaps.cache_clear()
            memos, identity = _swaps(n)
            assert len(memos) == n - 1 and _perm(identity, n) == tuple(range(n))
            assert len({_code(pi) for pi in perms}) == len(set(perms)), n
            for pi in perms:
                assert _perm(_code(pi), n) == pi, pi
                for p, memo in enumerate(memos):
                    memo.get(_code(pi)) or _swap(memos, p, _code(pi))
            for p, memo in enumerate(memos):
                assert len(memo) >= len(set(perms)), (n, p)
                for code, (other, lowers) in memo.items():
                    pi = _perm(code, n)
                    assert other == _code(pi[:p] + (pi[p + 1], pi[p]) + pi[p + 2 :]), (pi, p)
                    assert lowers == (pi[p] > pi[p + 1]), (pi, p)
            if n <= 5:
                assert all(len(memo) == len(perms) for memo in memos), n
    finally:
        _swaps.cache_clear()


def test_a_fold_memoizes_only_the_permutations_it_reaches():
    # nothing enumerates S_n: from a fresh memo, an 8-strand word of L
    # letters leaves at most 2^(L+1) swap entries, not the 7 * 40320 of all
    # of S_8, and both closures still match the LaurentQT route
    words = [BraidWord.parse(8, "1 2 3 4 5 6 7 1 2 -3")]
    rng = random.Random(2804)
    words += [BraidWord(8, tuple((rng.randint(1, 7), rng.choice((1, -1))) for _ in range(8))) for _ in range(3)]
    try:
        for w in words:
            _swaps.cache_clear()
            element_of_braid(w)
            assert 1 < sum(map(len, _swaps(8)[0])) <= 2 ** (len(w.letters) + 1), w
    finally:
        _swaps.cache_clear()
    _assert_matches_laurent_route(words[0])


def test_threads_folding_at_once_agree_with_the_serial_fold():
    # four threads (more than the cores) fold words on 6 strands from fresh
    # swap memos with a short switch interval; an entry read half written,
    # or one thread's memo lost to another's, would change a value
    rng = random.Random(2806)
    words = [BraidWord(6, tuple((rng.randint(1, 5), rng.choice((1, -1))) for _ in range(14))) for _ in range(8)]
    expected = [element_of_braid(w) for w in words]
    interval, results, errors = sys.getswitchinterval(), {}, []

    def fold(k):
        try:
            for j in range(k, k + len(words)):
                results[k, j % len(words)] = element_of_braid(words[j % len(words)])
        except Exception as e:  # reported below: a thread's exception is lost otherwise
            errors.append(e)

    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            _swaps.cache_clear()
            threads = [threading.Thread(target=fold, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and not errors, errors
            assert all(results[k, j] == expected[j] for k in range(4) for j in range(len(words)))
    finally:
        sys.setswitchinterval(interval)
        _swaps.cache_clear()


def test_trace_perm_cache_entries_are_never_mutated():
    # the closures and markov_trace read the cached packed slices at the
    # sizes they choose; two folds over elements on these permutations,
    # with coefficient 1 among others, must leave every entry as it was
    word = BraidWord(4, ((1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (1, -1)))
    sizes = {_word_terms(word)[1], _slot_size(3 * 24, 4)}
    entries = {(pi, size): _trace_perm(4, _code(pi), size) for pi in permutations(range(4)) for size in sizes}
    before = copy.deepcopy(entries)
    assert set(element_of_braid(word).terms) == {(2, 3, 1, 0), (3, 2, 1, 0)}
    for _ in range(2):
        framed_homfly_of_closure(word)
        normalized_homfly_of_closure(word)
        markov_trace(HeckeElement(4, {pi: LaurentQT.monomial(3, 2, 1) for pi, _ in entries}))
    assert all(_trace_perm(4, _code(pi), size) is entry for (pi, size), entry in entries.items())
    assert entries == before


def _assert_matches_laurent_route(w):
    assert _key(normalized_homfly_of_closure(w)) == _key(normalized_closure_by_delta(w)), w
    x = element_of_braid_laurent(w)
    assert _key(framed_homfly_of_closure(w)) == _key(markov_trace_simplified(x)), w
    assert element_of_braid(w) == x, w


def test_packed_fold_at_the_letter_cap():
    # words of BraidWord.MAX_LETTERS letters take the widest slots; sigma_1^-k
    # reaches q^-(k-1) before its last letter, which then stays, so the
    # lowest slot is read by the right shift of z * c
    for sign in (1, -1):
        _assert_matches_laurent_route(BraidWord.parse(2, f"s1^{sign * BraidWord.MAX_LETTERS}"))
    rng = random.Random(6448)
    for _ in range(6):
        n = rng.randint(3, 4)
        length = rng.randint(48, BraidWord.MAX_LETTERS)
        _assert_matches_laurent_route(
            BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))
        )


def test_packed_fold_on_six_strands():
    rng = random.Random(6006)
    for _ in range(4):
        length = rng.randint(12, 20)
        letters = tuple((rng.randint(1, 5), rng.choice((1, -1))) for _ in range(length))
        _assert_matches_laurent_route(BraidWord(6, letters))


def test_trace_perm_within_its_proved_bounds():
    # every U_pi on at most 6 strands: q-exponents within +-n(n-1)/2 and l1
    # within 2^(n-1) 3^((n-1)(n-2)/2), the bounds the slot sizes rest on,
    # and the same polynomial at two slot sizes.  z^(n-c), c the cycles of
    # pi, divides U_pi, and the quotient's l1 times 2^(n-c) keeps the bound
    for n in range(1, 7):
        offset, bound = n * (n - 1) // 2, 2 ** (n - 1) * 3 ** ((n - 1) * (n - 2) // 2)
        for pi in permutations(range(n)):
            slices = [_trace_perm(n, _code(pi), size) for size in (8, 16)]
            u8, u16 = ({te: _unpacked(x, size, offset) for te, x in u.items()} for u, size in zip(slices, (8, 16)))
            assert u8 == u16 and all(u8.values()), pi
            assert all(abs(e) <= offset for s in u8.values() for e in s), pi
            assert sum(abs(v) for s in u8.values() for v in s.values()) <= bound, pi
            j = n - perm_cycle_count(pi)
            quotients = [_udiv(s, _brackets({1: j})) for s in u8.values()]
            assert None not in quotients, pi
            assert sum(abs(v) for s in quotients for v in s.values()) << j <= bound, pi


def test_markov_trace_at_the_slot_bound():
    # coefficients +-(2^b - 1) at large negative and positive q-exponents:
    # on one strand the framed value's coefficients are +-(2^b - 1), within
    # two bits of the bound that sizes the slots, so over every b a slot one
    # byte narrower than _slot_size overflows somewhere
    for b in range(1, 140):
        c = (1 << b) - 1
        for n, pi in ((1, (0,)), (2, (1, 0)), (3, (2, 0, 1))):
            x = HeckeElement(n, {pi: LaurentQT({(-40 - b, 3): c, (b, -1): -c})})
            assert _key(markov_trace(x)) == _key(markov_trace_simplified(x)), (b, n)
    x = HeckeElement(1, {(0,): LaurentQT.monomial(-((1 << 127) - 1), -300, 0)})
    assert _key(markov_trace(x)) == _key(markov_trace_simplified(x))


def test_oracle_agreement_on_five_and_six_strands():
    for m, n in ((5, 6), (5, 7), (6, 7)):
        w, _ = uncolored_homfly_torus_knot(m, n)
        assert framed_homfly_of_closure(torus_braid_word(m, n)) == RationalQT(t_power(n * (m - 1))) * w, (m, n)


# -- closures divided by z^(n - L) ------------------------------------------


def _components(w: BraidWord) -> int:
    perm = list(range(w.strands))
    for i, _ in w.letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return perm_cycle_count(perm)


def _words_by_components(rng, n: int, count: int):
    """count words on n strands for each L = 1..n whose closure has L
    components: s_1 ... s_(n-L) (one (n-L+1)-cycle), squares s_i^+-2 put in
    at random, all conjugated by a random word."""
    for L in range(1, n + 1):
        for _ in range(count):
            base = [(i, 1) for i in range(1, n - L + 1)]
            for _ in range(rng.randint(0, 2) if n > 1 else 0):
                i, s = rng.randint(1, n - 1), rng.choice((1, -1))
                j = rng.randint(0, len(base))
                base[j:j] = [(i, s)] * 2
            g = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 3) if n > 1 else 0)]
            w = BraidWord(n, tuple(g + base + [(i, -s) for i, s in reversed(g)]))
            assert _components(w) == L, w
            yield w


def test_closures_with_every_component_count_match_the_oracles():
    # both closures divide z^(n - L) out of the packed sum before it is cut
    # up; on 1-6 strands, with L from one component to n (s1^2 s2^2 has
    # three on three strands), text and term dicts are those of the LaurentQT
    # fold over z^n reduced by simplified(), and of its division by delta
    rng = random.Random(2701)
    seen = set()
    words = [BraidWord(3, ((1, 1), (1, 1), (2, 1), (2, 1))), BraidWord(6, tuple((i, 1) for i in range(1, 6)))]
    for n in range(1, 7):
        words += _words_by_components(rng, n, 3 if n < 5 else 2)
    for w in words:
        seen.add((w.strands, _components(w)))
        _assert_matches_laurent_route(w)
    assert seen == {(n, L) for n in range(1, 7) for L in range(1, n + 1)}


def test_closure_quotients_fit_the_slots_of_the_sum(monkeypatch):
    # a closure's quotient by z^k, k = n - L, times the l1 norm 2^k of z^k
    # stays within the bound 2 * 3^letters * 2^(n-1) 3^((n-1)(n-2)/2) that
    # _slot_size gives the sum, and the slot holds that bound with a sign
    # bit.  Over these lengths the bound falls in the top byte of some
    # slot, so a slot one byte narrower misses it
    import skein_homfly.hecke as hecke_mod

    packed_div, calls = hecke_mod._packed_div, []

    def recorded(x, c, l1, size):
        out = packed_div(x, c, l1, size)
        calls.append((max(map(abs, out)) * l1, l1.bit_length() - 1, size))
        return out

    monkeypatch.setattr(hecke_mod, "_packed_div", recorded)
    rng = random.Random(2702)
    words = [
        BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))
        for n in range(2, 7)
        for length in range(0, BraidWord.MAX_LETTERS + 1, 3)
    ]
    words += [BraidWord(n, ((1, s),) * BraidWord.MAX_LETTERS) for n in (2, 3, 6) for s in (1, -1)]
    for w in words:
        n = w.strands
        bound = 2 * 3 ** len(w.letters) * 2 ** (n - 1) * 3 ** ((n - 1) * (n - 2) // 2)
        for closure in (framed_homfly_of_closure, normalized_homfly_of_closure):
            calls.clear()
            closure(w)
            assert calls and all(k == n - _components(w) for _, k, _ in calls), w
            assert all(top <= bound < 1 << (8 * size - 1) for top, _, size in calls), w


def test_closure_that_z_does_not_divide_is_an_error(monkeypatch):
    # the division is exact by the theorem; a sum it does not divide is an
    # ArithmeticError, not a value over the wrong power of z
    import skein_homfly.hecke as hecke_mod

    monkeypatch.setattr(hecke_mod, "perm_cycle_count", lambda perm: 1)
    with pytest.raises(ArithmeticError, match="^z\\^1 does not divide the closure of "):
        normalized_homfly_of_closure(BraidWord(2, ()))

