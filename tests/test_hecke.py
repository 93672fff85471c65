import random

import pytest

from skein_homfly.errors import IndexOutOfRange
from skein_homfly.exact import LaurentQT, RationalQT, delta, q_bracket, substitute, t_power
from skein_homfly.hecke import (
    BraidWord,
    HeckeElement,
    all_permutations,
    apply_generator,
    element_of_braid,
    framed_homfly_of_closure,
    markov_trace,
    normalized_homfly_of_closure,
    perm_cycle_type,
    perm_length,
    torus_braid_word,
)
from skein_homfly.partitions import Partition
from skein_homfly.torus import uncolored_homfly_torus_knot

from oracles import (
    hecke_multiply,
    hecke_scaled,
    idempotent_scalars,
    negative_symmetrizer,
    positive_symmetrizer,
    reduced_word,
)

P = Partition
Z = q_bracket(1)

TREFOIL_P = RationalQT(LaurentQT({(2, -2): 1, (-2, -2): 1, (0, -4): -1}))


def test_reduced_words_replay():
    for n in (2, 3, 4):
        for pi in all_permutations(n):
            x = HeckeElement.identity(n)
            for i in reduced_word(pi):
                x = apply_generator(x, i, 1)
            assert x == HeckeElement.basis(pi)
            assert len(reduced_word(pi)) == perm_length(pi)


def test_generator_raises_length():
    assert apply_generator(HeckeElement.identity(2), 1, 1) == HeckeElement.basis((1, 0))


def test_generator_quadratic_relation():
    x = apply_generator(HeckeElement.basis((1, 0)), 1, 1)
    assert x == HeckeElement(2, {(1, 0): Z, (0, 1): LaurentQT.one()})


def test_generator_inverse():
    assert apply_generator(HeckeElement.basis((1, 0)), 1, -1) == HeckeElement.identity(2)


def test_generator_index_checked():
    with pytest.raises(IndexOutOfRange):
        apply_generator(HeckeElement.identity(2), 2, 1)


def test_empty_word_is_identity():
    assert element_of_braid(BraidWord(3, ())) == HeckeElement.identity(3)


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
    assert markov_trace(HeckeElement.identity(2)) == delta() * delta()
    assert markov_trace(HeckeElement.basis((1, 0))) == delta() * RationalQT(t_power(1))
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
            assert apply_generator(a, i, 1) == hecke_scaled(a, q_mono), (m, i)


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


def test_permutation_helpers():
    assert perm_length((2, 1, 0)) == 3
    assert perm_cycle_type((1, 0, 2)) == P((2, 1))
    assert perm_cycle_type((1, 2, 0)) == P((3,))
