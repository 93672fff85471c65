import time
from fractions import Fraction

import pytest

from skein_homfly import characters
from skein_homfly.characters import (
    CharacterTable,
    character,
    character_table,
    hook_character_identity,
)
from skein_homfly.errors import BoundExceeded, SizeMismatch
from skein_homfly.exact import LaurentQT, _exact_div, q_bracket
from skein_homfly.partitions import Partition, partitions_of

from oracles import (
    _poly_mul_multi,
    character_reference,
    dimension,
    jacobi_trudi_schur,
    power_sum_poly,
    verify_orthogonality,
)

P = Partition


def test_trivial_representation_rows():
    for d in range(1, 7):
        for mu in partitions_of(d):
            assert character(P((d,)), mu) == 1


def test_hook_values_on_long_cycle():
    for d in range(1, 7):
        cycle = P((d,))
        for lam in partitions_of(d):
            # chi_lam on the long cycle is (-1)^b for the hook (a+1, 1^b), else 0
            hook = all(x == 1 for x in lam[1:])
            expected = (-1) ** (len(lam) - 1) if hook else 0
            assert character(lam, cycle) == expected


def test_known_small_values():
    assert character(P((2, 1)), P((3,))) == -1
    assert character(P((2, 1)), P((1, 1, 1))) == 2
    assert character(P((2, 2)), P((2, 2))) == 2
    assert character(P((3, 1)), P((2, 2))) == -1


def test_kernel_matches_tuple_recursion():
    # the bitmask kernel against the tuple beta-set recursion it replaced,
    # on every pair of partitions of n <= 12 and the empty pair
    assert character(P(()), P(())) == character_reference((), ()) == 1
    start = time.perf_counter()
    for n in range(1, 13):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert character(lam, mu) == character_reference(lam, mu), (lam, mu)
    assert time.perf_counter() - start < 5.0


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        character(P((2,)), P((3,)))


def _schur_expand_symmetric(poly, nvars):
    """Greedy expansion of a symmetric polynomial on the Schur basis."""
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        shape = tuple(sorted((e for e in lead if e), reverse=True))
        coeff = work[lead]
        lam = P(shape)
        out[lam] = out.get(lam, 0) + coeff
        for e, c in jacobi_trudi_schur(lam, nvars).items():
            s = work.get(e, 0) - coeff * c
            if s == 0:
                work.pop(e, None)
            else:
                work[e] = s
    return {k: v for k, v in out.items() if v}


def test_characters_against_power_sum_expansion():
    # independent oracle: expand p_mu in the Schur basis by brute force
    for n in range(1, 5):
        for mu in partitions_of(n):
            poly = {(0,) * n: 1}
            for part in mu:
                poly = _poly_mul_multi(poly, power_sum_poly(part, n))
            expansion = _schur_expand_symmetric(poly, n)
            for lam in partitions_of(n):
                assert expansion.get(lam, 0) == character(lam, mu)


def test_frobenius_reconstructs_schur_polynomials():
    # s_lambda = sum_mu chi_lambda(mu)/z_mu * p_mu as monomial polynomials
    for n in range(1, 5):
        for lam in partitions_of(n):
            acc = {}
            for mu in partitions_of(n):
                chi = character(lam, mu)
                if not chi:
                    continue
                poly = {(0,) * n: Fraction(chi, mu.z_factor())}
                for part in mu:
                    poly = _poly_mul_multi(poly, power_sum_poly(part, n))
                for e, c in poly.items():
                    s = acc.get(e, 0) + c
                    if s == 0:
                        acc.pop(e, None)
                    else:
                        acc[e] = s
            expected = jacobi_trudi_schur(lam, n)
            assert {e: Fraction(c) for e, c in expected.items()} == acc


def test_dimension_hook_length_oracle():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert character(lam, P((1,) * n)) == dimension(lam)


def test_transpose_sign_duality():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                sign = -1 if (mu.size - len(mu)) % 2 else 1
                assert character(lam.conjugate(), mu) == sign * character(lam, mu)


def test_table_small():
    table = character_table(2)
    assert [table.row(lam) for lam in table.index] == [[1, 1], [-1, 1]]
    assert table.index == (P((2,)), P((1, 1)))
    t5 = character_table(5)
    assert t5.row(P((5,))) == [1] * 7


def test_table_bound(monkeypatch):
    monkeypatch.setenv("SKEIN_HOMFLY_MAX_N", "6")
    with pytest.raises(BoundExceeded):
        character_table(7)
    monkeypatch.delenv("SKEIN_HOMFLY_MAX_N")


def test_orthogonality_exact():
    start = time.perf_counter()
    for n in range(1, 9):
        assert verify_orthogonality(n)
    assert time.perf_counter() - start < 5.0


def test_orthogonality_negative_control():
    table = character_table(4)
    corrupted = dict(table.values)
    corrupted[(P((2, 2)), P((2, 2)))] += 1
    bad = CharacterTable(4, table.index, corrupted)
    assert not verify_orthogonality(4, bad)


def test_hook_character_identity_single_box():
    assert hook_character_identity(P((1,)))


def test_hook_character_identity_two():
    # both sides equal u + u^-1 for the 2-cycle class
    lhs = LaurentQT.zero()
    for a, b in ((1, 0), (0, 1)):
        hook = P((a + 1,) + (1,) * b)
        lhs = lhs + LaurentQT.monomial((-1) ** b * character(hook, P((2,))), a - b, 0)
    rhs = _exact_div(q_bracket(2), q_bracket(1))
    assert lhs == rhs
    assert hook_character_identity(P((2,)))


def test_hook_character_identity_exhaustive():
    for d in range(1, 9):
        for b in partitions_of(d):
            assert hook_character_identity(b)


def test_hook_character_identity_sees_one_flipped_sign(monkeypatch):
    # the identity reads each hook character once from the bitmask kernel:
    # one wrong sign breaks it
    true, wrong = characters._char, characters._beta_mask((2, 1, 1))

    def flipped(mask, mu):
        chi = true(mask, mu)
        return -chi if mask == wrong else chi

    monkeypatch.setattr(characters, "_char", flipped)
    assert not hook_character_identity(P((2, 2)))
    assert not hook_character_identity(P((1, 1, 1, 1)))
    assert hook_character_identity(P((3,)))


def test_twisted_orthogonality_with_fractional_powers():
    # sum_mu chi_mu(mB) chi_mu((md)) q^((n/m) k_mu)
    #   = prod_j (q^(mnd B_j) - q^(-mnd B_j)) / (q^(nd) - q^(-nd))
    for m, n in ((2, 3), (3, 2), (2, 5)):
        for d in range(1, 9):
            if m * d > 8:
                continue
            for b in partitions_of(d):
                mb = P(tuple(m * p for p in b))
                md = P((m * d,))
                lhs = LaurentQT.zero()
                for mu in partitions_of(m * d):
                    c = character(mu, mb) * character(mu, md)
                    if c:
                        lhs = lhs + LaurentQT.monomial(c, Fraction(n * mu.k_invariant(), m), 0)
                rhs_num = LaurentQT.one()
                for part in b:
                    rhs_num = rhs_num * q_bracket(m * n * d * part)
                rhs = _exact_div(rhs_num, q_bracket(n * d))
                assert rhs is not None
                assert lhs == rhs, (m, n, b)
