import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from skein_homfly.partitions import EMPTY, Partition, PartitionVector, partitions_of


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    candidates = partitions_of(n)
    return candidates[draw(st.integers(min_value=0, max_value=len(candidates) - 1))]


def test_basic_statistics():
    lam = Partition((2, 1, 1))
    assert lam.size == 4
    assert lam.length == 3
    assert lam.multiplicity(1) == 2
    assert EMPTY.length == 0 and EMPTY.size == 0


def test_z_factor_values():
    assert Partition((1,) * 5).z_factor() == factorial(5)
    assert Partition((2, 1, 1)).z_factor() == 4
    assert Partition((3,)).z_factor() == 3


def test_k_invariant_values():
    assert Partition((1,)).k_invariant() == 0
    assert Partition((2,)).k_invariant() == 2
    assert Partition((1, 1)).k_invariant() == -2


def test_k_invariant_even_on_random_sample():
    rng = random.Random(0)
    pool = [p for n in range(1, 13) for p in partitions_of(n)]
    for lam in rng.sample(pool, 200):
        assert lam.k_invariant() % 2 == 0


def test_conjugation():
    assert Partition((2, 2)).conjugate() == Partition((2, 2))
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert EMPTY.conjugate() == EMPTY


@given(partitions())
def test_conjugate_involution_and_duality(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size
    assert lam.k_invariant() + lam.conjugate().k_invariant() == 0
    if lam:
        assert lam.conjugate()[0] == lam.length


def test_enumeration_order_and_counts():
    assert partitions_of(0) == (EMPTY,)
    four = [p.parts for p in partitions_of(4)]
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(10)) == 42


def _partition_count_oracle(n):
    # Euler's pentagonal recurrence
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def test_enumeration_against_recurrence():
    for n in range(0, 16):
        assert len(partitions_of(n)) == _partition_count_oracle(n)


def test_class_equation():
    for n in range(1, 11):
        assert sum(factorial(n) // lam.z_factor() for lam in partitions_of(n)) == factorial(n)


def test_text_forms():
    assert str(Partition((3, 1, 1))) == "(3,1,1)"
    assert str(EMPTY) == "[]"
    assert Partition.parse("(3,1,1)") == Partition((3, 1, 1))
    assert Partition.parse("[]") == EMPTY
    assert Partition.parse("()") == EMPTY


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    # a non-integral part is rejected, not truncated
    with pytest.raises(TypeError):
        Partition((2.7, 1))


def test_partition_vector():
    vec = PartitionVector.parse("(2);(1,1)")
    assert str(vec) == "(2);(1,1)"
    assert vec.conjugate() == PartitionVector((Partition((1, 1)), Partition((2,))))
    with pytest.raises(ValueError):
        PartitionVector(())
