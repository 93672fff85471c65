import copy
import pickle
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

import skein_homfly.partitions as partitions_module
from skein_homfly.partitions import EMPTY, Partition, PartitionVector, partitions_of
from skein_homfly.torus import TorusLinkSpec, _torus_value, colored_homfly


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


def test_partition_is_the_tuple_of_its_parts():
    p = Partition((2, 1))
    assert p == (2, 1) and (2, 1) == p and hash(p) == hash((2, 1))
    assert Partition((1,)) == (1,) and EMPTY == ()
    assert {p: "x"}[(2, 1)] == "x"
    # orders like tuples, mixed with plain tuples too
    assert Partition((2, 1)) < Partition((2, 2)) < (3,)
    assert sorted([Partition((1, 1)), (2,), Partition((1,))]) == [(1,), (1, 1), (2,)]
    assert isinstance(p, tuple) and repr(p) == "Partition((2, 1))"


def test_parts_and_components_return_the_object():
    p = Partition((3, 1))
    v = PartitionVector.parse("(2);(1)")
    assert p.parts is p
    assert v.components is v
    assert v == (Partition((2,)), Partition((1,))) and v == ((2,), (1,))
    assert repr(v) == "PartitionVector((Partition((2,)), Partition((1,))))"


@pytest.mark.parametrize("name", ["parts", "components", "size", "x"])
def test_attributes_cannot_be_set(name):
    for obj in (Partition((2, 1)), PartitionVector.parse("(2);(1)")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())


@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_keep_the_class_and_rerun_the_checks(clone, monkeypatch):
    p, v = Partition((2, 1)), PartitionVector.parse("(2);(1,1)")
    seen = []
    monkeypatch.setattr(partitions_module, "index", lambda x: seen.append(x) or x)
    q, w = clone(p), clone(v)
    assert type(q) is Partition and q == p
    assert type(w) is PartitionVector and w == v and all(type(c) is Partition for c in w)
    # every part went through the constructor's checks again
    assert seen == [2, 1, 2, 1, 1]


def test_tampered_pickle_is_checked():
    raw = pickle.dumps(Partition((2, 1)))
    assert b"K\x02K\x01" in raw
    with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 2\)$"):
        pickle.loads(raw.replace(b"K\x02K\x01", b"K\x01K\x02"))


@pytest.mark.parametrize(
    "parts, error, message",
    [
        ((1, 2), ValueError, "parts not weakly decreasing: (1, 2)"),
        ((2, 0), ValueError, "parts must be positive: (2, 0)"),
        ((-1,), ValueError, "parts must be positive: (-1,)"),
        ((2, 1.0), TypeError, "'float' object cannot be interpreted as an integer"),
    ],
)
def test_invalid_parts_keep_their_messages(parts, error, message):
    with pytest.raises(error) as info:
        Partition(parts)
    assert str(info.value) == message


def test_empty_partition_vector_rejected():
    for empty in ((), iter(()), []):
        with pytest.raises(ValueError, match="^a partition vector has at least one component$"):
            PartitionVector(empty)


def test_vector_and_tuple_colors_share_one_torus_value():
    # T(1, 29) with colors (2);(1) is computed nowhere else in the suite
    before = _torus_value.cache_info().misses
    from_vector = TorusLinkSpec(1, 29, 2, PartitionVector.parse("(2);(1)"))
    from_tuple = TorusLinkSpec(1, 29, 2, (Partition((2,)), Partition((1,))))
    assert from_vector == from_tuple and hash(from_vector) == hash(from_tuple)
    assert colored_homfly(from_vector).value == colored_homfly(from_tuple).value
    assert _torus_value(1, 29, PartitionVector.parse("(2);(1)")) is colored_homfly(from_tuple).value
    assert _torus_value.cache_info().misses == before + 1
