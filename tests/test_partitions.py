import copy
import os
import pickle
import random
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import given, strategies as st

import skein_homfly
import skein_homfly.partitions as partitions_module
from skein_homfly.characters import character, hook_character_identity
from skein_homfly.partitions import EMPTY, Partition, PartitionVector, integer, partitions_of, partitions_within
from skein_homfly.schur import plethysm_coefficients, unknot_value
from skein_homfly.torus import TorusLinkSpec, _torus_value, colored_homfly


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    candidates = partitions_of(n)
    return candidates[draw(st.integers(min_value=0, max_value=len(candidates) - 1))]


def test_basic_statistics():
    lam = Partition((2, 1, 1))
    assert lam.size == 4 and len(lam) == 3 and lam.count(1) == 2
    assert len(EMPTY) == 0 and EMPTY.size == 0


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
        assert lam.conjugate()[0] == len(lam)


def test_enumeration_order_and_counts():
    assert partitions_of(0) == (EMPTY,)
    four = [tuple(p) for p in partitions_of(4)]
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


def _durfee_size(mu):
    return sum(1 for i, p in enumerate(mu) if p > i)


def test_partitions_within_lists_the_bounded_partitions_in_order():
    for n in range(21):
        full = partitions_of(n)
        assert tuple(partitions_within(n)) == full
        for bound in range(6):
            by_durfee = [mu for mu in full if _durfee_size(mu) <= bound]
            by_parts = [mu for mu in full if len(mu) <= bound]
            assert list(partitions_within(n, durfee=bound)) == by_durfee, (n, bound)
            assert list(partitions_within(n, parts=bound)) == by_parts, (n, bound)
            both = [mu for mu in by_durfee if len(mu) <= bound + 1]
            assert list(partitions_within(n, durfee=bound, parts=bound + 1)) == both, (n, bound)
    assert all(type(mu) is Partition for mu in partitions_within(12, durfee=2))
    assert list(partitions_within(0, durfee=0, parts=0)) == [EMPTY]
    assert list(partitions_within(5, durfee=0)) == list(partitions_within(5, parts=0)) == []
    with pytest.raises(ValueError, match="n must be >= 0"):
        list(partitions_within(-1, durfee=1))


def test_partitions_within_never_lists_all_partitions_of_n():
    # p(200) is about 4e12: the 200 hooks and the 101 partitions with at
    # most two parts are listed without passing through the others
    hooks = list(partitions_within(200, durfee=1))
    assert len(hooks) == 200 and hooks[0] == (200,) and hooks[-1] == (1,) * 200
    assert all(mu[1:] == (1,) * (len(mu) - 1) for mu in hooks)
    assert len(list(partitions_within(200, parts=2))) == 101


def test_class_equation():
    for n in range(1, 11):
        assert sum(factorial(n) // lam.z_factor() for lam in partitions_of(n)) == factorial(n)


def test_text_forms():
    assert str(Partition((3, 1, 1))) == "(3,1,1)"
    assert str(EMPTY) == "[]"
    assert Partition.parse("(3,1,1)") == Partition((3, 1, 1))
    assert Partition.parse("[]") == EMPTY
    assert Partition.parse("()") == EMPTY
    assert Partition.parse(" ( 3 , 1 ) ") == Partition((3, 1))
    # whitespace inside the empty partition's brackets, as inside a part list
    for text in ("[ ]", "[  ]", "( )", " [\t] "):
        assert Partition.parse(text) == EMPTY, text
    # one rule for both delimiters: a bracketed body parses as in ( )
    assert Partition.parse("[3,1]") == Partition((3, 1))
    assert Partition.parse(" [ 3 , 1 , 1 ] ") == Partition((3, 1, 1))
    assert Partition.parse("3,1") == Partition((3, 1))
    # a delimiter without its partner names the partition form
    for text in ("(3,1]", "[3,1)", "(3,1", "3,1]", "(", "]"):
        with pytest.raises(ValueError, match=r"unmatched brackets in partition .*: write it as \(3,1,1\)"):
            Partition.parse(text)
    # only one pair of delimiters is read: brackets inside it name the form
    for text in ("((3,1))", "[(3,1)]", "([3,1])", "(())", "3,(1),1"):
        with pytest.raises(ValueError, match=r"only one pair of \( \) or \[ \] is read; write it as \(3,1,1\)"):
            Partition.parse(text)


def test_blank_partition_text_is_rejected():
    # the empty partition is written [] or (); blank text is a typo, not it
    for text in ("", "  ", "\t"):
        with pytest.raises(ValueError, match=r"blank partition .*\[\] or \(\)"):
            Partition.parse(text)
    for text in ("(1);", ";(2)", "(1);;(2)", ";"):
        with pytest.raises(ValueError, match="blank partition"):
            PartitionVector.parse(text)
    assert PartitionVector.parse("(1);[]") == PartitionVector((Partition((1,)), EMPTY))
    assert PartitionVector.parse("();(2)") == PartitionVector((EMPTY, Partition((2,))))


# int() reads each of these, and each spells a different number than its
# ASCII look, or none: a separator, a sign, Arabic-Indic and fullwidth digits
NOT_ASCII_DIGITS = ("1_0", "+1", "\u0663", "\uff11", "-\u0663", "1\u0660")


def test_numerals_are_ascii_digits_only():
    assert integer(" 12 ") == 12 and integer("-3") == -3
    assert integer("7", signed=False) == 7
    for token in NOT_ASCII_DIGITS + ("", "-", "--1", "1.0", "0x1"):
        with pytest.raises(ValueError, match="invalid integer"):
            integer(token)
    with pytest.raises(ValueError, match="invalid integer"):
        integer("-3", signed=False)
    for token in NOT_ASCII_DIGITS + ("-1",):
        with pytest.raises(ValueError, match="invalid integer"):
            Partition.parse(f"({token})")
        with pytest.raises(ValueError, match="invalid integer"):
            PartitionVector.parse(f"(2);(1,{token})")


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


def test_vector_is_the_tuple_of_its_components():
    v = PartitionVector.parse("(2);(1)")
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


#: entry points that take partitions, each given its partitions through P
ENTRY_CALLS = """
from skein_homfly import *
for value in (
    colored_homfly(TorusLinkSpec(2, 3, 1, (P((2,)),))).value,
    colored_homfly(TorusLinkSpec(1, 2, 2, (P((2,)), P((1, 1))))).value,
    colored_homfly(TorusLinkSpec(1, 0, 1, (P((2, 1)),))).value,
    unknot_value(P((2, 1))),
    plethysm_coefficients(2, (P((1,)),)),
    character(P((2, 1)), P((1, 1, 1))),
    hook_character_identity(P((2, 1))),
):
    print(value)
"""


def _fresh_process(prelude: str) -> str:
    """Stdout of ENTRY_CALLS in a new interpreter, whose caches hold no
    equal Partition that a plain tuple could hit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(skein_homfly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", prelude + ENTRY_CALLS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_plain_tuples_give_the_partition_values_in_a_fresh_process():
    from_partitions = _fresh_process("from skein_homfly import Partition as P\n")
    assert _fresh_process("P = tuple\n") == from_partitions
    assert len(from_partitions.splitlines()) == 8


def test_plain_tuples_are_checked_as_partitions():
    v = PartitionVector(((2, 1), (1,)))
    assert all(type(c) is Partition for c in v)
    spec = TorusLinkSpec(2, 3, 1, ((2, 1),))
    assert type(spec.colors) is PartitionVector and type(spec.colors[0]) is Partition
    assert TorusLinkSpec(2, 3, 1, ((3, 1),)).conjugate_colors().colors == ((2, 1, 1),)
    assert TorusLinkSpec(1, 0, 2, ((2,), (1,))).conjugate_colors().colors == ((1, 1), (1,))
    rising = r"^parts not weakly decreasing: \(1, 2\)$"
    for call in (
        lambda: PartitionVector(((1, 2),)),
        lambda: TorusLinkSpec(2, 3, 1, ((1, 2),)),
        lambda: unknot_value((1, 2)),
        lambda: plethysm_coefficients(2, ((1, 2),)),
        lambda: character((1, 2), (2, 1)),
        lambda: hook_character_identity((1, 2)),
    ):
        with pytest.raises(ValueError, match=rising):
            call()


def test_a_partition_passes_through_unchanged():
    p = Partition((2, 1))
    assert Partition(p) is p
    assert PartitionVector((p,))[0] is p
