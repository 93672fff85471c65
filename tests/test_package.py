import copy
import inspect
import pickle

import pytest

import skein_homfly
import skein_homfly as sk


def test_all_resolves_and_star_import_binds_exactly_all():
    names = skein_homfly.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(skein_homfly, name)]
    assert not missing
    namespace = {}
    exec("from skein_homfly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


def _one_value_of_every_public_type() -> dict:
    P = sk.Partition
    spec = sk.TorusLinkSpec(2, 3, 1, (P((2, 1)),))
    braid = sk.torus_braid_word(2, 3)
    return {
        "BraidWord": braid,
        "CharacterTable": sk.character_table(4),
        "ColoredInvariant": sk.colored_homfly(spec),
        "GridConfig": sk.GridConfig(),
        "HeckeElement": sk.element_of_braid(braid),
        "LaurentQT": sk.alexander_torus(2, 3, 2),
        "Partition": P((2, 1)),
        "PartitionVector": spec.colors,
        "RationalQT": sk.unknot_value(P((2, 1))),
        "SchurExpansion": sk.plethysm_coefficients(2, (P((2,)),)),
        "SpecialPolynomial": sk.special_delta(spec),
        "TorusLinkSpec": spec,
        "TruncSeries": sk.truncated_series(sk.q_bracket(2), "q", 2),
        "VerificationReport": sk.run_theorem("thm64", sk.GridConfig(knots=((2, 3),), hook_max=2)),
    }


VALUES = _one_value_of_every_public_type()
COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_public_type_has_a_value_below():
    types = {name for name in sk.__all__ if inspect.isclass(getattr(sk, name))}
    assert types == set(VALUES)
    assert all(type(VALUES[name]) is getattr(sk, name) for name in types)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_pickle_and_copy(name, how):
    # the slotted exact types rebuild through their checking constructors
    value = VALUES[name]
    again = COPIES[how](value)
    assert type(again) is type(value)
    assert again == value and str(again) == str(value)
