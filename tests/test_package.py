import skein_homfly


def test_all_resolves_and_star_import_binds_exactly_all():
    names = skein_homfly.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(skein_homfly, name)]
    assert not missing
    namespace = {}
    exec("from skein_homfly import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
