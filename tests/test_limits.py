from types import SimpleNamespace

import pytest
from oracles import compose_q_power, special_H_full_route

from skein_homfly.errors import LimitDoesNotExist, NonCoprime
from skein_homfly.exact import LaurentQT, RationalQT, limit_at_one, q_bracket
from skein_homfly.partitions import Partition, partitions_of
from skein_homfly.schur import unknot_value
from skein_homfly.special import (
    SpecialPolynomial,
    alexander_torus,
    delta_basis,
    format_delta_basis,
    special_H,
    special_delta,
)
from skein_homfly.torus import TorusLinkSpec, colored_homfly

P = Partition

TREFOIL = TorusLinkSpec(2, 3, 1, (P((1,)),))
H1_TREFOIL = LaurentQT({(0, -2): 2, (0, -4): -1})


def test_H_single_box_trefoil():
    result = special_H(TREFOIL)
    assert isinstance(result, SpecialPolynomial)
    assert result.kind == "H" and result.variable == "t"
    assert result.value == H1_TREFOIL


def test_H_odd_family_single_box():
    for k in (1, 2, 3):
        spec = TorusLinkSpec(2, 2 * k + 1, 1, (P((1,)),))
        assert special_H(spec).value == LaurentQT({(0, -2 * k): k + 1, (0, -2 * k - 2): -k})


def test_H_two_box_is_square():
    spec = TorusLinkSpec(2, 3, 1, (P((2,)),))
    assert special_H(spec).value == H1_TREFOIL * H1_TREFOIL


def test_H_unknot_is_one():
    for lam in (P((1,)), P((2, 1)), P((3, 2))):
        assert special_H(TorusLinkSpec(1, 0, 1, (lam,))).value == LaurentQT.one()


def test_special_polynomials_are_one_on_unlinks():
    # T(1*L, 0) is the L-component unlink: both limits are exactly 1
    colors = [P((1,)), P((2,)), P((1, 1)), P((2, 1))]
    vectors = [(a, b) for a in colors for b in colors]
    vectors += [(P((1,)), P((2,)), P((1, 1))), (P((2, 1)), P((3, 2)), P((2, 2)))]
    for vec in vectors:
        spec = TorusLinkSpec(1, 0, len(vec), vec)
        assert special_H(spec).value.terms == {(0, 0): 1}, str(spec)
        assert special_delta(spec).value.terms == {(0, 0): 1}, str(spec)


def test_H_of_single_box_links_is_one():
    for k in (1, 2, 3):
        spec = TorusLinkSpec(1, k, 2, (P((1,)), P((1,))))
        assert special_H(spec).value == LaurentQT.one()


def test_H_of_multistrand_links_splits_over_components():
    # both components of the 2-component (2,3)-cable are single-box trefoils
    spec = TorusLinkSpec(2, 3, 2, (P((1,)), P((1,))))
    assert special_H(spec).value == H1_TREFOIL * H1_TREFOIL
    # mixed color sizes weight each component by its box count
    spec = TorusLinkSpec(3, 2, 2, (P((2,)), P((1,))))
    assert special_H(spec).value == H1_TREFOIL ** 3


def _outcome(route, spec):
    try:
        value = route(spec)
    except LimitDoesNotExist:
        return "LimitDoesNotExist"
    return str(value), value.terms


def _H_differential_specs():
    small = [P(())] + [a for d in (1, 2, 3) for a in partitions_of(d)]
    specs = [
        TorusLinkSpec(m, n, 1, (a,))
        for m, n in ((2, 3), (3, 2), (2, -3), (1, 3), (2, 5), (3, 4))
        for a in small
    ]
    specs += [TorusLinkSpec(m, n, 1, (a,)) for m, n in ((3, 5), (2, 7)) for a in small if a.size <= 2]
    link_colors = [P(()), P((1,)), P((2,)), P((1, 1))]
    specs += [
        TorusLinkSpec(m, n, 2, (a, b))
        for m, n in ((1, 1), (1, -1), (1, 2), (2, 3))
        for a in link_colors
        for b in link_colors
    ]
    specs.append(TorusLinkSpec(1, 2, 3, (P((1,)), P((2,)), P((1, 1)))))
    specs.append(TorusLinkSpec(1, 0, 3, (P((2, 1)), P((2,)), P((1, 1)))))
    specs.append(TorusLinkSpec(1, 0, 1, (P((2, 2)),)))
    return specs


def test_H_leading_terms_match_full_route():
    # same text and term dicts on every spec, and LimitDoesNotExist in the same cases
    for spec in _H_differential_specs():
        mine = _outcome(lambda s: special_H(s).value, spec)
        assert mine == _outcome(special_H_full_route, spec), str(spec)


def test_H_never_builds_the_ratio(monkeypatch):
    import skein_homfly.exact as exact_mod
    import skein_homfly.special as special_mod

    specs = [
        TorusLinkSpec(3, 4, 1, (P((2, 1)),)),
        TorusLinkSpec(2, 3, 2, (P((1,)), P((2,)))),
        TorusLinkSpec(2, -3, 1, (P(()),)),
        TorusLinkSpec(1, 0, 2, (P((2, 1)), P((3,)))),
        TorusLinkSpec(1, 0, 1, (P((2, 1)),)),
    ]
    for spec in specs:
        colored_homfly(spec)
    # H may already be cached by an earlier test: every spec must run H's body
    special_mod._H_torus.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("special_H reached the full route")

    monkeypatch.setattr(RationalQT, "simplified", forbidden)
    monkeypatch.setattr(RationalQT, "__truediv__", forbidden)
    monkeypatch.setattr(exact_mod, "limit_at_one", forbidden)
    assert not hasattr(special_mod, "limit_at_one")
    for spec in specs:
        assert isinstance(special_H(spec).value, LaurentQT)
    assert special_H(specs[-1]).value == LaurentQT.one()


def test_H_series_is_expanded_once_per_link(monkeypatch):
    # H is cached by (m, n, colors): a warm call, from an equal spec built
    # anew, never expands the torus value's series again
    import skein_homfly.special as special_mod

    specs = [TREFOIL, TorusLinkSpec(2, 5, 1, (P((2, 1)),)), TorusLinkSpec(1, 2, 2, (P((2,)), P((1,))))]
    cold = [special_H(spec).value for spec in specs]

    def forbidden(*args):
        raise AssertionError("a warm H expanded its series again")

    monkeypatch.setattr(special_mod, "expand_series", forbidden)
    for spec, value in zip(specs, cold):
        again = TorusLinkSpec(spec.m, spec.n, spec.L, tuple(spec.colors))
        assert special_H(again).value is value, str(spec)


def test_H_quotient_that_is_not_laurent_keeps_its_error(monkeypatch):
    import skein_homfly.special as special_mod

    # leading coefficients 1 over 1 at order |A| = 1: H would be 2/(t - t^-1);
    # H of the trefoil may already be cached by an earlier test
    special_mod._H_torus.cache_clear()
    monkeypatch.setattr(special_mod, "expand_series", lambda w, v: (0, 1, LaurentQT.one(), LaurentQT.one()))
    with pytest.raises(ValueError, match="^value is not a Laurent polynomial$"):
        special_H(TorusLinkSpec(2, 3, 1, (P((1,)),)))


def test_special_polynomials_reject_unsupported_specs():
    # neither a partition, nor text, nor a foreign object with a spec's fields
    foreign = SimpleNamespace(m=2, n=3, L=1, colors=(P((1,)),))
    for spec in (P((2, 1)), "T(2,3)", foreign):
        for special in (special_H, special_delta):
            with pytest.raises(TypeError, match="unsupported link spec"):
                special(spec)


# -- the dual limit ------------------------------------------------------


def test_delta_single_box_is_alexander():
    result = special_delta(TREFOIL)
    assert result.kind == "delta" and result.variable == "q"
    assert result.value == LaurentQT({(2, 0): 1, (0, 0): -1, (-2, 0): 1})
    assert result.value == alexander_torus(2, 3, 1)


def test_delta_two_box_rescales():
    spec = TorusLinkSpec(2, 3, 1, (P((2,)),))
    assert special_delta(spec).value == alexander_torus(2, 3, 2)
    assert alexander_torus(2, 3, 2) == compose_q_power(alexander_torus(2, 3, 1), 2)


def test_delta_hooks_on_other_knots():
    for m, n in ((2, 5), (3, 4)):
        for hook in (P((2, 1)), P((3, 1))):
            spec = TorusLinkSpec(m, n, 1, (hook,))
            assert special_delta(spec).value == alexander_torus(m, n, hook.size), (m, n, hook)


def test_delta_counterexample_value():
    spec = TorusLinkSpec(2, 3, 1, (P((2, 2)),))
    value = special_delta(spec).value
    const, coeffs = delta_basis(value)
    assert const == 5
    assert coeffs == {4: -4, 6: -1, 8: 3, 10: 2, 12: -2, 14: -1, 16: 1}
    assert value != compose_q_power(alexander_torus(2, 3, 1), 4)
    # the two sides already differ at the q^4 coefficient
    assert value.terms.get((4, 0), 0) == -4
    assert compose_q_power(alexander_torus(2, 3, 1), 4).terms.get((4, 0), 0) == 0


def test_delta_limit_missing_for_links():
    hopf = TorusLinkSpec(1, 1, 2, (P((1,)), P((1,))))
    with pytest.raises(LimitDoesNotExist):
        special_delta(hopf)


def test_delta_missing_limit_raises_on_every_call():
    # an exception is not cached: a second call runs the route again
    hopf = TorusLinkSpec(1, 1, 2, ((1,), (1,)))
    messages = []
    for _ in range(2):
        with pytest.raises(LimitDoesNotExist) as err:
            special_delta(hopf)
        messages.append(str(err.value))
    assert messages == ["numerator vanishes to order 1 < denominator order 2 at t=1"] * 2


def test_delta_is_built_once_per_link(monkeypatch):
    # the value is cached by (m, n, colors): an equal spec built anew reads
    # the same object, and a warm call sums no class again
    import skein_homfly.special as special_mod

    specs = [TREFOIL, TorusLinkSpec(2, 3, 1, (P((2, 1)),)), TorusLinkSpec(2, 3, 1, (P((2, 2)),))]
    specs.append(TorusLinkSpec(1, 0, 2, (P((2, 1)), P((3,)))))
    cold = [special_delta(spec).value for spec in specs]

    def forbidden(*args):
        raise AssertionError("a warm delta summed its classes again")

    monkeypatch.setattr(special_mod, "class_sum_order", forbidden)
    for spec, value in zip(specs, cold):
        again = TorusLinkSpec(spec.m, spec.n, spec.L, tuple(tuple(a) for a in spec.colors))
        assert special_delta(again).value is value, str(spec)
    # one knot, three colors: three values, each its own
    assert cold[0] == alexander_torus(2, 3, 1)
    assert cold[1] == alexander_torus(2, 3, 3)
    assert len({str(v) for v in cold[:3]}) == 3


def _delta_full_route(spec):
    # the t -> 1 limit of the whole two-variable ratio, by series expansion
    ratio = colored_homfly(spec).value
    for a in spec.colors:
        ratio = ratio / unknot_value(a)
    return limit_at_one(ratio.simplified(), "t").as_laurent()


def _differential_specs():
    colors = [a for d in (1, 2, 3) for a in partitions_of(d)]
    knots = ((2, 3), (3, 2), (2, -3), (1, 3), (2, 5))
    specs = [TorusLinkSpec(m, n, 1, (a,)) for m, n in knots for a in colors]
    specs += [TorusLinkSpec(m, n, 1, (P((2, 2)),)) for m, n in ((2, 3), (2, 5))]
    specs += [TorusLinkSpec(3, 4, 1, (a,)) for a in partitions_of(4)]
    link_colors = [P(()), P((1,)), P((2,)), P((1, 1))]
    specs += [
        TorusLinkSpec(m, n, 2, (a, b))
        for m, n in ((1, 1), (1, 2), (2, 3))
        for a in link_colors
        for b in link_colors
    ]
    specs.append(TorusLinkSpec(1, 0, 3, (P((2, 1)), P((2,)), P((1, 1)))))
    specs.append(TorusLinkSpec(1, 0, 1, (P((2, 2)),)))
    return specs


def test_delta_limit_first_matches_full_route():
    # same text, same term dicts, and LimitDoesNotExist in exactly the same cases
    outcomes = []
    for spec in _differential_specs():
        mine = _outcome(lambda s: special_delta(s).value, spec)
        assert mine == _outcome(_delta_full_route, spec), str(spec)
        outcomes.append(mine)
    assert 0 < outcomes.count("LimitDoesNotExist") < len(outcomes)


def test_delta_never_builds_the_torus_value(monkeypatch):
    import skein_homfly.exact as exact_mod
    import skein_homfly.partitions as partitions_mod
    import skein_homfly.schur as schur_mod
    import skein_homfly.special as special_mod
    import skein_homfly.torus as torus_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("special_delta reached the full route")

    # the values may already be cached by an earlier test: run their bodies
    for cached in (special_mod._delta_torus, schur_mod._plethysm_cached, schur_mod._order_data):
        cached.cache_clear()
    for module, name in (
        (torus_mod, "colored_homfly"),
        (special_mod, "_torus_value"),
        (schur_mod, "_class_data"),
        (schur_mod, "plethysm_coefficients"),
        (torus_mod, "plethysm_coefficients"),
        (exact_mod, "limit_at_one"),
        (special_mod, "expand_series"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    # the colors' own degrees may list their classes; the link's N may not
    size, full = [None], partitions_mod.partitions_of

    def partitions_of(n):
        if n == size[0]:
            raise AssertionError(f"special_delta listed all partitions of N = {n}")
        return full(n)

    for module in (partitions_mod, schur_mod):
        monkeypatch.setattr(module, "partitions_of", partitions_of)

    def delta(m, n, *colors):
        size[0] = m * sum(a.size for a in colors)
        return special_delta(TorusLinkSpec(m, n, len(colors), colors))

    delta(3, 5, P((2, 1, 1)))
    assert delta(3, 5, P((6, 1, 1, 1))).value == alexander_torus(3, 5, 9)
    delta(1, 0, P((2, 1, 1)), P((3,)))
    with pytest.raises(LimitDoesNotExist):
        delta(1, 2, P((2,)), P((1,)))
    # one color with m = 1: its own classes are the partitions of N
    size[0] = None
    assert special_delta(TorusLinkSpec(1, 0, 1, (P((2, 1)),))).value == LaurentQT.one()


# -- torus Alexander polynomials -------------------------------------------


def test_alexander_values():
    assert alexander_torus(2, 3, 1) == LaurentQT({(2, 0): 1, (0, 0): -1, (-2, 0): 1})
    assert alexander_torus(2, 1, 1) == LaurentQT.one()
    # T(1, 0) is the unknot; its bracket quotient would be 0/0
    assert alexander_torus(1, 0, 3) == LaurentQT.one()
    with pytest.raises(ValueError, match="m must be"):
        alexander_torus(0, 1, 1)
    with pytest.raises(NonCoprime):
        alexander_torus(2, 4, 1)
    with pytest.raises(ValueError):
        alexander_torus(2, 3, 0)


def test_alexander_checks_its_arguments():
    # integers pass operator.index where they enter, as TorusLinkSpec's do
    for args in ((2.0, 3, 1), (2, 3.0, 1), (2, 3, 1.0), (2, 3, "1")):
        with pytest.raises(TypeError):
            alexander_torus(*args)
    for n in (0, 1, -1):
        assert alexander_torus(1, n, 2) == LaurentQT.one(), n
    for args, error, message in (
        ((0, 1, 1), ValueError, "m must be a positive integer"),
        ((-2, 3, 1), ValueError, "m must be a positive integer"),
        ((2, 3, 0), ValueError, "d must be >= 1"),
        ((2, 3, -1), ValueError, "d must be >= 1"),
        ((2, 4, 1), NonCoprime, "gcd(2, 4) != 1"),
        ((3, -6, 2), NonCoprime, "gcd(3, -6) != 1"),
        ((2, 0, 1), NonCoprime, "gcd(2, 0) != 1"),
    ):
        with pytest.raises(error) as err:
            alexander_torus(*args)
        assert type(err.value) is error and str(err.value) == message, args


def test_alexander_is_fresh_on_every_call(monkeypatch):
    # the independent check of delta: never cached, and no class sum read
    import skein_homfly.schur as schur_mod
    import skein_homfly.special as special_mod

    def forbidden(*args):
        raise AssertionError("alexander_torus read the class-sum route")

    for module, name in (
        (special_mod, "class_sum_order"),
        (special_mod, "_delta_torus"),
        (special_mod, "_torus_weights"),
        (schur_mod, "_order_data"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert not hasattr(alexander_torus, "cache_info")
    first = alexander_torus(3, 4, 2)
    assert alexander_torus(3, 4, 2) is not first and alexander_torus(3, 4, 2) == first
    assert str(first) == str(compose_q_power(alexander_torus(3, 4, 1), 2))


def test_alexander_at_one_is_one():
    from skein_homfly.exact import RationalQT, limit_at_one

    for m, n in ((2, 3), (2, 5), (3, 4), (3, 5)):
        assert limit_at_one(RationalQT(alexander_torus(m, n, 1)), "q") == LaurentQT.one()


# -- display basis -----------------------------------------------------------


def test_delta_basis_round_trip():
    p = LaurentQT({(4, 0): -7, (-4, 0): -7, (0, 0): 8, (6, 0): 1, (-6, 0): 1})
    const, coeffs = delta_basis(p)
    assert const == 8 and coeffs == {4: -7, 6: 1}
    assert format_delta_basis(p) == "8 - 7*D_4 + D_6"


def test_delta_basis_unit_coefficients_and_zero():
    assert format_delta_basis(LaurentQT.zero()) == "0"
    assert format_delta_basis(LaurentQT.monomial(3)) == "3"
    p = LaurentQT({(2, 0): -1, (-2, 0): -1})
    assert format_delta_basis(p) == "-D_2"


def test_delta_basis_rejects_asymmetric():
    with pytest.raises(ValueError):
        delta_basis(q_bracket(2))
    with pytest.raises(ValueError):
        delta_basis(LaurentQT({(1, 1): 1, (-1, -1): 1}))
    # terms below q^0 left once the top exponent reaches 0
    for p in (LaurentQT({(0, 0): 1, (-2, 0): 1}), LaurentQT({(0, 0): 1, (-2, 0): 1, (-3, 0): 2})):
        with pytest.raises(ValueError, match="not symmetric"):
            delta_basis(p)
        with pytest.raises(ValueError, match="not symmetric"):
            format_delta_basis(p)


def test_counterexample_formatted():
    spec = TorusLinkSpec(2, 3, 1, (P((2, 2)),))
    value = special_delta(spec).value
    assert (
        format_delta_basis(value)
        == "5 - 4*D_4 - D_6 + 3*D_8 + 2*D_10 - 2*D_12 - D_14 + D_16"
    )
