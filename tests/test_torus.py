import pytest

from skein_homfly.errors import NonCoprime
from skein_homfly.exact import LaurentQT, RationalQT, delta, q_bracket, t_power
from skein_homfly.hecke import normalized_homfly_of_closure, torus_braid_word
from skein_homfly.partitions import Partition, partitions_of
from skein_homfly.schur import unknot_value
from skein_homfly.torus import (
    ColoredInvariant,
    TorusLinkSpec,
    colored_homfly,
    colored_homfly_torus,
    uncolored_homfly_torus_knot,
)

P = Partition


def test_normalized_knot_invariants_are_laurent():
    # W_A / s*_A of a knot is a Laurent polynomial, and simplified() returns
    # it in its Laurent form
    for m, n in ((2, 3), (2, 5), (3, 4), (2, -3)):
        for a in (lam for d in (1, 2, 3) for lam in partitions_of(d)):
            ratio = colored_homfly(TorusLinkSpec(m, n, 1, (a,))).value / unknot_value(a)
            reduced = ratio.simplified()
            assert reduced.is_laurent(), (m, n, a)
            laurent = reduced.as_laurent()
            assert isinstance(laurent, LaurentQT)
            assert RationalQT(laurent) == ratio, (m, n, a)


def _mono(c, qe, te):
    return RationalQT(LaurentQT.monomial(c, qe, te))


def s_star(*parts):
    return unknot_value(P(parts))


# -- torus knots, single box through two boxes --------------------------


def test_odd_torus_knot_single_box():
    for k in (1, 2, 3):
        n = 2 * k + 1
        w = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((1,)),))).value
        expected = _mono(1, n, -n) * s_star(2) - _mono(1, -n, -n) * s_star(1, 1)
        assert w == expected, k


def test_odd_torus_knot_two_row():
    for k in (1, 2, 3):
        n = 2 * k + 1
        w = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((2,)),))).value
        expected = (
            _mono(1, 2 * n, -2 * n) * s_star(4)
            - _mono(1, -2 * n, -2 * n) * s_star(3, 1)
            + _mono(1, -4 * n, -2 * n) * s_star(2, 2)
        )
        assert w == expected, k


def test_odd_torus_knot_two_column():
    # the column color is forced by the q -> q^-1 symmetry from the row color
    for k in (1, 2, 3):
        n = 2 * k + 1
        w = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((1, 1)),))).value
        expected = (
            _mono(1, 4 * n, -2 * n) * s_star(2, 2)
            - _mono(1, 2 * n, -2 * n) * s_star(2, 1, 1)
            + _mono(1, -2 * n, -2 * n) * s_star(1, 1, 1, 1)
        )
        assert w == expected, k


def test_even_torus_link_single_boxes():
    for k in (1, 2, 3):
        w = colored_homfly_torus(TorusLinkSpec(1, k, 2, (P((1,)), P((1,))))).value
        expected = _mono(1, 2 * k, 0) * s_star(2) + _mono(1, -2 * k, 0) * s_star(1, 1)
        assert w == expected, k


def test_even_torus_link_mixed_colors():
    for k in (1, 2):
        w = colored_homfly_torus(TorusLinkSpec(1, k, 2, (P((2,)), P((1,))))).value
        expected = _mono(1, 4 * k, 0) * s_star(3) + _mono(1, -2 * k, 0) * s_star(2, 1)
        assert w == expected, k


# -- uncolored normalization ---------------------------------------------


def test_uncolored_closed_form():
    for k in (1, 2, 3):
        n = 2 * k + 1
        _, p = uncolored_homfly_torus_knot(2, n)
        expected = RationalQT(q_bracket(n + 1), q_bracket(2)) * _mono(1, 0, -n + 1) - RationalQT(
            q_bracket(n - 1), q_bracket(2)
        ) * _mono(1, 0, -n - 1)
        assert p == expected, k
        w, _ = uncolored_homfly_torus_knot(2, n)
        assert w == delta() * expected


def test_uncolored_q_to_one_limit():
    from skein_homfly.exact import limit_at_one

    for k in (1, 2, 3):
        _, p = uncolored_homfly_torus_knot(2, 2 * k + 1)
        limit = limit_at_one(p, "q")
        assert limit == LaurentQT({(0, -2 * k): k + 1, (0, -2 * k - 2): -k})


def test_torus_knot_index_symmetry():
    _, p23 = uncolored_homfly_torus_knot(2, 3)
    _, p32 = uncolored_homfly_torus_knot(3, 2)
    assert p23 == p32


def test_non_coprime_rejected():
    with pytest.raises(NonCoprime):
        TorusLinkSpec(2, 4, 1, (P((1,)),))
    with pytest.raises(NonCoprime):
        uncolored_homfly_torus_knot(2, 4)


def test_color_count_checked():
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 3, 2, (P((1,)),))


# -- the unknot and the unlinks are T(1, 0) ---------------------------------


def test_torus_specs_check_their_integers():
    with pytest.raises(TypeError):
        TorusLinkSpec(2, 3, 1.0, (P((1,)),))
    with pytest.raises(TypeError):
        TorusLinkSpec(2.0, 3, 1, (P((1,)),))
    spec = TorusLinkSpec(2, 3, True, (P((1,)),))
    assert type(spec.L) is int
    assert str(spec) == "T(2*1,3*1)[(1)]"


def test_one_evaluation_for_every_spec():
    assert colored_homfly_torus is colored_homfly
    for spec in (P((2, 1)), "T(2,3)", None):
        with pytest.raises(TypeError, match="unsupported link spec"):
            colored_homfly(spec)


def test_unknot_spec_matches_unknot_value():
    for lam in (lam for d in range(1, 6) for lam in partitions_of(d)):
        w = colored_homfly(TorusLinkSpec(1, 0, 1, (lam,))).value
        s = unknot_value(lam)
        assert w == s, lam
        assert (w.num.terms, w.den.terms) == (s.num.terms, s.den.terms), lam


def test_degenerate_torus_spec_matches_unknot():
    for lam in (P((1,)), P((2,)), P((2, 1))):
        w = colored_homfly_torus(TorusLinkSpec(1, 0, 1, (lam,))).value
        assert w == unknot_value(lam)


def test_unlinks_are_products_of_unknots():
    for colors in ((P((1,)), P((1,))), (P((2,)), P((1, 1))), (P((1,)), P((2,)), P((1, 1))), (P((2, 1)),) * 3):
        w = colored_homfly(TorusLinkSpec(1, 0, len(colors), colors)).value
        product = RationalQT.one()
        for a in colors:
            product = product * unknot_value(a)
        assert w == product, colors
    assert colored_homfly(TorusLinkSpec(1, 0, 2, (P((1,)), P((1,))))).value == delta() * delta()


def test_framing_independence_of_unknot_family():
    # T(1, n) is an unknot for every n; the normalization must kill the twist
    for n in (-2, -1, 1, 2, 5):
        w = colored_homfly_torus(TorusLinkSpec(1, n, 1, (P((2, 1)),))).value
        assert w == unknot_value(P((2, 1)))


# -- cross checks against the trace oracle -----------------------------------


def test_single_box_link_specialization():
    # W with all single-box colors = t^(2k) * delta * P for the (2, 2k) links
    for k in (1, 2, 3):
        w = colored_homfly_torus(TorusLinkSpec(1, k, 2, (P((1,)), P((1,))))).value
        p = normalized_homfly_of_closure(torus_braid_word(2, 2 * k))
        assert w == RationalQT(t_power(2 * k)) * delta() * p, k


def test_mirror_image_by_negative_twists():
    # W(T(m, -n)) = W(T(m, n))(q^-1, t^-1); the twist weights are n k_mu / m
    # with m | k_mu, so a negative n must not round them
    cells = [((2, 3), (P((2,)),))]
    for m, n in ((3, 4), (3, 2), (4, 3)):
        cells += [((m, n), (a,)) for d in range(1, 9 // m + 1) for a in partitions_of(d)]
    for n in (1, 2):
        cells += [((1, n), (a, b)) for a in (P((1,)), P((2,))) for b in (P((1,)), P((1, 1)))]
    assert len(cells) == 24
    for (m, n), colors in cells:
        w_pos = colored_homfly_torus(TorusLinkSpec(m, n, len(colors), colors)).value
        w_neg = colored_homfly_torus(TorusLinkSpec(m, -n, len(colors), colors)).value
        assert w_neg == w_pos.substituted(q="q^-1", t="t^-1"), (m, n, colors)


# -- integrality ---------------------------------------------------------------


def test_integral_q_exponents_small_grid():
    specs = []
    for m, n in ((2, 3), (2, 5), (3, 4)):
        for size in range(1, 4):
            for lam in partitions_of(size):
                specs.append(TorusLinkSpec(m, n, 1, (lam,)))
    for spec in specs:
        value = colored_homfly_torus(spec).value
        assert all(isinstance(qe, int) for qe, _ in value.num.terms), spec
        assert all(isinstance(qe, int) for qe, _ in value.den.terms), spec


def test_invariant_dataclass_carries_spec():
    spec = TorusLinkSpec(2, 3, 1, (P((1,)),))
    inv = colored_homfly_torus(spec)
    assert isinstance(inv, ColoredInvariant)
    assert inv.spec == spec
