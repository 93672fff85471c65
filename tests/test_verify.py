import json
import random
from itertools import permutations

import pytest

from skein_homfly import verify
from skein_homfly.exact import _Q_TARGETS, _T_TARGETS, RationalQT, _substitute, _targets
from skein_homfly.hecke import (
    BraidWord,
    framed_homfly_of_closure,
    normalized_homfly_of_closure,
    perm_cycle_count,
    perm_length,
)
from skein_homfly.torus import colored_homfly
from skein_homfly.partitions import Partition
from skein_homfly.verify import (
    GridConfig,
    VerificationReport,
    run_theorem,
    verify_hook_character_identity,
    verify_lowest_term,
    verify_permutation_parity,
    verify_special_H,
    verify_special_delta,
    verify_symmetry_neg_q_inverse,
    verify_symmetry_q_inverse,
)

SMALL = GridConfig(
    knots=((2, 3), (3, 2)),
    links=((1, 1, 2),),
    max_color=3,
    hook_max=3,
    parity_max=6,
    hook_identity_max=6,
    lowest_term_twists=(1, 2),
)


def test_symmetry_q_inverse_small():
    report = verify_symmetry_q_inverse(SMALL)
    assert report.passed
    assert report.cases > 0
    assert report.theorem == "thm72"


def test_symmetry_neg_q_inverse_small():
    report = verify_symmetry_neg_q_inverse(SMALL)
    assert report.passed


def test_special_H_small():
    report = verify_special_H(SMALL)
    assert report.passed


def test_special_delta_small_includes_counterexample():
    report = verify_special_delta(SMALL)
    assert report.passed
    # one cell is the expected-inequality case
    assert report.cases == 2 * 6 + 1


def test_special_delta_report_pinned():
    # no frozen benchmark hash covers thm64's report, so pin its bytes here
    report = verify_special_delta(GridConfig(knots=((2, 3),), hook_max=2))
    assert report.summary() == (
        "theorem=thm64 grid=knots=[(2, 3)] hooks |A|<=2 + counterexample "
        "cases=4 failures=0 PASS"
    )
    assert report.to_dict() == {
        "theorem": "thm64",
        "grid": "knots=[(2, 3)] hooks |A|<=2 + counterexample",
        "cases": 4,
        "failures": [],
        "passed": True,
    }


def test_permutation_parity_small():
    report = verify_permutation_parity(6)
    assert report.passed
    assert report.cases == 6


@pytest.fixture
def fresh_parity_classes():
    verify._permutation_classes.cache_clear()
    yield
    verify._permutation_classes.cache_clear()


def _parity_loop_failure(d, cycles):
    """The first failing permutation as the loop over every permutation names
    it, before the sweep checked one permutation per class."""
    for pi in permutations(range(d)):
        if (perm_length(pi) + cycles(pi) - d) % 2:
            return (str(pi), f"parity {d % 2}", "parity mismatch")
    return None


def test_parity_classes_name_the_loops_first_failure(monkeypatch, fresh_parity_classes):
    # a cycle count off by one on two degree-5 permutations, one of them not
    # the first of its true class (that is (0, 2, 3, 4, 1)): the sweep names
    # the earlier one, as the loop over every permutation does
    wrong = {(4, 3, 2, 1, 0), (2, 0, 1, 4, 3)}

    def off_by_one(pi):
        return perm_cycle_count(pi) + (pi in wrong)

    monkeypatch.setattr(verify, "perm_cycle_count", off_by_one)
    report = verify_permutation_parity(6)
    expected = tuple(f for d in range(1, 7) if (f := _parity_loop_failure(d, off_by_one)))
    assert report.failures == expected == (("(2, 0, 1, 4, 3)", "parity 1", "parity mismatch"),)
    assert report.summary().splitlines()[1] == "  case (2, 0, 1, 4, 3): expected parity 1, got parity mismatch"


def test_parity_reports_repeat_in_one_process(fresh_parity_classes):
    first, second = verify_permutation_parity(7), verify_permutation_parity(7)
    assert first.passed and first == second
    assert first.summary() == second.summary() and first.to_dict() == second.to_dict()


def test_parity_classes_cache_is_bounded(fresh_parity_classes):
    assert verify_permutation_parity(8).passed
    assert verify._permutation_classes.cache_info().currsize <= 8
    assert [len(verify._permutation_classes(d)) for d in range(1, 9)] == [1, 2, 4, 9, 17, 31, 50, 78]


def test_hook_identity_small():
    report = verify_hook_character_identity(SMALL)
    assert report.passed


def test_lowest_term_small():
    report = verify_lowest_term(SMALL)
    assert report.passed
    assert report.cases == 2


def test_run_theorem_registry():
    for name in ("lemma73",):
        report = run_theorem(name, SMALL, threads=1)
        assert report.passed
    try:
        run_theorem("nope")
    except KeyError:
        pass
    else:
        raise AssertionError("unknown theorem must raise")


def test_report_shape_and_serialization():
    report = verify_permutation_parity(4)
    d = report.to_dict()
    assert set(d) == {"theorem", "grid", "cases", "failures", "passed"}
    json.dumps(d)
    assert "PASS" in report.summary()


def test_empty_sweep_raises():
    # a sweep with no cases must not report PASS
    with pytest.raises(ValueError, match=r"^lemma73 has no cases on the grid all permutations, degree <= 0$"):
        verify_permutation_parity(0)
    with pytest.raises(ValueError, match="thm22 has no cases"):
        verify_lowest_term(GridConfig(lowest_term_twists=()))
    # no case of the claim: thm64 would run only its counterexample, thm62
    # only empty colors and links, or only links when no knot is given
    with pytest.raises(ValueError, match=r"^thm64 has no cases on the grid .* hooks \|A\|<=0 \+ counterexample$"):
        verify_special_delta(GridConfig(hook_max=0))
    with pytest.raises(ValueError, match=r"^thm62 has no cases on the grid .* \|A\|<=-1 plus single-box"):
        verify_special_H(GridConfig(max_color=-1))
    with pytest.raises(ValueError, match=r"^thm62 has no cases on the grid knots=\[\] \|A\|<=4 plus single-box"):
        verify_special_H(GridConfig(knots=()))


def test_failures_are_reported():
    bad = VerificationReport("x", "g", 2, ((("case", "want", "got"),)))
    assert not bad.passed
    assert "FAIL" in bad.summary()
    assert "case" in bad.summary()


def test_thread_count_does_not_change_reports():
    one = verify_permutation_parity(6, threads=1)
    four = verify_permutation_parity(6, threads=4)
    assert one.summary() == four.summary()
    r1 = verify_symmetry_q_inverse(SMALL, threads=1)
    r4 = verify_symmetry_q_inverse(SMALL, threads=4)
    assert r1.summary() == r4.summary()


def test_grid_config_load(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"knots": [[2, 3]], "max_color": 2, "parity_max": 5}))
    config = GridConfig.load(str(path))
    assert config.knots == ((2, 3),)
    assert config.max_color == 2
    assert config.parity_max == 5
    assert verify_special_H(config).passed


def test_grid_config_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"max_colour": 1, "knots": [[2, 3]], "hookmax": 2}))
    with pytest.raises(ValueError, match="'hookmax', 'max_colour'"):
        GridConfig.load(str(path))
    path.write_text(json.dumps([["max_color", 1]]))
    with pytest.raises(ValueError, match="one JSON object"):
        GridConfig.load(str(path))
    for raw, key in (
        ({"knots": 5}, "'knots'"),
        ({"max_color": "x"}, "'max_color'"),
        ({"max_color": True}, "'max_color'"),
        ({"knots": [[2, 3, 1]]}, "'knots'"),
        ({"links": [[1, 1]]}, "'links'"),
        ({"lowest_term_twists": [1.5]}, "'lowest_term_twists'"),
    ):
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=key):
            GridConfig.load(str(path))


def test_double_transposition_returns_to_start():
    # conjugating colors twice is the identity on the invariant
    from skein_homfly.torus import TorusLinkSpec, colored_homfly_torus

    spec = TorusLinkSpec(2, 3, 1, (Partition((2, 1)),))
    twice = spec.conjugate_colors().conjugate_colors()
    assert twice == spec
    assert colored_homfly_torus(twice).value == colored_homfly_torus(spec).value


def test_substituted_is_normal_by_construction():
    # substituted() shifts each inverted variable by its old maximum and
    # fixes the denominator's sign, with no _normalize_pair; under all eight
    # targets it gives the term dicts that normalizing the substituted parts
    # gives, on every thm71/thm72 grid value and on seeded Hecke closures
    values = []
    for spec in verify._symmetry_grid(GridConfig()):
        values += [colored_homfly(spec).value, colored_homfly(spec.conjugate_colors()).value]
    rng = random.Random(2805)
    for _ in range(30):
        n = rng.randint(2, 5)
        w = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))))
        values += [framed_homfly_of_closure(w), normalized_homfly_of_closure(w)]
    values.append(RationalQT(0))
    for f in values:
        for q in _Q_TARGETS:
            for t in _T_TARGETS:
                targets = _targets(q, t)
                g = f.substituted(q, t)
                ref = RationalQT._of(_substitute(f.num.terms, targets), _substitute(f.den.terms, targets))
                assert (g.num.terms, g.den.terms) == (ref.num.terms, ref.den.terms), (f, q, t)
