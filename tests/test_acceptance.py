"""Acceptance gate: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All comparisons are exact (tolerance zero); the only
stated tolerances are wall-clock budgets, asserted where given.
"""

import time

from oracles import compose_q_power, verify_orthogonality

from skein_homfly.exact import LaurentQT, RationalQT, delta, limit_at_one, q_bracket, t_power
from skein_homfly.hecke import framed_homfly_of_closure, torus_braid_word
from skein_homfly.partitions import EMPTY, Partition, partitions_of
from skein_homfly.schur import unknot_value
from skein_homfly.special import alexander_torus, format_delta_basis, special_delta
from skein_homfly.torus import TorusLinkSpec, colored_homfly_torus, uncolored_homfly_torus_knot
from skein_homfly.verify import (
    verify_hook_character_identity,
    verify_lowest_term,
    verify_permutation_parity,
    verify_special_H,
    verify_special_delta,
    verify_symmetry_neg_q_inverse,
    verify_symmetry_q_inverse,
)

P = Partition
_SUITE_START = time.perf_counter()


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    return ok


def _mono(c, qe, te):
    return RationalQT(LaurentQT.monomial(c, qe, te))


def s_star(*parts):
    return unknot_value(P(parts))


def test_criterion_01_odd_torus_closed_forms():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        n = 2 * k + 1
        w1 = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((1,)),))).value
        ok &= w1 == _mono(1, n, -n) * s_star(2) - _mono(1, -n, -n) * s_star(1, 1)
        w2 = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((2,)),))).value
        ok &= w2 == (
            _mono(1, 2 * n, -2 * n) * s_star(4)
            - _mono(1, -2 * n, -2 * n) * s_star(3, 1)
            + _mono(1, -4 * n, -2 * n) * s_star(2, 2)
        )
        # column-color form; the top twist exponent is forced by the
        # q -> q^-1 symmetry applied to the row-color form
        w11 = colored_homfly_torus(TorusLinkSpec(2, n, 1, (P((1, 1)),))).value
        ok &= w11 == (
            _mono(1, 4 * n, -2 * n) * s_star(2, 2)
            - _mono(1, 2 * n, -2 * n) * s_star(2, 1, 1)
            + _mono(1, -2 * n, -2 * n) * s_star(1, 1, 1, 1)
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert _report("1 (odd torus family, three colors)", ok, f"{elapsed:.2f}s < 5s")


def test_criterion_02_even_torus_closed_forms():
    ok = True
    for k in (1, 2):
        w = colored_homfly_torus(TorusLinkSpec(1, k, 2, (P((1,)), P((1,))))).value
        ok &= w == _mono(1, 2 * k, 0) * s_star(2) + _mono(1, -2 * k, 0) * s_star(1, 1)
        w = colored_homfly_torus(TorusLinkSpec(1, k, 2, (P((2,)), P((1,))))).value
        ok &= w == _mono(1, 4 * k, 0) * s_star(3) + _mono(1, -2 * k, 0) * s_star(2, 1)
    assert _report("2 (even torus links, mixed colors)", ok)


def test_criterion_03_uncolored_closed_form_and_limit():
    ok = True
    for k in (1, 2, 3):
        n = 2 * k + 1
        _, p = uncolored_homfly_torus_knot(2, n)
        expected = RationalQT(q_bracket(n + 1), q_bracket(2)) * _mono(
            1, 0, -n + 1
        ) - RationalQT(q_bracket(n - 1), q_bracket(2)) * _mono(1, 0, -n - 1)
        ok &= p == expected
        ok &= limit_at_one(p, "q") == LaurentQT({(0, -2 * k): k + 1, (0, -2 * k - 2): -k})
    assert _report("3 (uncolored closed form and q->1 limit)", ok)


# The counterexample criterion is split: the inequality at q^4 is the
# mathematical content and holds; the frozen reference transcription of an
# 11-term expansion does not match the exact value, which two independent
# computations confirm, so that comparison is expected to stay red.

REFERENCE_TRANSCRIPTION = (
    "8 - 7*D_4 - D_6 + 6*D_8 + 2*D_10 - 5*D_12 - 2*D_14 + 3*D_16 + D_18 - D_20 - D_22"
)


def test_criterion_04_counterexample_inequality():
    value = special_delta(TorusLinkSpec(2, 3, 1, (P((2, 2)),))).value
    scaled = compose_q_power(alexander_torus(2, 3, 1), 4)
    ok = value != scaled
    ok &= value.terms.get((4, 0), 0) == -4 and scaled.terms.get((4, 0), 0) == 0
    assert _report("4b (non-hook color breaks the rescaling rule at q^4)", ok)


def test_criterion_04_reference_expansion_transcription():
    value = special_delta(TorusLinkSpec(2, 3, 1, (P((2, 2)),))).value
    printed = format_delta_basis(value)
    ok = printed == REFERENCE_TRANSCRIPTION
    _report("4a (11-term reference transcription, byte-for-byte)", ok,
            "exact value disagrees with the transcription")
    assert printed == REFERENCE_TRANSCRIPTION, (
        "computed expansion differs from the frozen transcription.\n"
        f"  computed:      {printed}\n"
        f"  transcription: {REFERENCE_TRANSCRIPTION}\n"
        "The computed value is confirmed by an independent symbolic-limit "
        "computation and by the proved symmetry and limit theorems "
        "(criteria 4b, 5, 6, 7 all pass on the same engine); the "
        "transcription itself is arithmetically inconsistent with those "
        "theorems, so this comparison is intentionally left red."
    )


def test_criterion_05_H_multiplicativity_grid():
    start = time.perf_counter()
    report = verify_special_H()
    colors = [EMPTY] + [p for d in range(1, 5) for p in partitions_of(d)]
    elapsed = time.perf_counter() - start
    ok = report.passed and len(colors) == 12 and elapsed < 60.0
    assert _report("5 (H grid: 5 knots x 12 colors)", ok, f"{elapsed:.2f}s < 60s")


def test_criterion_06_delta_hook_grid():
    report = verify_special_delta()
    assert _report("6 (hook colors reduce to Alexander at q^|A|)", report.passed)


def test_criterion_07_symmetry_grids():
    r1 = verify_symmetry_neg_q_inverse()
    r2 = verify_symmetry_q_inverse()
    assert _report("7 (both twist symmetries on knots and links)", r1.passed and r2.passed)


def test_criterion_08_oracle_concordance():
    start = time.perf_counter()
    ok = True
    for m, n in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        w, _ = uncolored_homfly_torus_knot(m, n)
        bracket = framed_homfly_of_closure(torus_braid_word(m, n))
        ok &= bracket == RationalQT(t_power(n * (m - 1))) * w
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert _report("8 (trace oracle concordance, 5 knots)", ok, f"{elapsed:.2f}s < 30s")


def test_criterion_09_hook_character_identity():
    report = verify_hook_character_identity()
    ok = report.passed and report.cases == sum(len(partitions_of(d)) for d in range(1, 9))
    assert _report("9 (hook character identity, all |B| <= 8)", ok)


def test_criterion_10_permutation_parity():
    report = verify_permutation_parity(7)
    assert _report("10 (length + cycle-count parity over S_n, n <= 7)", report.passed)


def test_criterion_11_lowest_term():
    report = verify_lowest_term()
    assert _report("11 (lowest z-coefficient of 2-component links)", report.passed)


def test_criterion_12_property_suites():
    ok = True
    # exact character orthogonality
    start = time.perf_counter()
    for n in range(1, 9):
        ok &= verify_orthogonality(n)
    orth_elapsed = time.perf_counter() - start
    ok &= orth_elapsed < 5.0
    # q-exponent integrality on every public invariant of the stated grid
    for m, n in ((2, 3), (2, 5), (3, 4)):
        for size in range(1, 5):
            for lam in partitions_of(size):
                value = colored_homfly_torus(TorusLinkSpec(m, n, 1, (lam,))).value
                ok &= all(isinstance(qe, int) for qe, _ in value.num.terms)
                ok &= all(isinstance(qe, int) for qe, _ in value.den.terms)
    # determinism across thread counts
    for name_fn in (verify_lowest_term, verify_permutation_parity):
        if name_fn is verify_permutation_parity:
            ok &= name_fn(6, threads=1).summary() == name_fn(6, threads=4).summary()
        else:
            ok &= name_fn(threads=1).summary() == name_fn(threads=4).summary()
    total = time.perf_counter() - _SUITE_START
    ok &= total < 300.0
    assert _report(
        "12 (orthogonality, integrality, thread determinism)",
        ok,
        f"orthogonality {orth_elapsed:.2f}s; acceptance module {total:.1f}s < 300s",
    )
