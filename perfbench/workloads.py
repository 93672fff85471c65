"""The benchmark's workloads: item lists that the seed orders.  Every round
of a run gets the same list, so an item's latencies can be compared across
rounds.

An item is one closed-loop request: a thunk that computes exact values
through the package's public entry points, checks them by an independent
route, and returns ``(ok, text)``.  ``text`` is the canonical output whose
SHA-256 is frozen in ``expected.json``.  Package functions are looked up
through module attributes at call time, so the tracer's rebinding sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
from dataclasses import dataclass
from typing import Callable

import skein_homfly as sk
from skein_homfly import cli, exact

#: computed t->1 limit of T(2,3)[(2,2)] on the D_d basis, confirmed by sympy;
#: this is not the red reference transcription of the acceptance suite
DELTA_22 = "5 - 4*D_4 - D_6 + 3*D_8 + 2*D_10 - 2*D_12 - D_14 + D_16"

# thm64 knots with hook colors |A| <= 4 (N <= 12).  The default grid's
# |A| = 5 hooks (N = 15) take ~9 s of its ~11 s cold pass, too long to
# repeat the cold pass often enough in one run for a steady figure.
DELTA_KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))
DELTA_HOOK_MAX = 4

# criterion-8 concordance braids on at most 4 strands; the 5-strand T(5,6),
# T(5,7), T(5,8) take ~2 s each cold and warm, 6 strands ~80 s each
ORACLE_KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (4, 7))
LOWEST_TERM_TWISTS = (1, 2, 3)
# random braid words: conjugates of these knots' braids, (strands, how many).
# One word costs from 2 to 50 ms, so words drawn by the run's seed would move
# the workload's time by a third from seed to seed; they are drawn once, from
# CONJUGATOR_DRAW, and the run's seed only orders them with the other items.
CONJUGATED_KNOTS = ((2, 5), (2, 7), (3, 4), (3, 5), (4, 3))
RANDOM_WORDS = ((4, 32), (5, 16))
CONJUGATOR_LETTERS = 4
CONJUGATOR_DRAW = "hecke-oracle conjugators"


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], tuple]


def _hooks(max_size):
    return [
        sk.Partition((a + 1,) + (1,) * (d - 1 - a))
        for d in range(1, max_size + 1)
        for a in range(d)
    ]


# -- delta-sweep ------------------------------------------------------------


def _delta_hook(m, n, a):
    spec = sk.TorusLinkSpec(m, n, 1, (a,))

    def run():
        value = sk.special_delta(spec).value
        return value == sk.alexander_torus(m, n, a.size), sk.canonical_text(value)

    return Item(f"delta {spec}", run)


def _delta_counterexample():
    spec = sk.TorusLinkSpec(2, 3, 1, (sk.Partition((2, 2)),))

    def run():
        value = sk.special_delta(spec).value
        ok = value != sk.alexander_torus(2, 3, 4) and sk.format_delta_basis(value) == DELTA_22
        return ok, sk.canonical_text(value)

    return Item(f"delta {spec}", run)


def delta_sweep(rng):
    items = [_delta_hook(m, n, a) for m, n in DELTA_KNOTS for a in _hooks(DELTA_HOOK_MAX)]
    items.append(_delta_counterexample())
    rng.shuffle(items)
    return items


# -- cli-corpus ---------------------------------------------------------------

CLI_VERIFY = ("thm72", "thm71", "thm62", "lemma65", "lemma73", "thm22")
#: the sweeps' grid: colors |A| <= 3 instead of the default 4, which makes
#: thm72 cost ~3.5 s of a ~5 s cold pass
CLI_GRID = os.path.join(os.path.dirname(os.path.abspath(__file__)), "grids", "sweeps.json")
CLI_SINGLE = (
    "torus --m 3 --n 5 --components 1 --colors (4)",
    "torus --m 2 --n 3 --components 1 --colors (2,1)",
    "torus --m 3 --n 4 --components 1 --colors (1)",
    "torus --m 2 --n -3 --components 1 --colors (1,1)",
    *(
        f"torus --m {m} --n {n} --components 1 --colors {c} --json"
        for m, n in ((2, 3), (2, 5), (3, 4))
        for c in ("(1)", "(2)", "(1,1)")
    ),
    *(
        f"torus --m 1 --n {n} --components 2 --colors {c} --json"
        for n in (1, 2)
        for c in ("(1);(1)", "(2);(1)")
    ),
    "torus --m 3 --n 5 --components 1 --colors (1) --json",
    "torus --m 2 --n 7 --components 1 --colors (2) --json",
    "torus --m 2 --n 7 --components 1 --colors (1,1) --json",
    *(
        f"unknot --color {c}"
        for c in ("(1)", "(2)", "(1,1)", "(3)", "(2,1)", "(1,1,1)", "(4)", "(3,1)", "(2,2)", "(2,1,1)", "(1,1,1,1)")
    ),
    "unknot --color (5)",
    "unknot --color (4,1)",
    "unknot --color (3,2)",
    "unknot --color (2) --json",
    "unknot --color (2,1) --json",
    "unknot --color (3,1) --json",
    "plethysm --m 2 --colors (2);(1,1)",
    "plethysm --m 2 --colors (1)",
    "plethysm --m 3 --colors (2)",
    "plethysm --m 2 --colors (1);(1)",
    "plethysm --m 3 --colors (1,1)",
    "plethysm --m 2 --colors (2,1)",
    "plethysm --m 3 --colors (1);(1)",
    "plethysm --m 4 --colors (1)",
    "plethysm --m 2 --colors (3)",
    "characters --n 12",
    "characters --n 4",
    "characters --n 6",
    "characters --n 8",
    "characters --n 5",
    "characters --n 7",
    "characters --n 10",
    "special --kind delta --m 2 --n 3 --color (2,2) --basis delta",
    "special --kind H --m 1 --n 2 --colors (1);(1)",
    "special --kind H --m 1 --n 1 --colors (1);(1)",
    "special --kind H --m 2 --n 3 --color (2)",
    "homfly-braid --strands 3 --word '1 2 -1'",
    "homfly-braid --strands 2 --word '1 1 1'",
    "homfly-braid --strands 3 --word '1 -2 1 -2'",
    "homfly-braid --strands 4 --word '1 2 3 1 2 3'",
    "homfly-braid --strands 4 --word '1 -2 3 -2'",
    "homfly-braid --strands 3 --word '1 2 1 2 1'",
    "homfly-braid --strands 4 --word '1 2 3 -1'",
    "homfly-braid --strands 3 --word '-1 -2 -1 -2'",
)


def _cli_call(argv, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        text = out.getvalue()
        return code == 0 and check(text), text

    return Item("cli " + shlex.join(argv), run)


def _verify_passed(text):
    head = text.splitlines()[0] if text else ""
    return head.endswith(" failures=0 PASS")


def _is_delta_22(text):
    return text == DELTA_22 + "\n"


def cli_corpus(rng):
    grid = os.path.relpath(CLI_GRID)
    sweeps = [
        _cli_call(["verify", "--theorem", name, "--grid", grid], _verify_passed)
        for name in CLI_VERIFY
    ]
    singles = [
        _cli_call(argv, _is_delta_22 if "--basis" in argv else bool)
        for argv in map(shlex.split, CLI_SINGLE)
    ]
    rng.shuffle(singles)
    # The sweeps compute most values the single commands ask for, so the
    # order decides which item pays for them.  They run first, in a fixed
    # order; otherwise the draw alone would move the tail latency by a third.
    return sweeps + singles


# -- hecke-oracle -------------------------------------------------------------


def _concordance(m, n):
    def run():
        w, _ = sk.uncolored_homfly_torus_knot(m, n)
        bracket = sk.framed_homfly_of_closure(sk.torus_braid_word(m, n))
        return bracket == sk.RationalQT(exact.t_power(n * (m - 1))) * w, str(bracket)

    return Item(f"concordance T({m},{n})", run)


def _lowest_term(k):
    # thm22: the (q - q^-1)^-1 coefficient of T(2,2k) is t^(-2k) (t - t^-1)
    def run():
        p = sk.normalized_homfly_of_closure(sk.torus_braid_word(2, 2 * k))
        lowest = sk.limit_at_one(p * sk.RationalQT(sk.q_bracket(1)), "q")
        expected = exact.t_power(1 - 2 * k) - exact.t_power(-1 - 2 * k)
        return lowest == expected, str(p)

    return Item(f"lowest-term T(2,{2 * k})", run)


def _conjugate(rng, m, n, strands):
    """T(m,n)'s braid on four strands, conjugated by a random word, then
    stabilized to ``strands``.

    Its closure is still the torus knot, so the trace must give the torus
    formula's normalized value.  Stabilizing last keeps a 5-strand element
    on at most 24 permutations instead of all of S_5.
    """
    base = sk.torus_braid_word(m, n).letters + tuple((k, 1) for k in range(m, 4))
    g = tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(CONJUGATOR_LETTERS))
    g_inv = tuple((i, -s) for i, s in reversed(g))
    stabilizers = tuple((k, 1) for k in range(4, strands))
    word = sk.BraidWord(strands, g + base + g_inv + stabilizers)

    def run():
        p = sk.normalized_homfly_of_closure(word)
        return p == sk.uncolored_homfly_torus_knot(m, n)[1], str(p)

    return Item(f"conjugate T({m},{n}) {strands}:{word}", run)


def hecke_oracle(rng):
    items = [_concordance(m, n) for m, n in ORACLE_KNOTS]
    items += [_lowest_term(k) for k in LOWEST_TERM_TWISTS]
    draw = random.Random(CONJUGATOR_DRAW)
    for strands, count in RANDOM_WORDS:
        for _ in range(count):
            m, n = draw.choice(CONJUGATED_KNOTS)
            items.append(_conjugate(draw, m, n, strands))
    rng.shuffle(items)
    return items


# -- self-test ----------------------------------------------------------------


def selftest(rng):
    """A few cheap items of every kind, for the harness's own self-test."""
    items = [
        _delta_hook(2, 3, sk.Partition((2,))),
        _delta_hook(2, 5, sk.Partition((1, 1))),
        _cli_call(["verify", "--theorem", "thm22"], _verify_passed),
        _cli_call(["unknot", "--color", "(2)"], bool),
        _cli_call(["torus", "--m", "2", "--n", "3", "--components", "1", "--colors", "(1,1)"], bool),
        _concordance(2, 5),
        _lowest_term(1),
        _conjugate(random.Random(CONJUGATOR_DRAW), 2, 5, 4),
    ]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "delta-sweep": delta_sweep,
    "cli-corpus": cli_corpus,
    "hecke-oracle": hecke_oracle,
    "selftest": selftest,
}


def build(name: str, seed: int) -> list:
    """Items of a workload, ordered by the seed."""
    return WORKLOADS[name](random.Random(seed))
