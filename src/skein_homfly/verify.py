"""Mechanical verification of symmetry and limit theorems on small grids.

Each verifier sweeps a compiled-in grid (overridable through a JSON config
file) as a plain case loop: it builds a list of case tuples and applies one
module-level check function to each in order, evaluating both sides of an
identity exactly.  The report's failure list is empty exactly when every
case holds; a grid with no cases raises ValueError.  A report holds no
timing, so its text and JSON are the same bytes on every run.  Cases run
in the calling thread: they are pure Python under the GIL and share the
package's caches, so threads would not speed them up.  The sweep
functions still accept ``threads=`` for compatibility; it has no effect.
Repeated in one process, a sweep takes its torus values from those caches,
and the parity lemma counts the inversions and cycles of each degree's
permutations once (``_permutation_classes``), then checks one permutation
per (inversions, cycles) pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import permutations

from .characters import hook_character_identity
from .exact import LaurentQT, RationalQT, limit_at_one, q_bracket, t_power
from .hecke import normalized_homfly_of_closure, perm_cycle_count, perm_length, torus_braid_word
from .partitions import Partition, partitions_of
from .special import alexander_torus, special_delta, special_H
from .torus import TorusLinkSpec, colored_homfly

DEFAULT_KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))
# 2-component torus links on (m, n, L) = (1, k, 2): the (2, 2k) family
DEFAULT_LINKS = ((1, 1, 2), (1, 2, 2))
DEFAULT_MAX_COLOR = 4
DEFAULT_HOOK_MAX = 5
DEFAULT_PARITY_MAX = 7
DEFAULT_HOOK_IDENTITY_MAX = 8
DEFAULT_LOWEST_TERM_TWISTS = (1, 2, 3)
#: grid keys that hold lists: key -> (entry width, 0 for plain ints; shape)
_LIST_KEYS = {
    "knots": (2, "a list of [m, n] integer pairs"),
    "links": (3, "a list of [m, n, L] integer triples"),
    "lowest_term_twists": (0, "a list of integers"),
}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theorem sweep; empty failures means pass."""

    theorem: str
    grid: str
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """A status line, then one line per failure."""
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"theorem={self.theorem} grid={self.grid} cases={self.cases} "
            f"failures={len(self.failures)} {status}"
        ]
        for case, expected, actual in self.failures:
            lines.append(f"  case {case}: expected {expected}, got {actual}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "grid": self.grid,
            "cases": self.cases,
            "failures": [list(f) for f in self.failures],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GridConfig:
    """Grid sizes for the verification sweeps."""

    knots: tuple = DEFAULT_KNOTS
    links: tuple = DEFAULT_LINKS
    max_color: int = DEFAULT_MAX_COLOR
    hook_max: int = DEFAULT_HOOK_MAX
    parity_max: int = DEFAULT_PARITY_MAX
    hook_identity_max: int = DEFAULT_HOOK_IDENTITY_MAX
    lowest_term_twists: tuple = DEFAULT_LOWEST_TERM_TWISTS

    @classmethod
    def load(cls, path: str) -> "GridConfig":
        """Read a JSON object of grid keys.

        An unknown key, or a value of the wrong type or shape, raises a
        ValueError naming the key.
        """
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a grid file holds one JSON object")
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(f"unknown grid key(s) {unknown}; known keys are {known}")
        return cls(**{key: _grid_value(key, v) for key, v in raw.items()})


def _grid_value(key: str, v):
    """A grid file value checked for type and shape, its lists made tuples."""
    width, shape = _LIST_KEYS.get(key, (None, "an integer"))
    if width is None:
        ok = type(v) is int
    elif width == 0:
        ok = isinstance(v, list) and all(type(x) is int for x in v)
    else:
        ok = isinstance(v, list) and all(
            isinstance(x, list) and len(x) == width and all(type(y) is int for y in x) for x in v
        )
    if not ok:
        raise ValueError(f"grid key {key!r} must be {shape}, got {json.dumps(v)}")
    return v if width is None else tuple(tuple(x) if width else x for x in v)


def _sweep(theorem: str, grid: str, check, cases) -> VerificationReport:
    """Apply ``check(*case)`` to each case tuple in order.

    A check returns None when its case holds, else a failure triple
    (case, expected, actual).
    """
    if not cases:
        raise ValueError(f"{theorem} has no cases on the grid {grid}")
    failures = tuple(r for r in (check(*case) for case in cases) if r is not None)
    return VerificationReport(theorem, grid, len(cases), failures)


# -- color grids --------------------------------------------------------


def _colors_up_to(max_size: int):
    """All non-empty partitions of size <= max_size."""
    return [a for d in range(1, max_size + 1) for a in partitions_of(d)]


def _hooks_up_to(max_size: int):
    return [Partition((a + 1,) + (1,) * (d - 1 - a)) for d in range(1, max_size + 1) for a in range(d)]


def _link_color_vectors(max_total: int):
    """All pairs of non-empty colors with total size <= max_total."""
    out = []
    for d1 in range(1, max_total):
        for d2 in range(1, max_total - d1 + 1):
            for a in partitions_of(d1):
                for b in partitions_of(d2):
                    out.append((a, b))
    return out


def _link_twists(config: GridConfig):
    """(m, n) of each grid link; every sweep over links reads them here."""
    if any(L != 2 for _, _, L in config.links):
        raise ValueError("only 2-component links in the default grids")
    return [(m, n) for m, n, _ in config.links]


def _symmetry_grid(config: GridConfig):
    colors = _colors_up_to(config.max_color)
    specs = [TorusLinkSpec(m, n, 1, (a,)) for m, n in config.knots for a in colors]
    for m, n in _link_twists(config):
        for a, b in _link_color_vectors(config.max_color):
            specs.append(TorusLinkSpec(m, n, 2, (a, b)))
    return specs


# -- symmetry theorems ---------------------------------------------------


def _check_symmetry(spec, q_target: str):
    w = colored_homfly(spec).value
    wt = colored_homfly(spec.conjugate_colors()).value
    if q_target == "q^-1":
        odd = sum(c.size for c in spec.all_colors()) % 2
    else:
        odd = sum(c.k_invariant() for c in spec.all_colors()) % 2
    # a negation, not a RationalQT product with -1 that renormalizes
    if w.substituted(q=q_target) != (-wt if odd else wt):
        return (str(spec), f"{q_target} image matches transposed colors", "mismatch")
    return None


def _symmetry_sweep(theorem: str, q_target: str, config: GridConfig) -> VerificationReport:
    config = config or GridConfig()
    grid = f"knots={list(config.knots)} links={list(config.links)} |colors|<={config.max_color}"
    return _sweep(theorem, grid, _check_symmetry, [(s, q_target) for s in _symmetry_grid(config)])


def verify_symmetry_q_inverse(config: GridConfig = None, threads=None) -> VerificationReport:
    """W(q^-1, t) = (-1)^(total boxes) * W with all colors transposed."""
    return _symmetry_sweep("thm72", "q^-1", config)


def verify_symmetry_neg_q_inverse(config: GridConfig = None, threads=None) -> VerificationReport:
    """W(-q^-1, t) = (-1)^(sum of framing exponents) * W with colors transposed."""
    return _symmetry_sweep("thm71", "-q^-1", config)


# -- special polynomial theorems -----------------------------------------


def _check_H(spec, bases: dict):
    lhs = special_H(spec).value
    if spec.L == 2:
        # components of these links are unknots, so the product form is 1
        if lhs != LaurentQT.one():
            return (str(spec), "H = 1 for unknot components", str(lhs))
        return None
    (a,) = spec.colors
    # the single-box H of each knot, computed once per sweep
    if (spec.m, spec.n) not in bases:
        bases[spec.m, spec.n] = special_H(TorusLinkSpec(spec.m, spec.n, 1, (Partition((1,)),))).value
    if lhs != bases[spec.m, spec.n] ** a.size:
        return (str(spec), "H equals single-box H to the |A|", "mismatch")
    return None


def verify_special_H(config: GridConfig = None, threads=None) -> VerificationReport:
    """Multiplicativity of the q->1 special polynomial in the color size."""
    config = config or GridConfig()
    colors = _colors_up_to(config.max_color)
    bases = {}
    cases = [
        (TorusLinkSpec(m, n, 1, (a,)), bases) for m, n in config.knots for a in [Partition(()), *colors]
    ]
    box = Partition((1,))
    cases += [(TorusLinkSpec(m, n, 2, (box, box)), bases) for m, n in _link_twists(config)]
    grid = f"knots={list(config.knots)} |A|<={config.max_color} plus single-box links"
    # with no knot or no non-empty color the sweep would check empty colors and links only
    return _sweep("thm62", grid, _check_H, cases if colors and config.knots else [])


def _check_delta(spec, hook: bool):
    (a,) = spec.colors
    holds = special_delta(spec).value == alexander_torus(spec.m, spec.n, a.size)
    if hook and not holds:
        return (str(spec), "t->1 limit equals Alexander at q^|A|", "mismatch")
    if holds and not hook:
        return (str(spec), "non-hook color must break the q^|A| rule", "equality held")
    return None


def verify_special_delta(config: GridConfig = None, threads=None) -> VerificationReport:
    """Hook colors reduce the t->1 limit to the Alexander polynomial at q^|A|.

    The grid also confirms the non-hook counterexample: (2,2) on the
    (2,3) torus knot must NOT satisfy the hook identity.
    """
    config = config or GridConfig()
    cases = [
        (TorusLinkSpec(m, n, 1, (a,)), True)
        for m, n in config.knots
        for a in _hooks_up_to(config.hook_max)
    ]
    # with no hook case the sweep would check the counterexample only
    if cases:
        cases.append((TorusLinkSpec(2, 3, 1, (Partition((2, 2)),)), False))
    grid = f"knots={list(config.knots)} hooks |A|<={config.hook_max} + counterexample"
    return _sweep("thm64", grid, _check_delta, cases)


# -- combinatorial lemmas -------------------------------------------------


def _check_hook_identity(b):
    if not hook_character_identity(b):
        return (str(b), "hook alternating sum equals bracket product", "mismatch")
    return None


def verify_hook_character_identity(config: GridConfig = None, threads=None) -> VerificationReport:
    """Exhaustive hook character generating identity for all classes."""
    config = config or GridConfig()
    cases = [(b,) for d in range(1, config.hook_identity_max + 1) for b in partitions_of(d)]
    return _sweep("lemma65", f"|B| <= {config.hook_identity_max}", _check_hook_identity, cases)


@lru_cache(maxsize=8)
def _permutation_classes(d: int) -> dict:
    """{(inversions, cycles): the first permutation of range(d), in
    lexicographic order, with that pair}; the sweep caps d at 8."""
    out = {}
    for pi in permutations(range(d)):
        out.setdefault((perm_length(pi), perm_cycle_count(pi)), pi)
    return out


def _check_parity(d: int):
    # parity depends on the pair alone, and the first failing permutation is
    # the first of its class, so this names the one a full loop would
    for (inversions, cycles), pi in _permutation_classes(d).items():
        if (inversions + cycles - d) % 2:
            return (str(pi), f"parity {d % 2}", "parity mismatch")
    return None


def verify_permutation_parity(n: int = DEFAULT_PARITY_MAX, threads=None) -> VerificationReport:
    """Inversion count plus cycle count has the parity of the degree."""
    if n > 8:
        raise ValueError("parity sweep capped at n = 8")
    cases = [(d,) for d in range(1, n + 1)]
    return _sweep("lemma73", f"all permutations, degree <= {n}", _check_parity, cases)


def _check_lowest_term(k: int):
    p = normalized_homfly_of_closure(torus_braid_word(2, 2 * k))
    lowest = limit_at_one(p * RationalQT(q_bracket(1)), "q")
    expected = t_power(1 - 2 * k) - t_power(-1 - 2 * k)
    if lowest != expected:
        return (f"T(2,{2 * k})", str(expected), str(lowest))
    return None


def verify_lowest_term(config: GridConfig = None, threads=None) -> VerificationReport:
    """Lowest coefficient of the 2-component expansion in powers of q - q^-1.

    For the (2, 2k) torus links the coefficient at (q - q^-1)^(-1),
    extracted as the q->1 limit of (q - q^-1) * P, must be
    t^(-2k) (t - t^-1) with both components unknots.  The exponent is
    -2k under the orientation convention that makes the quadratic skein
    relation, the single-box specialization, and this expansion mutually
    consistent: the closure of the positive 2-braid carries linking
    number -k there.
    """
    config = config or GridConfig()
    cases = [(k,) for k in config.lowest_term_twists]
    grid = f"T(2,2k) for k in {list(config.lowest_term_twists)}"
    return _sweep("thm22", grid, _check_lowest_term, cases)


# -- registry -------------------------------------------------------------

THEOREMS = {
    "thm62": verify_special_H,
    "thm64": verify_special_delta,
    "thm71": verify_symmetry_neg_q_inverse,
    "thm72": verify_symmetry_q_inverse,
    "lemma65": verify_hook_character_identity,
    "lemma73": lambda config: verify_permutation_parity((config or GridConfig()).parity_max),
    "thm22": verify_lowest_term,
}


def run_theorem(name: str, config: GridConfig = None, threads=None) -> VerificationReport:
    """Run one registered sweep; ``threads`` is accepted and has no effect."""
    if name not in THEOREMS:
        raise KeyError(f"unknown theorem {name!r}; choose from {sorted(THEOREMS)}")
    return THEOREMS[name](config)
