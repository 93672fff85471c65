"""Command line driver with deterministic, exact output.

Subcommands: torus, unknot, characters, plethysm, special, homfly-braid,
verify.  Output bytes depend only on the inputs; ``--threads`` is accepted
for compatibility and has no effect.  Exit codes: 0 success, 1 mathematical
failure (named in the message), 2 usage error (bad arguments, an invalid
spec or an unreadable grid file).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .characters import character_table
from .errors import SkeinError
from .exact import RationalQT, canonical_text, laurent_to_json
from .hecke import BraidWord, framed_homfly_of_closure, normalized_homfly_of_closure
from .partitions import Partition, PartitionVector, integer
from .schur import plethysm_coefficients, unknot_value
from .special import format_delta_basis, special_delta, special_H
from .torus import TorusLinkSpec, colored_homfly_torus
from .verify import THEOREMS, GridConfig, run_theorem


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _vector_arg(text: str) -> PartitionVector:
    try:
        return PartitionVector.parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _print_rational(value: RationalQT, as_json: bool):
    if as_json:
        wire = {"num": laurent_to_json(value.num), "den": laurent_to_json(value.den)}
        print(json.dumps(wire, separators=(",", ":")))
    else:
        print(value)


def _cmd_torus(args) -> int:
    spec = TorusLinkSpec(args.m, args.n, args.components, args.colors)
    inv = colored_homfly_torus(spec)
    _print_rational(inv.value, args.json)
    return 0


def _cmd_unknot(args) -> int:
    _print_rational(unknot_value(args.color), args.json)
    return 0


def _cmd_characters(args) -> int:
    table = character_table(args.n)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(mu) for mu in table.index])
    for lam in table.index:
        writer.writerow([str(lam)] + [str(v) for v in table.row(lam)])
    sys.stdout.write(buf.getvalue())
    return 0


def _cmd_plethysm(args) -> int:
    expansion = plethysm_coefficients(args.m, args.colors)
    print(expansion)
    return 0


def _cmd_special(args) -> int:
    if args.colors is not None:
        spec = TorusLinkSpec(args.m, args.n, len(args.colors), args.colors)
    else:
        spec = TorusLinkSpec(args.m, args.n, 1, (args.color,))
    result = special_H(spec) if args.kind == "H" else special_delta(spec)
    render = format_delta_basis if args.basis == "delta" else canonical_text
    print(render(result.value))
    return 0


def _cmd_homfly_braid(args) -> int:
    word = BraidWord.parse(
        args.strands, args.word, max_strands=args.max_strands, max_letters=args.max_word
    )
    bracket = framed_homfly_of_closure(word)
    normalized = normalized_homfly_of_closure(word)
    print(f"bracket = {bracket}")
    print(f"writhe = {word.writhe}")
    print(f"P = {normalized}")
    return 0


def _cmd_verify(args) -> int:
    try:
        config = GridConfig.load(args.grid) if args.grid else GridConfig()
    except OSError as e:
        raise ValueError(f"cannot read grid file: {e}") from None
    report = run_theorem(args.theorem, config)
    if args.json:
        print(json.dumps(report.to_dict(), separators=(",", ":")))
    else:
        print(report.summary())
    return 0 if report.passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skein-homfly",
        description="Exact colored HOMFLY invariants of torus links and their limits.",
    )
    parser.add_argument(
        "--threads",
        type=integer,
        default=None,
        help="accepted for compatibility; verification sweeps run serially",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torus", help="colored invariant of a torus link")
    p.add_argument("--m", type=integer, required=True, help="strands per component")
    p.add_argument("--n", type=integer, required=True, help="twists per component (may be negative)")
    p.add_argument("--components", type=integer, required=True, help="number of components L")
    p.add_argument("--colors", type=_vector_arg, required=True, help='e.g. "(2);(1,1)"')
    p.add_argument("--json", action="store_true", help="serialized polynomial output")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("unknot", help="colored unknot value")
    p.add_argument("--color", type=_partition_arg, required=True, help='e.g. "(2)"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_unknot)

    p = sub.add_parser("characters", help="symmetric group character table as CSV")
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("plethysm", help="Schur expansion of cabled colors")
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--colors", type=_vector_arg, required=True)
    p.set_defaults(func=_cmd_plethysm)

    p = sub.add_parser("special", help="limit polynomial of a colored torus link")
    p.add_argument("--kind", choices=("H", "delta"), required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--color", type=_partition_arg, help="single knot color")
    group.add_argument("--colors", type=_vector_arg, help="one color per component")
    p.add_argument("--basis", choices=("monomial", "delta"), default="monomial")
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("homfly-braid", help="framed invariant of a braid closure")
    p.add_argument("--strands", type=integer, required=True)
    p.add_argument("--word", type=str, required=True, help='"s1 s2 s1^-1" or "1 2 -1"')
    p.add_argument("--max-strands", type=integer, default=None, help="raise the strand cap (default 8)")
    p.add_argument("--max-word", type=integer, default=None, help="raise the word length cap (default 64)")
    p.set_defaults(func=_cmd_homfly_braid)

    p = sub.add_parser("verify", help="run a theorem verification sweep")
    p.add_argument("--theorem", choices=sorted(THEOREMS), required=True)
    p.add_argument("--grid", type=str, default=None, help="JSON grid config file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SkeinError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        # invalid specs, braid text, grid files: usage errors, like argparse's
        return 2 if isinstance(e, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
