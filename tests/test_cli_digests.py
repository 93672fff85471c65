"""The CLI's bytes, one frozen SHA-256 per call.

``tests/cli_digests.json`` maps each call (its argv, shell-joined) to the
SHA-256 of its argv, exit code and stdout.  The calls are the seven
``verify`` sweeps on the default grid and on ``perfbench/grids/sweeps.json``,
as text and as ``--json``, then the benchmark's single commands
(``perfbench/workloads.CLI_SINGLE``, read only), then the unknot and the
3-component unlink as the torus link T(1, 0), two braid closures with
as many components as strands and with one component on six strands, the
character table of S_11, the unknot colored (10,10), whose class data
has 9-byte slots, braid closures on 1, 8 and 9 strands, whose
permutation codes have 1-, 3- and 4-bit fields, and three t -> 1 limits
on the Durfee-bounded plethysm support: a non-hook color, a link with no
limit, and N = 100.
Every call runs in process; a changed byte names the call it came from.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from skein_homfly.cli import main
from skein_homfly.verify import THEOREMS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("cli_digests.json")

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

EXTRA = (
    'torus --m 1 --n 0 --components 1 --colors "(2,1)"',
    'torus --m 1 --n 0 --components 3 --colors "(1);(2);(1,1)"',
    # closures divided by z^(n - L): L = n = 3, and n - L = 5, the largest
    'homfly-braid --strands 3 --word "1 1 2 2"',
    'homfly-braid --strands 6 --word "1 2 3 4 5"',
    # a character table size no other call builds, half its rows copied
    # from their conjugates
    "characters --n 11",
    # N = 20, the first class data with 9-byte slots, read as two lanes
    'unknot --color "(10,10)"',
    # permutation codes of every field width: one strand, eight strands at
    # the default cap (3-bit fields), nine strands (the first 4-bit fields)
    'homfly-braid --strands 1 --word ""',
    'homfly-braid --strands 8 --word "1 2 3 4 5 6 7 -1 -2 3 4 -5 6 7 1 2"',
    'homfly-braid --strands 9 --word "1 8 -3 4 5 -6 7 2" --max-strands 9',
    # the t -> 1 route on bounded supports: Durfee size 2 with m = 3 (N = 12),
    # a link whose limit does not exist (exit 1), and N = 100, where only
    # the 100 hooks of N are listed
    'special --kind delta --m 3 --n 4 --color "(2,2)"',
    'special --kind delta --m 1 --n 2 --colors "(2);(1)"',
    'special --kind delta --m 10 --n 3 --color "(10)"',
)


def calls() -> list:
    sweeps = [
        ["verify", "--theorem", name, *grid, *fmt]
        for name in sorted(THEOREMS)
        for grid in ((), ("--grid", "perfbench/grids/sweeps.json"))
        for fmt in ((), ("--json",))
    ]
    return sweeps + [shlex.split(c) for c in (*workloads.CLI_SINGLE, *EXTRA)]


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(json.dumps([argv, code, out.getvalue()]).encode()).hexdigest()


def test_every_cli_call_prints_its_frozen_bytes(monkeypatch):
    monkeypatch.chdir(ROOT)  # the grid path in argv is relative to the checkout
    frozen = json.loads(DIGESTS.read_text())
    argvs = calls()
    assert list(frozen) == [shlex.join(a) for a in argvs]
    changed = [shlex.join(a) for a in argvs if digest(a) != frozen[shlex.join(a)]]
    assert changed == []


def test_unknot_command_and_torus_one_zero_print_the_same_bytes(capsys):
    for color in ("(1)", "(2,1)", "(3,1,1)"):
        assert main(["unknot", "--color", color]) == 0
        unknot = capsys.readouterr().out
        assert main(["torus", "--m", "1", "--n", "0", "--components", "1", "--colors", color]) == 0
        assert capsys.readouterr().out == unknot
