"""The CLI's bytes, one frozen SHA-256 per call.

``tests/cli_digests.json`` maps each call (its argv, shell-joined) to the
SHA-256 of its argv, exit code and stdout.  The calls are the seven
``verify`` sweeps on the default grid and on ``perfbench/grids/sweeps.json``,
as text and as ``--json``, then the benchmark's single commands
(``perfbench/workloads.CLI_SINGLE``, read only), then the unknot and the
3-component unlink as the torus link T(1, 0), and two braid closures with
as many components as strands and with one component on six strands.
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
