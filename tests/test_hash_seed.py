"""The same CLI bytes under two hash seeds.

``tests/hash_seed_commands.txt`` is the list CI also runs through the
installed console script.  Here one interpreter per ``PYTHONHASHSEED`` runs
every command in process, and the two outputs must match byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = Path(__file__).with_name("hash_seed_commands.txt")

CHILD = """
import contextlib, io, json, shlex, sys
from skein_homfly.cli import main
out = []
for cmd in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(cmd))
    out.append([cmd, code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def commands() -> list:
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def run_under(seed: int, cmds: list) -> list:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cmds), capture_output=True,
        text=True, cwd=ROOT, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_every_command_prints_the_same_bytes_under_both_hash_seeds():
    cmds = commands()
    zero, one = run_under(0, cmds), run_under(1, cmds)
    assert [c for c, code, _ in zero if code != 0] == []
    assert [a[0] for a, b in zip(zero, one) if a != b] == []
    assert len(zero) == len(one) == len(cmds)
