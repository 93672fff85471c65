"""Benchmark of the exact torus-link engine: one workload, one JSON result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload delta-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``delta-sweep``, ``cli-corpus``, ``hecke-oracle``; ``selftest`` is a tiny
mix used by selftest.py.  Every workload is a closed loop, one item at a
time; the seed permutes the item order.

A run is rounds until --seconds have passed, at least MIN_ROUNDS.  Each
round times SETUP_PER_ROUND fresh imports and starts one fresh worker
process, so every ``lru_cache`` is empty for its cold pass; the worker then
runs the same items again in a warm pass.  Every round runs the
same items in the same order, so an item does the same work in every
round's cold pass.

The host is a few vCPUs of a shared machine whose speed swings by up to a
half within seconds and drifts for minutes.  So the worker times a fixed
calibration kernel between every two items, and every item latency is
scaled to the kernel's reference speed (calibrate.py): the time the item
would take on a host that runs the kernel in ``calibrate.REFERENCE_S``.
An item's cold time is the median of its scaled latencies over the rounds'
cold passes, its warm time the median over their warm passes.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, measured
untraced:

- ``setup_s``: median wall time of a fresh interpreter running
  ``import skein_homfly`` (one untimed launch first writes bytecode), not
  scaled;
- ``wall_s``: the cold pass, first item to last: the sum of the items' cold
  times;
- ``warm_s``: the warm pass, the same items again in the same process after
  the cold pass: the sum of the items' warm times;
- ``item_p50_s`` / ``item_tail_s``: median and tail of the items' cold
  times; the tail is the highest of TAIL_PERCENTILES with at least
  TAIL_BEYOND items beyond it;
- ``peak_rss_mb``: median over rounds of the worker's ``ru_maxrss``;
- ``pass_ratio``: item runs that passed every check over item runs attempted.

With ``--trace 1`` the rounds run as above, then one more fresh process
runs one cold pass with spans around every public entry point (spans.py);
the last line carries the per-layer metrics and ``trace.overhead_s``, that
traced cold pass, scaled the same way, minus the untraced ``wall_s``.

The line before the last is the provenance of the result.  The whole result
and the spans are also written to ``.perfbench_out/``.  The command exits
1 when any item failed, 2 when it could not measure (no ``src/`` here, a
worker crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("delta-sweep", "cli-corpus", "hecke-oracle", "selftest")
IMPORT = ["-c", "import skein_homfly"]
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# a run must end within 180 s; stop waiting well before that
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class MeasureError(Exception):
    """The benchmark could not produce a measurement."""


def _src_digest(src):
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit(root):
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise MeasureError("out of time")
        return left

    def launch(self, args):
        """Run a child interpreter to completion; return (seconds, stdout)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired:
            raise MeasureError(f"{args[:2]} ran out of time")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise MeasureError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return elapsed, proc.stdout

    def worker(self, *args):
        _, out = self.launch([os.path.join(HERE, "worker.py"), *args])
        lines = out.strip().splitlines()
        if not lines:
            raise MeasureError("worker printed no result")
        return json.loads(lines[-1])


def _per_item(passes):
    """Each item's median over passes, each pass a list of its item times."""
    return [statistics.median(times) for times in zip(*passes)]


def tail(latencies):
    """The highest of TAIL_PERCENTILES with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); nearest-rank percentiles.
    With too few samples for any of them, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n) - 1
        if n - rank - 1 >= TAIL_BEYOND:
            return ordered[rank], pct, n - rank - 1
    return ordered[-1], 100.0, 0


def end_to_end(setup, rounds, attempted, failed):
    cold = _per_item([calibrate.adjusted(r["cold"], r["cold_kernel"]) for r in rounds])
    warm = _per_item([calibrate.adjusted(r["warm"], r["warm_kernel"]) for r in rounds])
    value, pct, beyond = tail(cold)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(cold), "s"),
        "warm_s": (sum(warm), "s"),
        "item_p50_s": (statistics.median(cold), "s"),
        "item_tail_s": (value, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    samples = {
        "rounds": len(rounds),
        "setup_launches": len(setup),
        "items": len(cold),
        "tail_percentile": pct,
        "tail_items_beyond": beyond,
    }
    raw = {
        "setup_s": setup,
        "cold_pass_unadjusted_s": [sum(r["cold"]) for r in rounds],
        "warm_pass_unadjusted_s": [sum(r["warm"]) for r in rounds],
        "kernel_s": [x for r in rounds for x in r["cold_kernel"]],
        "item_cold_s": cold,
        "item_warm_s": warm,
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    return metrics, samples, raw


def measure(args, root):
    """Rounds of fresh processes until --seconds have passed, then the traced pass.

    Each round times SETUP_PER_ROUND imports and runs one worker: a cold pass
    over the items in the order the seed draws, then a warm pass over them.
    """
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    runner.launch(IMPORT)  # writes the bytecode caches; not timed
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, rounds = [], []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        setup += [runner.launch(IMPORT)[0] for _ in range(SETUP_PER_ROUND)]
        rounds.append(runner.worker("--mode", "run", *common))
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    metrics, samples, raw = end_to_end(setup, rounds, attempted, len(failures))
    spans_file = None
    if args.trace:
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = runner.worker("--mode", "trace", *common, "--spans", spans_file)
        traced_wall = sum(calibrate.adjusted(traced["cold"], traced["cold_kernel"]))
        untraced_wall = metrics["wall_s"][0]
        metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        attempted += traced["attempted"]
        failures += traced["failures"]
        samples["spans"] = traced["spans"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "samples": samples,
        "spans_file": spans_file,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return provenance, result, failures, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skein_homfly", "__init__.py")):
        print("error: run from the root of a checkout holding src/skein_homfly", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    try:
        provenance, result, failures, raw = measure(args, root)
    except MeasureError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, OUT_DIR, name), "w") as fh:
        json.dump({"provenance": provenance, "failures": failures, **result, "raw": raw}, fh)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
