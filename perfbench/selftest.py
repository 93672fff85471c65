"""Self-test of the benchmark harness on the tiny ``selftest`` workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- both modes print every metric of BENCHMARK.json, by name and unit;
- a corrupted frozen hash is reported as a failure;
- traced spans nest inside their parents, spans opened on pool threads hang
  under the span that started the pool, and no self time is negative;
- in a directory holding only the benchmark, the command fails without a
  result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import worker  # noqa: E402


class CheckFailed(Exception):
    pass


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def run_bench(trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "selftest",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spans_file = None
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(trace)
        check(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, "tiny run failed")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"trace {trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
        for name, m in result["metrics"].items():
            check(isinstance(m["value"], (int, float)), f"{name} is not a number")
        provenance = json.loads(lines[-2])["provenance"]
        for field in ("git_commit", "python", "nproc", "cpu_count", "seed", "samples"):
            check(field in provenance, f"provenance lacks {field}")
        if trace:
            spans_file = provenance["spans_file"]
    return spans_file


def test_corrupted_hash_fails():
    import workloads

    items = workloads.build("selftest", 3)
    expected = worker.load_expected("selftest")
    _, failures = worker.run_pass(items, expected)
    check(not failures, f"clean run failed: {failures}")
    victim = items[0].id
    corrupted = dict(expected, **{victim: "0" * 64})
    _, failures = worker.run_pass(items, corrupted)
    check(len(failures) == 1 and failures[0].startswith(victim), f"corruption not reported: {failures}")
    _, failures = worker.run_pass(items, {k: v for k, v in expected.items() if k != victim})
    check(len(failures) == 1 and "no frozen hash" in failures[0], f"missing hash not reported: {failures}")


def test_recorded_spans(spans_file):
    with open(os.path.join(ROOT, spans_file)) as fh:
        recorded = [tuple(json.loads(line)) for line in fh]
    check(recorded, "no spans recorded")
    problems = spans.check_spans(recorded)
    check(not problems, "; ".join(problems[:5]))


def test_pool_threads_and_self_time():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: traced_leaf(), range(4)))
        traced_leaf()

    tracer.wrap("fan_out", fan_out)()
    root = next(s for s in tracer.spans if s[1] == "fan_out")
    leaves = [s for s in tracer.spans if s[1] == "leaf"]
    check(len(leaves) == 5 and all(s[4] == root[0] for s in leaves), "pool spans lost their parent")
    check(not spans.check_spans(tracer.spans), "pool spans do not nest")
    # overlapping children count once: they cover 0..2 and 3..3.5 of the parent's 0..4
    synthetic = [(1, "p", 0.0, 4.0, None, None), (2, "c", 0.0, 1.0, 1, None),
                 (3, "c", 0.5, 2.0, 1, None), (4, "c", 3.0, 3.5, 1, None)]
    check(abs(spans.self_times(synthetic)[1] - 1.5) < 1e-12, "self time of overlapping children")


def test_bare_directory_fails():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "bare directory produced a result")


def main():
    try:
        spans_file = test_metric_names_and_units()
        test_corrupted_hash_fails()
        test_recorded_spans(spans_file)
        test_pool_threads_and_self_time()
        test_bare_directory_fails()
    except CheckFailed as e:
        print(f"selftest: FAIL: {e}")
        return 1
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
