"""One benchmark process: runs a workload's items and prints one JSON line.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH, so
every ``lru_cache`` of the package starts empty.  Modes:

- ``run``: the cold pass, then one warm pass over the same items in the
  same process; every item's latency in both passes, and the calibration
  kernel's times around the items (calibrate.py), go into the JSON line.
- ``trace``: the cold pass only, with spans around every entry point; the
  spans go to ``--spans`` and the per-layer metrics into the JSON line.
- ``record``: write the SHA-256 of every item of every workload to
  ``expected.json``.  Outputs must never change, so it refuses to replace a
  hash already recorded there; use it only for items added to a workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import calibrate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(items, expected, tracer=None, kernel_times=None):
    """Run every item once, closed loop; return (latencies, failure messages).

    An item fails when it raises, when its independent check is false, or
    when its output does not hash to the frozen value.  Given a list
    ``kernel_times``, the calibration kernel is timed before the first item
    and after every item, and its times are appended there.
    """
    latencies, failures = [], []
    if kernel_times is not None:
        kernel_times.append(calibrate.time_kernel())
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            ok, text = item.run()
            error = None
        except Exception as e:  # an item that raises is a failed request
            error = e
        latencies.append(time.perf_counter() - start)
        if kernel_times is not None:
            kernel_times.append(calibrate.time_kernel())
        if error is not None:
            failures.append(f"{item.id}: raised {type(error).__name__}: {error}")
        elif not ok:
            failures.append(f"{item.id}: independent check failed")
        else:
            want = expected.get(item.id)
            if want is None:
                failures.append(f"{item.id}: no frozen hash")
            elif digest(text) != want:
                failures.append(f"{item.id}: output hash {digest(text)[:12]} != frozen {want[:12]}")
    if tracer is not None:
        tracer.item = None
    return latencies, failures


def load_expected(workload):
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload, {})


def pin_to_one_cpu():
    """Keep this process, its ``verify`` pool threads included, on one CPU.

    The calibration kernel then measures the CPU that runs the items.  The
    package's pure-Python threads hold the GIL, so they gain nothing from a
    second CPU; the CLI still starts its default ``os.cpu_count()`` threads.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed):
    import workloads

    items = workloads.build(workload, seed)
    expected = load_expected(workload)
    calibrate.time_kernel()  # its first run in a fresh process is slower
    cold_kernel, warm_kernel = [], []
    cold, failures = run_pass(items, expected, kernel_times=cold_kernel)
    warm, more = run_pass(items, expected, kernel_times=warm_kernel)
    return {
        "cold": cold,
        "cold_kernel": cold_kernel,
        "warm": warm,
        "warm_kernel": warm_kernel,
        "attempted": 2 * len(items),
        "failures": failures + more,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(workload, seed, spans_path):
    tracer = spans.Tracer()
    tracer.install()
    import workloads

    items = workloads.build(workload, seed)
    calibrate.time_kernel()
    kernel_times = []
    latencies, failures = run_pass(items, load_expected(workload), tracer, kernel_times)
    tracer.uninstall()
    with open(spans_path, "w") as fh:
        for record in tracer.spans:
            fh.write(json.dumps(record) + "\n")
    layers = spans.layer_metrics(tracer.spans, tracer.counts)
    return {
        "cold": latencies,
        "cold_kernel": kernel_times,
        "attempted": len(items),
        "failures": failures,
        "layers": {name: list(pair) for name, pair in layers.items()},
        "spans": len(tracer.spans),
    }


def record():
    import workloads

    with open(EXPECTED) as fh:
        recorded = json.load(fh)
    out = {}
    for name in workloads.WORKLOADS:
        hashes = {}
        for item in workloads.build(name, 0):
            ok, text = item.run()
            if not ok:
                raise SystemExit(f"refusing to record: {item.id} fails its independent check")
            hashes[item.id] = digest(text)
            if recorded.get(name, {}).get(item.id, hashes[item.id]) != hashes[item.id]:
                raise SystemExit(f"refusing to record: the output of {item.id} changed")
        out[name] = dict(sorted(hashes.items()))
    with open(EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"recorded": {name: len(h) for name, h in out.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "trace", "record"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    import skein_homfly

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(skein_homfly.__file__).startswith(src + os.sep):
        raise SystemExit(f"skein_homfly imported from {skein_homfly.__file__}, not from {src}")
    if args.mode == "record":
        result = record()
    elif args.mode == "trace":
        result = measure_traced(args.workload, args.seed, args.spans)
    else:
        result = measure(args.workload, args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
