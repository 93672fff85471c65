"""The benchmark workloads' outputs, checked against their frozen hashes.

``perfbench/expected.json`` holds the SHA-256 of every workload item's
canonical output.  Running each workload once here makes a change to the
printed bytes fail the test suite, not only the benchmark.  The test only
reads ``perfbench/``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["delta-sweep", "cli-corpus", "hecke-oracle"])
def test_workload_outputs_match_frozen_hashes(name):
    items = workloads.build(name, 0)
    expected = worker.load_expected(name)
    _, failures = worker.run_pass(items, expected)
    assert failures == []
    assert len(expected) == len(items)


def test_bench_names_resolve():
    # a renamed or removed entry point or cache fails here, not only in a traced run
    for module, path in spans.ENTRY_POINTS.values():
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr)), path
    for module, attr in spans.CACHES.values():
        assert getattr(spans._module(module), attr).cache_info() is not None, attr
