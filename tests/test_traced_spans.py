"""Every function the benchmark traces is still called where the tracer
looks for it.

perfbench wraps each function in ``spans.TRACED`` under the names its
callers look it up by. A refactor that moves a call behind another name
hides it from the traced run without failing anything else; this test runs
the three small workloads traced and fails if any span was never entered.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_span_is_called(tmp_path):
    calls = {name: 0.0 for name, _, _ in spans.TRACED}
    for name, workload in workloads.TINY.items():
        record = harness.run_workload(name, 5, 0.01, True, str(tmp_path), workload=workload)
        assert record["errors"] == [] and record["failed"] == 0, name
        for span in calls:
            calls[span] += record["metrics"][f"{span}.calls"]
    assert [span for span, n in calls.items() if n == 0] == []
