"""Self-test of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end):
    return [name, spans.SETUP_PHASE, parent, start, end]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 1, 2.0, 3.5),
        _span("d", 0, 5.0, 9.0),
        _span("e", -1, 11.0, 12.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 4.0, 1.0])


def test_layer_metrics_count_setup_once_and_average_repeats():
    tracer = spans.Tracer()
    tracer.spans = [
        ["numerics.gelu", spans.SETUP_PHASE, -1, 0.0, 1.0],
        ["numerics.gelu", "repeat-1", -1, 2.0, 4.0],
        ["numerics.gelu", "repeat-3", -1, 5.0, 9.0],
        ["numerics.gelu", "repeat-2", -1, 10.0, 20.0],  # an untraced phase: ignored
    ]
    out = tracer.layer_metrics(["repeat-1", "repeat-3"])
    assert out["numerics.gelu.s"] == pytest.approx(1.0 + (2.0 + 4.0) / 2)
    assert out["numerics.gelu.calls"] == pytest.approx(2.0)
    assert set(out) == {name for name, _, _ in spans.per_layer_specs()}


def test_ratio_and_quartile_spread():
    assert harness.ratio(3.0, 4.0) == 0.75
    assert harness.ratio(1.0, 0.0) == 0.0
    values = [9.0, 10.0, 11.0, 10.5, 9.5, 12.0, 10.0, 8.0, 10.2, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert steady.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def _patched_objects():
    objs = {}
    for span, sites, _ in spans.TRACED:
        attr = span.rsplit(".", 1)[1]
        for site in sites:
            owner = spans._resolve(site)
            objs[(site, attr)] = vars(owner)[attr]
    return objs


def test_tracer_restores_every_patched_attribute_even_after_an_error():
    before = _patched_objects()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed("repeat-1"):
            assert all(_patched_objects()[key] is not obj for key, obj in before.items())
            raise RuntimeError("boom")
    after = _patched_objects()
    assert all(after[key] is obj for key, obj in before.items())


def test_traced_call_records_nested_spans_and_counters():
    import numpy as np

    from nanobert import model
    from nanobert.rng import Rng

    cfg = model.ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                            vocab_size=20, max_positions=6, dropout=0.1)
    params = model.init_params(cfg, Rng(0))
    ids = np.array([[1, 7, 8, 2, 0, 0]])
    mask = (ids != 0).astype(np.int64)
    tracer = spans.Tracer()
    with tracer.installed("repeat-1"):
        from nanobert import pretrain

        pretrain.encoder_forward_with_cache(cfg, params, ids, mask, dropout_rng=Rng(1))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "model.encoder_forward_with_cache"
    assert {"numerics.gelu", "numerics.softmax", "rng.Rng.random"} <= set(names)
    assert all(s[2] == 0 for s in tracer.spans[1:])
    out = tracer.layer_metrics(["repeat-1"])
    assert out["model.positions"] == 6
    assert out["model.pad_share"] == pytest.approx(2 / 6)
    assert out["model.cache_mb"] > 0
    assert out["rng.random.draws"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_specs()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_end_to_end(name, trace, tmp_path):
    before = _patched_objects()
    record = harness.run_workload(name, 5, 0.01, trace, str(tmp_path),
                                  workload=workloads.TINY[name])
    assert record["errors"] == [] and record["failed"] == 0
    assert len(record["repeats"]) == harness.MIN_REPEATS
    expected = spans.per_layer_specs() if trace else harness.END_TO_END
    assert [n for n, _, _ in expected if n not in record["metrics"]] == []
    after = _patched_objects()
    assert all(after[key] is obj for key, obj in before.items())
    assert [p.name for p in tmp_path.iterdir()] == (
        [f"{name}-seed5.spans.json"] if trace else [])


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain-narrow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
