"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps them out of the package's own test collection.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from elgar.denoiser import DenoiserConfig  # noqa: E402

TINY_NET = DenoiserConfig(blocks=1, dim=16, heads=2)
TINY = {
    "train": lambda: workloads.Train(n_scores=1, notes_per_score=4, steps_per_op=1, config=TINY_NET),
    "generate": lambda: workloads.Generate(clips_s=(1.0, 5.5), ddim_steps=2, config=TINY_NET),
    "score": lambda: workloads.Score(take_s=1.5),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_untraced_and_traced(name, tmp_path, monkeypatch):
    wl = TINY[name]()
    ctx = wl.setup(7, tmp_path)
    ops = run.measure(wl, ctx, count=wl.cycle)
    assert [op.error for op in ops] == [None] * wl.cycle
    host = []
    run.sample_host(0.0, host)
    metrics, rows = run.end_to_end(wl, ops, [0.1], host)
    assert set(metrics) == {n for n, _ in run.E2E}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert ("ops_failed", 0, "count") in [row[:3] for row in rows]

    import elgar.losses
    import elgar.skeleton

    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    layer, all_ops, _, balanced = run.traced(wl, ctx, 0.0, tracing.Tracer(), 0.0)
    assert [op.error for op in all_ops] == [None] * len(all_ops)
    assert list(layer) == [n for n, _, _ in tracing.PER_LAYER]
    assert balanced
    assert layer["trace.wall_ms"] > 0
    assert wl.final_check(ctx) is None
    assert elgar.losses.fk_world is elgar.skeleton.fk_world  # wrappers removed


def test_traced_counts_are_exact(tmp_path, monkeypatch):
    wl = TINY["score"]()
    ctx = wl.setup(3, tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    layer, *_ = run.traced(wl, ctx, 0.0, tracing.Tracer(), 0.0)
    # preprocess annotates once, evaluate runs FK six times with --gt
    assert layer["skeleton.fk_world.calls_per_take"] == 7
    assert layer["cello.select_intent.calls_per_voiced_frame"] > 0


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span("bench.op", 0.0, 10.0, -1),  # 0
        _span("a.f", 1.0, 4.0, 0),  # 1
        _span("b.g", 3.0, 6.0, 0),  # 2: overlaps its sibling 1
        _span("a.h", 2.0, 3.0, 1),  # 3: nested in 1
        _span("c.k", 8.0, 9.0, 0),  # 4
        _span("c.k", 8.5, 9.5, 4),  # 5: runs past its parent, clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 0.5, 1])
    s = tracing.summarize(spans)
    assert s.wall == 10 and s.roots.self == pytest.approx(4)
    assert s.layers["a"].busy == pytest.approx(3)  # span 3 lies inside span 1
    assert s.layers["c"].busy == pytest.approx(1.5)
    assert s.fns["c.k"].calls == 2


def test_self_times_of_a_nested_tree_sum_to_its_wall():
    spans = [
        _span("bench.op", 0.0, 10.0, -1),
        _span("a.f", 1.0, 4.0, 0),
        _span("b.g", 2.0, 3.0, 1),
        _span("a.f", 5.0, 6.0, 0),
    ]
    s = tracing.summarize(spans)
    assert tracing.self_times(spans) == pytest.approx([6, 2, 1, 1])
    assert sum(st.self for st in s.layers.values()) + s.roots.self == pytest.approx(s.wall)


def test_union_length():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3)


@pytest.mark.parametrize(
    "n, p",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_matches_sample_count(n, p):
    assert run.tail_percentile(n) == p
    if p is not None:
        assert n * (100 - p) / 100 >= 10 - 1e-9


def test_normalised_times_scale_with_the_reference_kernel():
    wl = workloads.Score()
    ops = [run.Op(i, 0.4 + 0.01 * i, {"work": 264}, None) for i in range(20)]
    nominal, _ = run.end_to_end(wl, ops, [0.3], [run.REF_NOMINAL_S] * 3)
    slow, rows = run.end_to_end(wl, ops, [0.3], [2 * run.REF_NOMINAL_S] * 3)
    for k in ("setup_s", "op_s.p50", f"op_s.p{run.TAIL}"):
        assert slow[k] == pytest.approx(nominal[k] / 2)
    assert slow["work_per_s"] == pytest.approx(2 * nominal["work_per_s"])
    assert dict((r[0], r[1]) for r in rows)["wall.score.take_s.p50"] == pytest.approx(nominal["op_s.p50"])


def test_sample_host_fills_its_share():
    host = []
    run.sample_host(0.0, host)
    assert len(host) == 1 and host[0] > 0
    run.sample_host(3 * host[0] / run.REF_SHARE, host)
    assert sum(host[1:]) >= 3 * host[0]


def test_percentile_is_linear_interpolation():
    xs = list(np.random.default_rng(0).random(37))
    for p in (0, 25, 50, 75, 90, 100):
        assert run.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(x) for x in tracing.PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
