"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, layer_totals, self_times, union_length  # noqa: E402


# ------------------------------------------------------------------ percentile rule

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_beyond():
    for n in range(1, 2000):
        q = stats.tail_percentile(n)
        if q is not None:
            assert stats.samples_beyond(n, q) >= 10
            higher = [p for p in stats.PERCENTILES if p > q]
            assert all(stats.samples_beyond(n, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == 5.0
    assert stats.percentile(values, 20) == 1.0
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_interquartile_range_over_median():
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# ------------------------------------------------------------------ self time

def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8), (4, 4)]) == 5.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_children_clipped_to_parent():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),       # overlaps a: the union counts once
        span("c", 9.0, 12.0, 0),      # runs past the parent: clipped at 10
        span("a.x", 1.5, 2.5, 1),     # grandchild: only a's self time shrinks
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0, 2.0 - 1.0, 3.0, 3.0, 1.0])


def test_layer_totals_sum_calls_total_and_self():
    spans = [span("train", 0.0, 4.0, -1), span("fwd", 0.0, 1.0, 0),
             span("fwd", 2.0, 3.0, 0), span("train", 5.0, 6.0, -1)]
    totals = layer_totals(spans)
    assert totals["train"] == {"calls": 2, "total_s": 5.0, "self_s": 3.0}
    assert totals["fwd"]["calls"] == 2 and totals["fwd"]["self_s"] == 2.0


def test_tracer_records_nesting_through_wrappers():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Layer.inner(x) * 2

    tracer = Tracer()
    seen = []
    tracer.wrap(Layer, "inner", "layer.inner", before=lambda a, k: seen.append(a[0]))
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.enabled = True
    tracer.op = "op#0"
    assert Layer.outer(1) == 4
    tracer.enabled = False
    assert Layer.outer(5) == 12                # disabled: passes through unrecorded
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner"]
    outer, inner = tracer.spans
    assert outer[3] == -1 and inner[3] == 0 and inner[4] == "op#0"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert seen == [1]
    assert tracer.overhead_s >= 0.0


def test_wrapper_skips_span_when_name_is_none():
    class Layer:
        @staticmethod
        def f(training=False):
            return training

    tracer = Tracer()
    tracer.wrap(Layer, "f", lambda a, k: "fwd" if k.get("training") else None)
    tracer.enabled = True
    Layer.f()
    Layer.f(training=True)
    assert [s[0] for s in tracer.spans] == ["fwd"]


# ------------------------------------------------------------------ metric names

@pytest.mark.parametrize("name", ["setup_s", "train_pairs_per_s.textcnn", "a", "9-x.y_z",
                                  "x" * 64])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "p50%", "é", "x" * 65,
                                  None, 3])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


def test_check_metric_names_rejects_duplicates_and_bad_names():
    stats.check_metric_names(["a", "b.c"])
    with pytest.raises(ValueError):
        stats.check_metric_names(["a", "a"])
    with pytest.raises(ValueError):
        stats.check_metric_names(["a b"])


def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    stats.check_metric_names([m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# ------------------------------------------------------------------ inputs

def test_stratified_takes_one_item_per_length_stratum():
    lengths = list(range(100, 0, -1))
    picks = inputs.stratified(lengths, 10, np.random.default_rng(0))
    ranks = sorted(lengths[i] - 1 for i in picks)        # rank 0 = shortest
    assert [r // 10 for r in ranks] == list(range(10))
    assert all(4 <= r % 10 <= 6 for r in ranks)          # the stratum's middle three
    middles = sorted(lengths[i] - 1 for i in inputs.stratified(lengths, 10))
    assert middles == [10 * k + 5 for k in range(10)]


def test_expected_pairs_counts_positives_and_negatives():
    records = inputs.stock_records(0)[:9]                 # three families of three
    assert inputs.expected_pairs(records, 0) == 9
    assert inputs.expected_pairs(records, 2) == 9 + 2 * 9
    assert inputs.expected_pairs(records[:3], 5) == 3     # one family: no negatives


def test_long_wide_corpus_has_long_functions_and_a_wide_vocabulary():
    from asmsim import build_vocab
    records = inputs.long_wide_records(3)
    again = inputs.long_wide_records(3)
    assert records == again
    profile = inputs.length_profile(records)
    assert profile["mean"] > 150
    assert profile["share_over_256"] > 0.1 and profile["share_over_512"] > 0.0
    assert build_vocab(records, min_freq=1).size > 2000
    fams = inputs.families(records)
    assert len(fams) == inputs.LONG_WIDE_FAMILIES and all(len(f) == 3 for f in fams)


def test_training_slice_keeps_the_included_family():
    records = inputs.long_wide_records(3)
    fams = inputs.families(records)
    longest = inputs.longest_family(records, fams)
    assert inputs.reach([records[i] for i in fams[longest]])["over_512"] >= 1
    rng = np.random.default_rng(0)
    for n_full, n_single in ((1, 0), (1, 2), (3, 1)):
        idx = inputs.training_slice(records, fams, n_full, n_single, rng, include=longest)
        assert set(fams[longest]) <= set(idx)
        assert len(idx) == 3 * n_full + n_single


def test_every_training_slice_makes_at_least_two_batches():
    for name, wl in run.WORKLOADS.items():
        for bb, (batch, n_full, n_single, negatives) in wl["train"].items():
            records = (inputs.stock_records(1) if wl["shape"] == "stock"
                       else inputs.long_wide_records(1))
            fams = inputs.families(records)
            include = inputs.longest_family(records, fams) if bb in wl["longest"] else None
            band = wl.get("train_band", {}).get(bb, (0.0, 1.0))
            idx = inputs.training_slice(records, fams, n_full, n_single,
                                        np.random.default_rng(0), band, include)
            assert inputs.expected_pairs([records[i] for i in idx], negatives) > batch, (name, bb)


def test_reach_counts_functions_past_truncation_and_clamping():
    from asmsim import FunctionRecord
    recs = [FunctionRecord("p", "b", f"f{n}", "O0", ("nop",) * n) for n in (10, 300, 600)]
    assert inputs.reach(recs) == {"functions": 3, "longest": 600, "over_256": 2, "over_512": 1}
