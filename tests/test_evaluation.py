"""Retrieval metrics against brute-force oracles, pool construction, ranking."""

import dataclasses
import json

import numpy as np
import pytest

from asmsim.corpus import CorpusIndex, FunctionRecord
from asmsim.errors import DataError
from asmsim.evaluate import (
    DEFAULT_OPT_PAIRS, EvalReport, PoolResult, build_pool, cosine_matrix,
    descending_order, eligible_families, evaluate_model, evaluate_pool, mrr,
    recall_at_k,
)
from asmsim.models import BackboneConfig, build_backbone
from asmsim.tokenizer import build_vocab, encode_function


# ------------------------------------------------------------------ metrics

def test_mrr_hand_examples():
    assert mrr([1, 2, 4]) == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    assert mrr([1]) == 1.0
    assert mrr([10]) == pytest.approx(0.1)


def test_recall_hand_examples():
    ranks = [1, 2, 4, 33]
    assert recall_at_k(ranks, 1) == pytest.approx(0.25)
    assert recall_at_k(ranks, 2) == pytest.approx(0.5)
    assert recall_at_k(ranks, 4) == pytest.approx(0.75)
    assert recall_at_k(ranks, 32) == pytest.approx(0.75)
    assert recall_at_k(ranks, 33) == pytest.approx(1.0)


def test_metric_validation():
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        mrr([0])
    with pytest.raises(ValueError):
        recall_at_k([1], 0)
    with pytest.raises(ValueError):
        recall_at_k([], 1)


def test_metrics_match_brute_force_on_random_lists():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        ranks = rng.integers(1, 101, size=n).tolist()
        assert mrr(ranks) == sum(1.0 / r for r in ranks) / n
        for k in (1, 5, 32):
            assert recall_at_k(ranks, k) == sum(1 for r in ranks if r <= k) / n


def test_descending_order_stable_on_ties():
    scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
    np.testing.assert_array_equal(descending_order(scores), [1, 3, 0, 2, 4])


def test_cosine_matrix_oracle_and_scale_invariance():
    rng = np.random.default_rng(8)
    q = rng.standard_normal((4, 6))
    t = rng.standard_normal((5, 6))
    got = cosine_matrix(q, t)
    for i in range(4):
        for j in range(5):
            expected = np.dot(q[i], t[j]) / (np.linalg.norm(q[i]) * np.linalg.norm(t[j]))
            assert got[i, j] == pytest.approx(expected, rel=1e-6)
    scaled = cosine_matrix(3.0 * q, 0.25 * t)
    np.testing.assert_allclose(scaled, got, rtol=1e-5, atol=1e-7)


def test_cosine_matrix_zero_rows_score_zero():
    q = np.zeros((1, 3))
    t = np.ones((2, 3))
    np.testing.assert_array_equal(cosine_matrix(q, t), 0.0)


# ------------------------------------------------------------------ pools

def rec(name, opt, instructions):
    return FunctionRecord("p", "b", name, opt, tuple(instructions))


def make_corpus(n_families, levels=("O0", "O3")):
    records = []
    for i in range(n_families):
        for li, level in enumerate(levels):
            body = [f"mov r{li}, 0x{i:x}", f"add r{(i + li) % 4}, r0", "ret"]
            records.append(rec(f"f{i}", level, body))
    return CorpusIndex(records)


def test_eligible_families_requires_both_levels_and_differing_text():
    records = [
        rec("a", "O0", ["mov r0, 1"]), rec("a", "O3", ["lea r0, 1"]),
        rec("b", "O0", ["ret"]), rec("b", "O3", ["ret"]),          # identical text
        rec("c", "O0", ["xor r0, r0"]),                            # missing O3
        rec("d", "O0", ["push  rbp"]), rec("d", "O3", ["push rbp"]),  # ws-equal
    ]
    fams = eligible_families(CorpusIndex(records), ("O0", "O3"))
    assert [f.key[2] for f in fams] == ["a"]


def test_build_pool_deterministic_and_sized():
    corpus = make_corpus(20)
    pool_a = build_pool(corpus, ("O0", "O3"), n=8, seed=5)
    pool_b = build_pool(corpus, ("O0", "O3"), n=8, seed=5)
    assert len(pool_a.queries) == len(pool_a.targets) == 8
    assert [q.function_name for q in pool_a.queries] == \
        [q.function_name for q in pool_b.queries]
    for q, t in zip(pool_a.queries, pool_a.targets):
        assert q.function_name == t.function_name
        assert q.opt_level == "O0" and t.opt_level == "O3"


def test_build_pool_seed_changes_sample():
    corpus = make_corpus(30)
    a = build_pool(corpus, ("O0", "O3"), n=8, seed=1)
    b = build_pool(corpus, ("O0", "O3"), n=8, seed=2)
    assert [q.function_name for q in a.queries] != [q.function_name for q in b.queries]


def test_build_pool_infeasible_reports_max_n():
    corpus = make_corpus(5)
    with pytest.raises(DataError, match="maximum feasible n = 5"):
        build_pool(corpus, ("O0", "O3"), n=32, seed=0)


# ------------------------------------------------------------------ ranking

def small_setup(n_families=12):
    corpus = make_corpus(n_families)
    vocab = build_vocab(corpus.records, min_freq=1)
    cfg = BackboneConfig(
        variant="textcnn", vocab_size=vocab.size, embed_dim=4,
        tokens_per_instruction=3, output_dim=6, max_positions=8,
        conv_widths=(3, 2), conv_channels=4,
    )
    backbone = build_backbone(cfg, seed=3)
    return corpus, vocab, backbone


def pool_scores(backbone, vocab, pool):
    """[n, n] cosines of every query against every target, embedded as
    evaluate_pool embeds them: all queries in one forward, all targets in another."""
    cfg = backbone.cfg
    q, t = (backbone.embed_matrix([encode_function(vocab, r, k_tokens=cfg.tokens_per_instruction,
                                                   max_positions=cfg.max_positions)
                                   for r in side]) for side in (pool.queries, pool.targets))
    return cosine_matrix(q, t)


def test_evaluate_pool_ranks_match_sort_oracle():
    corpus, vocab, backbone = small_setup()
    pool = build_pool(corpus, ("O0", "O3"), n=10, seed=9)
    ranks = evaluate_pool(backbone, vocab, pool).ranks
    for q, scores in enumerate(pool_scores(backbone, vocab, pool)):
        expected = sorted(range(len(pool.targets)), key=lambda i: (-scores[i], i))
        assert ranks[q] == expected.index(q) + 1


def test_evaluate_pool_ties_break_by_original_index():
    corpus, vocab, backbone = small_setup()
    pool = build_pool(corpus, ("O0", "O3"), n=6, seed=9)
    # target 5 repeats target 4's instruction text, so the two embed identically
    dup = pool.targets[4]
    clone = FunctionRecord(dup.project, dup.binary, "clone", dup.opt_level,
                           dup.instructions)
    pool = dataclasses.replace(pool, targets=list(pool.targets[:5]) + [clone])
    ranks = evaluate_pool(backbone, vocab, pool).ranks
    scores = pool_scores(backbone, vocab, pool)
    for q in (4, 5):
        assert scores[q, 4] == scores[q, 5]
        ahead = np.count_nonzero(scores[q] > scores[q, q])
        assert ranks[q] == ahead + 1 + (q == 5)     # the tie ranks target 4 first


def test_identical_query_and_target_ranks_first():
    corpus, vocab, backbone = small_setup()
    pool = build_pool(corpus, ("O0", "O3"), n=8, seed=9)
    targets = list(pool.targets)
    targets[3] = FunctionRecord("p", "b", "self", "O3", pool.queries[3].instructions)
    pool = dataclasses.replace(pool, targets=targets)
    assert evaluate_pool(backbone, vocab, pool).ranks[3] == 1
    assert pool_scores(backbone, vocab, pool)[3, 3] == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------------ reports

def full_level_corpus(n_families=6):
    records = []
    levels = ("O0", "O1", "O2", "O3", "Os")
    for i in range(n_families):
        for li, level in enumerate(levels):
            body = [f"mov r{li}, 0x{i:x}", f"sub r{(i + li) % 4}, r1", "ret"]
            records.append(rec(f"f{i}", level, body))
    return CorpusIndex(records)


def test_evaluate_model_report_shape():
    corpus = full_level_corpus()
    vocab = build_vocab(corpus.records, min_freq=1)
    cfg = BackboneConfig(
        variant="textcnn", vocab_size=vocab.size, embed_dim=4,
        tokens_per_instruction=3, output_dim=6, max_positions=8,
        conv_widths=(3, 2), conv_channels=4,
    )
    backbone = build_backbone(cfg, seed=4)
    report = evaluate_model(backbone, vocab, corpus, n=4, seed=6, ks=(1, 2))
    assert [r.opt_pair for r in report.results] == list(DEFAULT_OPT_PAIRS)
    for pr in report.results:
        assert len(pr.ranks) == 4
        assert all(1 <= r <= 4 for r in pr.ranks)
        assert 0.0 <= pr.mrr <= 1.0
    assert 0.0 <= report.mean_mrr <= 1.0

    payload = report.to_json_dict(checkpoint_sha256="ab" * 32)
    assert payload["checkpoint_sha256"] == "ab" * 32
    assert payload["pool_size"] == 4
    pair_keys = {"O0,O3", "O1,O3", "O2,O3", "O0,Os", "O1,Os", "O2,Os"}
    assert set(payload["mrr"]) == pair_keys | {"average"}
    assert payload["recall"]["1"]["average"] == pytest.approx(
        np.mean([pr.recalls[1] for pr in report.results]))
    json.dumps(payload)  # must be serializable

    table = report.format_table()
    assert "O0,O3" in table and "average" in table
    assert "MRR" in table and "Recall@1" in table and "Recall@2" in table


def test_eval_report_single_pool_math():
    ranks = np.array([1, 2, 4, 33])
    pr = PoolResult(opt_pair=("O0", "O3"), pool_size=4, seed=0, ranks=ranks,
                    mrr=mrr(ranks), recalls={1: 0.25, 32: 0.75})
    report = EvalReport(pool_size=4, seed=0, ks=(1, 32), results=[pr])
    assert report.mean_mrr == pytest.approx(pr.mrr)
    assert report.mean_recall(32) == pytest.approx(0.75)
