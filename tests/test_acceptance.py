"""Behavioral gate: one test per core guarantee of the toolkit.

Each test is self-contained and states the guarantee it enforces; run with
-v to get one pass/fail line per guarantee.
"""

import time

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.cli import main
from asmsim.corpus import CorpusIndex, FunctionRecord, save_dataset
from asmsim.evaluate import (
    build_pool, cosine_matrix, descending_order, evaluate_model, evaluate_pool, mrr,
    recall_at_k,
)
from asmsim.models import BackboneConfig, build_backbone
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import (
    UNK_ID, EncodedFunction, Vocabulary, build_vocab, encode_function,
)
from asmsim.train import TrainConfig, cosine_pair_loss_batch, train
from gradcheck import finite_diff_check


def vec(values):
    """One float64 [1, E] pair side: a batch of one pair."""
    return ad.Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1), requires_grad=True)


# ------------------------------------------------------------- 1: gradients

def _small_config(variant, rng):
    d = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    e = int(rng.integers(3, 7))
    kwargs = dict(variant=variant, vocab_size=int(rng.integers(8, 14)),
                  embed_dim=d, tokens_per_instruction=k, output_dim=e,
                  max_positions=int(rng.integers(6, 12)))
    if variant == "textcnn":
        kwargs["conv_widths"] = tuple(
            int(w) for w in rng.choice([2, 3, 4], size=int(rng.integers(2, 4))))
        kwargs["conv_channels"] = int(rng.integers(3, 6))
    elif variant == "mixer":
        kwargs.update(mixer_layers=int(rng.integers(1, 3)),
                      mixer_token_hidden=int(rng.integers(3, 6)),
                      mixer_channel_hidden=int(rng.integers(4, 8)),
                      mixer_seq_len=int(rng.integers(6, 10)),
                      mixer_dropout=0.1)  # inactive outside training
    return BackboneConfig(**kwargs)


def _random_encoding(cfg, rng):
    s = int(rng.integers(max(cfg.conv_widths), 11))
    ids = rng.integers(0, cfg.vocab_size,
                       size=(s, cfg.tokens_per_instruction)).astype(np.int32)
    pos = np.minimum(np.arange(s, dtype=np.int32), cfg.max_positions - 1)
    return EncodedFunction(token_ids=ids, position_ids=pos)


def test_1_gradients_match_finite_differences():
    """Reverse-mode gradients of every backbone and the pair loss agree with
    central finite differences at rel tol 1e-4 in double precision."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for variant in ("textcnn", "lstm", "mixer"):
        for trial in range(5):
            cfg = _small_config(variant, rng)
            backbone = build_backbone(cfg, seed=int(rng.integers(2 ** 31)),
                                      dtype=np.float64)
            enc_a, enc_b = _random_encoding(cfg, rng), _random_encoding(cfg, rng)
            y = 1 if trial % 2 == 0 else -1

            def f():
                return cosine_pair_loss_batch(backbone.embed_batch([enc_a]),
                                              backbone.embed_batch([enc_b]), [y], margin=0.2)

            report = finite_diff_check(f, backbone.params, rng=rng,
                                       max_coords_per_param=8)
            assert report.passed, f"{variant} trial {trial}: {report.per_param}"

    for trial in range(5):  # the loss in isolation, both labels
        a = rng.standard_normal(6)
        b = 0.8 * a + 0.3 * rng.standard_normal(6)
        e1, e2 = vec(a), vec(b)
        for y in (1, -1):
            report = finite_diff_check(
                lambda: cosine_pair_loss_batch(e1, e2, [y], margin=0.2),
                {"e1": e1, "e2": e2}, rng=rng)
            assert report.passed, report.per_param
    assert time.monotonic() - t0 < 120.0


# ------------------------------------------------------- 2: parameter count

def test_2_textcnn_parameter_count_at_reference_scale():
    """Full-size TextCNN (vocab 40k, width-192 vectors, 4 width-5 + 2 width-3
    banks of 192 channels) matches its closed-form size, within 5% of 13.44M."""
    cfg = BackboneConfig(variant="textcnn", vocab_size=40_000)
    backbone = build_backbone(cfg, seed=0)
    total = sum(int(p.data.size) for p in backbone.params.values())
    h = 192 * 6
    closed = (
        40_000 * 192 + 512 * 192                      # token and position tables
        + 4 * (5 * h * 192 + 192) + 2 * (3 * h * 192 + 192)  # conv banks
        + h * 192 + 192                               # projection
    )
    assert total == closed == 13_751_616
    assert backbone.param_count() == closed - 192     # pinned PAD row
    assert abs(total - 13_440_000) / 13_440_000 < 0.05


# ----------------------------------------------------------- 3: metric oracles

def test_3_metrics_and_ranking_match_brute_force():
    """mrr/recall_at_k equal elementary recomputation on 1,000 random rank
    lists; pool ranking equals a brute-force stable sort on a 100-pool."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        ranks = rng.integers(1, 1001, size=n)
        assert mrr(ranks) == sum(1.0 / float(r) for r in ranks) / n
        k = int(rng.integers(1, 101))
        assert recall_at_k(ranks, k) == sum(1 for r in ranks if r <= k) / n

    records = generate(SynthConfig(n_families=320, seed=17))
    corpus = CorpusIndex(records)
    vocab = build_vocab(records, min_freq=16)
    cfg = BackboneConfig(variant="textcnn", vocab_size=vocab.size, embed_dim=8,
                         tokens_per_instruction=4, output_dim=12,
                         max_positions=64, conv_widths=(3, 2), conv_channels=6)
    backbone = build_backbone(cfg, seed=5)
    pool = build_pool(corpus, ("O0", "O3"), n=100, seed=3)
    ranks = evaluate_pool(backbone, vocab, pool).ranks
    embedded = [backbone.embed_matrix([encode_function(vocab, r, k_tokens=4, max_positions=64)
                                       for r in side]) for side in (pool.queries, pool.targets)]
    for q, scores in enumerate(cosine_matrix(*embedded)[:5]):
        order = descending_order(scores)
        expected = sorted(range(len(pool.targets)),
                          key=lambda i: (-scores[i], i))
        assert list(order) == expected
        assert ranks[q] == expected.index(q) + 1


# ------------------------------------------------------------ 4: loss contract

def test_4_pair_loss_contract():
    """Positive identical pairs cost exactly 0; negatives at or below the 0.9
    margin cost exactly 0 (including the boundary); cos 0.95 costs 0.05."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        e = rng.standard_normal(12)
        assert cosine_pair_loss_batch(vec(e), vec(e.copy()), [1]).item() == 0.0

    for target in (0.0, 0.25, 0.5, 0.75, 0.88):
        u = vec([1.0, 0.0])
        v = vec([target, np.sqrt(1.0 - target * target)])
        # a negative at margin 0 costs exactly its cosine, where that is above 0
        cos = cosine_pair_loss_batch(u, v, [-1], margin=0.0).item()
        assert cos <= 0.9
        assert cosine_pair_loss_batch(u, v, [-1], margin=0.9).item() == 0.0

    # boundary: find h with ||(0.9, h)|| rounding to exactly 1.0, so the
    # computed cosine equals the margin and the flat side of the hinge applies
    base = float(np.sqrt(1.0 - 0.9 * 0.9))
    boundary_h = None
    for k in range(-200, 201):
        h = base + k * np.spacing(base)
        if np.sqrt(np.float64(0.9) ** 2 + np.float64(h) ** 2) == 1.0:
            boundary_h = h
            break
    assert boundary_h is not None
    u, v = vec([1.0, 0.0]), vec([0.9, boundary_h])
    assert cosine_pair_loss_batch(u, v, [-1], margin=0.0).item() == 0.9
    loss = cosine_pair_loss_batch(u, v, [-1], margin=0.9)
    assert loss.item() == 0.0
    loss.backward()
    np.testing.assert_array_equal(u.grad, 0.0)  # subgradient from the flat side

    u = vec([1.0, 0.0])
    v = vec([0.95, np.sqrt(1.0 - 0.95 ** 2)])
    assert abs(cosine_pair_loss_batch(u, v, [-1], margin=0.9).item() - 0.05) <= 1e-7


# --------------------------------------------------------- 5: long functions

def test_5_two_thousand_instruction_function_embeds_finite():
    """A 2,048-instruction function (10,240 token slots) embeds through the
    convolutional and recurrent paths with finite full-width output."""
    instructions = tuple(
        f"mov r{i % 8}, 0x{(7 * i) % 256:x}" if i % 3 else f"add r{i % 8}, r{(i + 1) % 8}"
        for i in range(2048)
    )
    record = FunctionRecord("p", "b", "long", "O0", instructions)
    vocab = build_vocab([record], min_freq=1)
    enc = encode_function(vocab, record)
    assert enc.token_ids.shape == (2048, 5)
    for variant in ("textcnn", "lstm"):
        cfg = BackboneConfig(variant=variant, vocab_size=vocab.size)
        backbone = build_backbone(cfg, seed=1)
        out = backbone.embed_matrix([enc])
        assert out.shape == (1, 192)
        assert np.all(np.isfinite(out))


# ------------------------------------------------------------ 6: end to end

def test_6_trained_retrieval_beats_thresholds_on_bundled_corpus():
    """Default config, one epoch, CPU: pool-32 MRR reaches 0.80 and at least
    doubles the untrained baseline inside a ten-minute budget."""
    t0 = time.monotonic()
    records = generate(SynthConfig(n_families=200, seed=0))
    corpus = CorpusIndex(records)
    vocab = build_vocab(records)
    bcfg = BackboneConfig(variant="textcnn", vocab_size=vocab.size)

    untrained = build_backbone(bcfg, seed=42, dtype=np.float32)
    baseline = evaluate_model(untrained, vocab, corpus, n=32, seed=99)

    result = train(corpus, vocab, bcfg, TrainConfig(seed=42))
    report = evaluate_model(result.backbone, vocab, corpus, n=32, seed=99)
    elapsed = time.monotonic() - t0

    assert report.mean_mrr >= 0.80, f"trained MRR {report.mean_mrr:.4f}"
    assert report.mean_mrr >= 2.0 * baseline.mean_mrr, (
        f"trained {report.mean_mrr:.4f} vs untrained {baseline.mean_mrr:.4f}")
    assert elapsed < 600.0, f"took {elapsed:.0f}s"


# ------------------------------------------------------------ 7: determinism

def test_7_same_seed_training_is_bitwise_identical(tmp_path):
    """Two train runs with one seed produce byte-identical checkpoints and
    loss traces."""
    data = tmp_path / "d.jsonl"
    save_dataset(generate(SynthConfig(n_families=24, seed=6)), data)
    vocab_path = tmp_path / "v.txt"
    assert main(["vocab", str(data), "--out", str(vocab_path),
                 "--min-freq", "8"]) == 0
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.ckpt"
        assert main(["train", str(data), str(vocab_path), "--out", str(out),
                     "--seed", "33", "--batch-size", "64",
                     "--negatives", "3"]) == 0
        blobs.append((out.read_bytes(),
                      (tmp_path / f"{run}.ckpt.loss.csv").read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


# ------------------------------------------------- 8: vocabulary exactness

def test_8_vocabulary_threshold_exact_and_roundtrip_byte_identical(tmp_path):
    """The frequency threshold is an exact >= test, and save/load/save
    reproduces the vocabulary file byte for byte."""
    records = [FunctionRecord("p", "b", f"f{i}", "O0", ("push alpha",))
               for i in range(32)]
    records += [FunctionRecord("p", "b", f"g{i}", "O0", ("push beta",))
                for i in range(31)]
    vocab = build_vocab(records, min_freq=32)
    assert "alpha" in vocab.token_to_id          # exactly at threshold: kept
    assert "beta" not in vocab.token_to_id       # one below: dropped
    assert vocab.id_of("beta") == UNK_ID
    assert vocab.id_of("push") == vocab.token_to_id["push"]

    path_a, path_b = tmp_path / "v1.txt", tmp_path / "v2.txt"
    vocab.save(path_a)
    loaded = Vocabulary.load(path_a)
    loaded.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded.file_bytes() == vocab.file_bytes()
