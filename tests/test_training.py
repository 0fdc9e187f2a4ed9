"""Pair-loss contract, siamese loop behavior, and run-to-run determinism."""

import importlib
import weakref

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.corpus import CorpusIndex, FunctionRecord
from asmsim.errors import DataError, NumericError
from asmsim.models import VARIANTS, BackboneConfig
from asmsim.optim import finite_diff_check
from asmsim.tokenizer import PAD_ID, build_vocab, encode_function
from asmsim.train import (
    TrainConfig, cosine_pair_loss, cosine_pair_loss_batch, train, write_loss_csv,
)


def vec(v):
    return ad.parameter(np.asarray(v, dtype=np.float64), dtype=np.float64)


# ------------------------------------------------------------------ loss contract

def test_positive_identical_embeddings_loss_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = rng.standard_normal(8)
        loss = cosine_pair_loss(vec(e), vec(e.copy()), y=1)
        assert loss.item() == 0.0


def test_negative_below_margin_loss_exactly_zero():
    # orthogonal embeddings: cosine 0, far below margin
    loss = cosine_pair_loss(vec([1.0, 0.0]), vec([0.0, 1.0]), y=-1, margin=0.9)
    assert loss.item() == 0.0


def test_negative_at_095_loss_is_005():
    e1 = vec([1.0, 0.0])
    e2 = vec([0.95, np.sqrt(1.0 - 0.95 ** 2)])
    loss = cosine_pair_loss(e1, e2, y=-1, margin=0.9)
    assert abs(loss.item() - 0.05) <= 1e-7


def test_inactive_negative_has_zero_gradient():
    e1 = vec([1.0, 0.0, 0.5])
    e2 = vec([0.0, 1.0, -0.5])
    loss = cosine_pair_loss(e1, e2, y=-1, margin=0.9)
    loss.backward()
    np.testing.assert_array_equal(e1.grad, 0.0)
    np.testing.assert_array_equal(e2.grad, 0.0)


def test_label_and_margin_validation():
    with pytest.raises(ValueError, match="label"):
        cosine_pair_loss(vec([1.0]), vec([1.0]), y=0)
    with pytest.raises(ValueError, match="margin"):
        cosine_pair_loss(vec([1.0]), vec([1.0]), y=1, margin=1.5)
    with pytest.raises(ValueError, match="labels"):
        cosine_pair_loss_batch(vec([[1.0]]), vec([[1.0]]), [2])


def test_batch_loss_is_mean_of_singles():
    rng = np.random.default_rng(1)
    e1 = rng.standard_normal((6, 5))
    e2 = rng.standard_normal((6, 5))
    ys = np.array([1, -1, 1, -1, -1, 1])
    batch = cosine_pair_loss_batch(
        ad.constant(e1, dtype=np.float64), ad.constant(e2, dtype=np.float64), ys, margin=0.5)
    singles = [cosine_pair_loss(vec(e1[i]), vec(e2[i]), int(ys[i]), margin=0.5).item()
               for i in range(6)]
    assert batch.item() == pytest.approx(np.mean(singles), rel=1e-12)


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for y in (1, -1):
        for _ in range(5):
            a = rng.standard_normal(6)
            b = 0.8 * a + 0.3 * rng.standard_normal(6)  # keep some negatives above margin
            e1, e2 = vec(a), vec(b)
            report = finite_diff_check(
                lambda: cosine_pair_loss(e1, e2, y, margin=0.5), {"e1": e1, "e2": e2}, rng=rng)
            assert report.passed, report.per_param


# ------------------------------------------------------------------ training loop

def rec(name, opt, instructions):
    return FunctionRecord("p", "b", name, opt, tuple(instructions))


def tiny_corpus(n_families=6):
    records = []
    for i in range(n_families):
        base = [f"mov r{i % 3}, 0x{i:x}", f"add r{(i + 1) % 3}, r{i % 3}", "ret"]
        opt = [f"lea r{(i + 2) % 3}, 0x{i:x}", "ret"]
        records.append(rec(f"f{i}", "O0", base))
        records.append(rec(f"f{i}", "O3", opt))
    return CorpusIndex(records)


def tiny_cfg(vocab_size, variant="textcnn"):
    return BackboneConfig(
        variant=variant, vocab_size=vocab_size, embed_dim=4,
        tokens_per_instruction=3, output_dim=6 if variant != "lstm" else 6,
        max_positions=8, conv_widths=(3, 2), conv_channels=4,
        lstm_hidden=6, mixer_layers=1, mixer_token_hidden=4,
        mixer_channel_hidden=6, mixer_seq_len=4,
    )


def setup():
    corpus = tiny_corpus()
    vocab = build_vocab(corpus.records, min_freq=1)
    return corpus, vocab, tiny_cfg(vocab.size)


def test_train_runs_and_counts_batches():
    corpus, vocab, bcfg = setup()
    cfg = TrainConfig(seed=11, batch_size=8, epochs=1, negatives=2)
    result = train(corpus, vocab, bcfg, cfg)
    stream_len = 6 + 12 * 2  # 6 positives + 2 negatives per record
    assert result.n_batches == int(np.ceil(stream_len / 8))
    assert len(result.losses) == result.n_batches
    assert all(np.isfinite(v) for v in result.losses)


def test_batches_are_consecutive_stream_slices(monkeypatch):
    """Batch k embeds and scores exactly the stream's pairs [k*B, (k+1)*B),
    in stream order, with a short last batch in each epoch."""
    from asmsim.models import Backbone

    train_mod = importlib.import_module("asmsim.train")  # the package re-exports train()

    corpus, vocab, bcfg = setup()
    batch = 8
    streams, embedded, scored = [], [], []
    orig_pairs, orig_embed, orig_loss = (train_mod.make_pairs, Backbone.embed_batch,
                                         train_mod.cosine_pair_loss_batch)

    def spy_pairs(*args, **kwargs):
        streams.append(orig_pairs(*args, **kwargs))
        return streams[-1]

    def spy_embed(self, encs, training=False, rng=None):
        embedded.append([e.token_ids for e in encs])
        return orig_embed(self, encs, training=training, rng=rng)

    def spy_loss(e1, e2, labels, margin):
        scored.append(list(labels))
        return orig_loss(e1, e2, labels, margin=margin)

    monkeypatch.setattr(train_mod, "make_pairs", spy_pairs)
    monkeypatch.setattr(Backbone, "embed_batch", spy_embed)
    monkeypatch.setattr(train_mod, "cosine_pair_loss_batch", spy_loss)
    train(corpus, vocab, bcfg, TrainConfig(seed=13, batch_size=batch, epochs=2, negatives=2))

    ids = [encode_function(vocab, r, k_tokens=bcfg.tokens_per_instruction,
                           max_positions=bcfg.max_positions).token_ids for r in corpus.records]
    expected = []
    for stream in streams:
        assert len(stream) % batch != 0
        pairs = list(stream)
        expected += [pairs[s:s + batch] for s in range(0, len(pairs), batch)]
    assert len(streams) == 2 and len(scored) == len(expected) and len(embedded) == 2 * len(expected)
    for k, pairs in enumerate(expected):
        for side, got in zip(("anchor", "other"), embedded[2 * k:2 * k + 2]):
            want = [ids[corpus.records.index(getattr(p, side))] for p in pairs]
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (k, side)
        assert scored[k] == [p.label for p in pairs]
    assert len(expected[-1]) < batch


def test_batch_graph_freed_before_next_forward(monkeypatch):
    """A batch's graph (its embeddings and loss, and with them every array
    the backward closures keep) is released before the next forward starts."""
    from asmsim.models import Backbone

    train_mod = importlib.import_module("asmsim.train")
    corpus, vocab, bcfg = setup()
    graph, alive_at_forward = [], []
    orig_embed, orig_loss = Backbone.embed_batch, train_mod.cosine_pair_loss_batch

    def spy_embed(self, encs, training=False, rng=None):
        alive_at_forward.append(any(ref() is not None for ref in graph))
        return orig_embed(self, encs, training=training, rng=rng)

    def spy_loss(e1, e2, labels, margin):
        out = orig_loss(e1, e2, labels, margin=margin)
        graph.extend(weakref.ref(t.data) for t in (e1, e2, out))
        return out

    monkeypatch.setattr(Backbone, "embed_batch", spy_embed)
    monkeypatch.setattr(train_mod, "cosine_pair_loss_batch", spy_loss)
    train(corpus, vocab, bcfg, TrainConfig(seed=17, batch_size=8, epochs=1, negatives=2))
    assert len(graph) == 3 * 4 and not any(alive_at_forward)


def test_train_deterministic_same_seed():
    corpus, vocab, bcfg = setup()
    cfg = TrainConfig(seed=21, batch_size=8, epochs=2, negatives=2)
    a = train(corpus, vocab, bcfg, cfg)
    b = train(corpus, vocab, bcfg, cfg)
    assert a.losses == b.losses
    assert a.backbone.fingerprint() == b.backbone.fingerprint()


def test_train_returns_backbone_without_gradients():
    """Gradients are cleared after each Adam step, so the returned backbone
    does not hold the last batch's gradient (24 MB at the defaults)."""
    corpus, vocab, _ = setup()
    for variant in ("textcnn", "lstm", "mixer"):
        result = train(corpus, vocab, tiny_cfg(vocab.size, variant),
                       TrainConfig(seed=23, batch_size=8, negatives=2))
        assert result.n_batches > 1
        assert all(p.grad is None for p in result.backbone.params.values()), variant


def test_train_seed_changes_trajectory():
    corpus, vocab, bcfg = setup()
    a = train(corpus, vocab, bcfg, TrainConfig(seed=1, batch_size=8, negatives=2))
    b = train(corpus, vocab, bcfg, TrainConfig(seed=2, batch_size=8, negatives=2))
    assert a.backbone.fingerprint() != b.backbone.fingerprint()


def test_zero_epochs_returns_seeded_init():
    corpus, vocab, bcfg = setup()
    cfg = TrainConfig(seed=31, epochs=0)
    a = train(corpus, vocab, bcfg, cfg)
    b = train(corpus, vocab, bcfg, cfg)
    assert a.losses == []
    assert a.n_batches == 0
    assert a.backbone.fingerprint() == b.backbone.fingerprint()


def test_pair_sides_share_parameters():
    corpus, vocab, bcfg = setup()
    cfg = TrainConfig(seed=41, batch_size=8, epochs=1, negatives=1)
    fingerprints = []
    from asmsim.models import TextCNN
    orig = TextCNN.embed_batch

    def spy(self, encs, training=False, rng=None):
        fingerprints.append(self.fingerprint())
        return orig(self, encs, training=training, rng=rng)

    TextCNN.embed_batch = spy
    try:
        train(corpus, vocab, bcfg, cfg)
    finally:
        TextCNN.embed_batch = orig
    assert len(fingerprints) >= 2 and len(fingerprints) % 2 == 0
    for i in range(0, len(fingerprints), 2):
        assert fingerprints[i] == fingerprints[i + 1]  # same params for both sides


@pytest.mark.parametrize("variant", VARIANTS)
def test_pad_row_stays_zero_through_training(variant):
    """Nothing masks the PAD row: PAD slots read as a zero vector that takes no
    gradient, so the row stays zero through Adam, and a backward over
    PAD-heavy functions leaves its gradient exactly zero."""
    corpus, vocab, _ = setup()
    bcfg = tiny_cfg(vocab.size, variant)
    result = train(corpus, vocab, bcfg, TrainConfig(seed=51, batch_size=8, negatives=2))
    table = result.backbone.params["token_table"]
    np.testing.assert_array_equal(table.data[PAD_ID], 0.0)
    encs = [encode_function(vocab, r, k_tokens=bcfg.tokens_per_instruction,
                            max_positions=bcfg.max_positions) for r in corpus.records]
    assert all((e.token_ids == PAD_ID).any() for e in encs)
    out = result.backbone.embed_batch(encs, training=True, rng=np.random.default_rng(52))
    ad.sum_(out).backward()
    assert table.grad.any()
    np.testing.assert_array_equal(table.grad[PAD_ID], 0.0)


def test_nonfinite_loss_aborts_with_batch_index():
    corpus, vocab, bcfg = setup()
    cfg = TrainConfig(seed=61, batch_size=8, epochs=1, negatives=2, checkpoint_every=1)

    def poison(backbone, batch_index, reason):
        if reason == "interval" and batch_index == 1:
            backbone.params["fc.w"].data[:] = np.nan

    with pytest.raises(NumericError, match="batch 1"):
        train(corpus, vocab, bcfg, cfg, checkpoint_cb=poison)


def test_checkpoint_callback_cadence():
    corpus, vocab, bcfg = setup()
    calls = []
    cfg = TrainConfig(seed=71, batch_size=8, epochs=1, negatives=2, checkpoint_every=2)
    train(corpus, vocab, bcfg, cfg,
          checkpoint_cb=lambda bb, i, reason: calls.append((i, reason)))
    n = [i for i, r in calls if r == "epoch"]
    assert len(n) == 1
    assert all(i % 2 == 0 for i, r in calls if r == "interval")


def test_no_pairs_raises_data_error():
    records = [rec("f0", "O0", ["ret"]), rec("f0", "O3", ["ret"])]  # identical text
    corpus = CorpusIndex(records)
    vocab = build_vocab(records, min_freq=1)
    with pytest.raises(DataError, match="pairs"):
        train(corpus, vocab, tiny_cfg(vocab.size), TrainConfig(seed=1, negatives=0))


def test_vocab_size_cross_check():
    corpus, vocab, _ = setup()
    bad = tiny_cfg(vocab.size + 5)
    with pytest.raises(DataError, match="vocab"):
        train(corpus, vocab, bad, TrainConfig(seed=1))


def test_train_config_validation():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(seed=1, learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(seed=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(seed=1, margin=2.0)
    with pytest.raises(ValueError):
        TrainConfig(seed=1, epochs=-1)


def test_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv(path, [0.5, 0.25])
    assert path.read_text() == "batch_index,loss\n0,0.5\n1,0.25\n"


def test_lstm_and_mixer_train_smoke():
    corpus, vocab, _ = setup()
    for variant in ("lstm", "mixer"):
        bcfg = tiny_cfg(vocab.size, variant=variant)
        result = train(corpus, vocab, bcfg,
                       TrainConfig(seed=81, batch_size=10, epochs=1, negatives=1))
        assert result.n_batches >= 1
        assert all(np.isfinite(v) for v in result.losses)
