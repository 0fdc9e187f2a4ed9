"""Pair-loss contract, siamese loop behavior, and run-to-run determinism."""

import dataclasses
import hashlib
import importlib
import weakref

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.corpus import CorpusIndex, FunctionRecord
from asmsim.errors import DataError, NumericError
from asmsim.models import VARIANTS, BackboneConfig, build_backbone
from asmsim.tokenizer import PAD_ID, build_vocab, encode_function
from asmsim.train import TrainConfig, cosine_pair_loss_batch, train, write_loss_csv
from gradcheck import finite_diff_check, project


def vec(v):
    """One float64 [1, E] pair side: a batch of one pair."""
    return ad.Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1), requires_grad=True)


# ------------------------------------------------------------------ loss contract

def test_positive_identical_embeddings_loss_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = rng.standard_normal(8)
        loss = cosine_pair_loss_batch(vec(e), vec(e.copy()), [1])
        assert loss.item() == 0.0


def test_negative_below_margin_loss_exactly_zero():
    # orthogonal embeddings: cosine 0, far below margin
    loss = cosine_pair_loss_batch(vec([1.0, 0.0]), vec([0.0, 1.0]), [-1], margin=0.9)
    assert loss.item() == 0.0


def test_negative_at_095_loss_is_005():
    e1 = vec([1.0, 0.0])
    e2 = vec([0.95, np.sqrt(1.0 - 0.95 ** 2)])
    loss = cosine_pair_loss_batch(e1, e2, [-1], margin=0.9)
    assert abs(loss.item() - 0.05) <= 1e-7


def test_inactive_negative_has_zero_gradient():
    e1 = vec([1.0, 0.0, 0.5])
    e2 = vec([0.0, 1.0, -0.5])
    loss = cosine_pair_loss_batch(e1, e2, [-1], margin=0.9)
    loss.backward()
    np.testing.assert_array_equal(e1.grad, 0.0)
    np.testing.assert_array_equal(e2.grad, 0.0)


def test_label_and_margin_validation():
    with pytest.raises(ValueError, match="label"):
        cosine_pair_loss_batch(vec([1.0]), vec([1.0]), [0])
    with pytest.raises(ValueError, match="margin"):
        cosine_pair_loss_batch(vec([1.0]), vec([1.0]), [1], margin=1.5)
    with pytest.raises(ValueError, match="labels"):
        cosine_pair_loss_batch(vec([[1.0]]), vec([[1.0]]), [2])
    # one label per pair: neither broadcast from one nor read as a column
    four = ad.Tensor(np.arange(12.0).reshape(4, 3))
    for labels in ([1], [[1], [-1], [1], [1]], [1, -1, 1], [1, -1, 1, 1, 1], 1):
        with pytest.raises(ValueError, match="one per pair"):
            cosine_pair_loss_batch(four, four, labels)
    for other in (np.ones((3, 3)), np.ones((4, 2)), np.ones(12), np.ones((4, 3, 1))):
        with pytest.raises(ValueError, match=r"matching \[B, E\] sides"):
            cosine_pair_loss_batch(four, ad.Tensor(other), [1, -1, 1, 1])
    with pytest.raises(ValueError, match=r"matching \[B, E\] sides"):
        cosine_pair_loss_batch(ad.Tensor(np.ones(4)), ad.Tensor(np.ones(4)), [1, -1, 1, 1])
    with pytest.raises(ValueError, match=r"B >= 1"):          # no pairs: no mean
        cosine_pair_loss_batch(ad.Tensor(np.ones((0, 3))), ad.Tensor(np.ones((0, 3))), [])


def test_batch_loss_is_mean_of_singles():
    rng = np.random.default_rng(1)
    e1 = rng.standard_normal((6, 5))
    e2 = rng.standard_normal((6, 5))
    ys = np.array([1, -1, 1, -1, -1, 1])
    batch = cosine_pair_loss_batch(
        ad.Tensor(e1, dtype=np.float64), ad.Tensor(e2, dtype=np.float64), ys, margin=0.5)
    singles = [cosine_pair_loss_batch(vec(e1[i]), vec(e2[i]), ys[i:i + 1], margin=0.5).item()
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
                lambda: cosine_pair_loss_batch(e1, e2, [y], margin=0.5), {"e1": e1, "e2": e2},
                rng=rng)
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
        mixer_layers=1, mixer_token_hidden=4,
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
    """Batch k makes one forward over exactly the distinct records of the
    stream's pairs [k*B, (k+1)*B) and scores those pairs in stream order,
    with a short last batch in each epoch."""
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
        out = orig_embed(self, encs, training=training, rng=rng)
        embedded.append({e.token_ids.tobytes(): row for e, row in zip(encs, out.data)})
        assert len(embedded[-1]) == len(encs)         # no record twice in one forward
        return out

    def spy_loss(e1, e2, labels, margin):
        scored.append((e1.data, e2.data, list(labels)))
        return orig_loss(e1, e2, labels, margin=margin)

    monkeypatch.setattr(train_mod, "make_pairs", spy_pairs)
    monkeypatch.setattr(Backbone, "embed_batch", spy_embed)
    monkeypatch.setattr(train_mod, "cosine_pair_loss_batch", spy_loss)
    train(corpus, vocab, bcfg, TrainConfig(seed=13, batch_size=batch, epochs=2, negatives=2))

    ids = [encode_function(vocab, r, k_tokens=bcfg.tokens_per_instruction,
                           max_positions=bcfg.max_positions).token_ids.tobytes()
           for r in corpus.records]
    assert len(set(ids)) == len(ids)                  # a record is known by its token ids
    expected = []
    for stream in streams:
        assert len(stream) % batch != 0
        pairs = list(stream)
        expected += [pairs[s:s + batch] for s in range(0, len(pairs), batch)]
    assert len(streams) == 2 and len(scored) == len(embedded) == len(expected)
    repeats = 0
    for k, pairs in enumerate(expected):
        sides = [[ids[corpus.records.index(getattr(p, side))] for p in pairs]
                 for side in ("anchor", "other")]
        assert set(embedded[k]) == set(sides[0] + sides[1]), k
        repeats += len(sides[0] + sides[1]) - len(embedded[k])
        for got, want in zip(scored[k][:2], sides):
            np.testing.assert_array_equal(got, [embedded[k][key] for key in want])
        assert scored[k][2] == [p.label for p in pairs]
    assert repeats > 0 and len(expected[-1]) < batch


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


def test_pair_sides_share_parameters(monkeypatch):
    """Both sides of every pair are rows gathered from the batch's one
    forward, so they see the same parameters."""
    from asmsim.models import Backbone

    train_mod = importlib.import_module("asmsim.train")
    corpus, vocab, bcfg = setup()
    forwards, sides = [], []
    orig_embed, orig_loss = Backbone.embed_batch, train_mod.cosine_pair_loss_batch

    def spy_embed(self, encs, training=False, rng=None):
        forwards.append(orig_embed(self, encs, training=training, rng=rng))
        return forwards[-1]

    def spy_loss(e1, e2, labels, margin):
        sides.append((e1, e2))
        return orig_loss(e1, e2, labels, margin=margin)

    monkeypatch.setattr(Backbone, "embed_batch", spy_embed)
    monkeypatch.setattr(train_mod, "cosine_pair_loss_batch", spy_loss)
    result = train(corpus, vocab, bcfg, TrainConfig(seed=41, batch_size=8, epochs=1,
                                                    negatives=1))
    assert len(forwards) == len(sides) == result.n_batches >= 2
    for out, pair_sides in zip(forwards, sides):
        for side in pair_sides:
            assert side.node.parents == (out.node,)
            assert all((out.data == row).all(axis=1).any() for row in side.data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_forward_step_matches_two_per_side_forwards(monkeypatch, variant):
    """The gathers' backward sums the gradients of a record's repeats, so the
    parameter gradients of a training step equal those of embedding each pair
    side in a forward of its own (the mixer without dropout)."""
    train_mod = importlib.import_module("asmsim.train")
    corpus, vocab, _ = setup()
    bcfg = dataclasses.replace(tiny_cfg(vocab.size, variant), mixer_dropout=0.0)
    cfg = TrainConfig(seed=43, batch_size=16, negatives=2)
    streams, steps = [], []
    orig_pairs = train_mod.make_pairs

    def spy_pairs(*args, **kwargs):
        streams.append(orig_pairs(*args, **kwargs))
        return streams[-1]

    class SpyAdam(train_mod.Adam):
        def step(self):
            steps.append({n: (p.data.copy(), p.grad.copy()) for n, p in self.params.items()})
            super().step()

    monkeypatch.setattr(train_mod, "make_pairs", spy_pairs)
    monkeypatch.setattr(train_mod, "Adam", SpyAdam)
    train(corpus, vocab, bcfg, cfg)
    batch = slice(0, cfg.batch_size)
    anchor, other = streams[0].anchor[batch], streams[0].other[batch]
    assert len(np.unique(np.concatenate([anchor, other]))) < 2 * len(anchor)   # repeats

    # the reference: the first step's parameters, each side in a forward of its own
    model = build_backbone(bcfg)
    for name, (data, _) in steps[0].items():
        model.params[name].data = data
    encs = [encode_function(vocab, r, k_tokens=bcfg.tokens_per_instruction,
                            max_positions=bcfg.max_positions) for r in corpus.records]
    e1 = model.embed_batch([encs[i] for i in anchor], training=True)
    e2 = model.embed_batch([encs[i] for i in other], training=True)
    cosine_pair_loss_batch(e1, e2, streams[0].labels[batch], margin=cfg.margin).backward()
    # float32 sums in another order; an atol on the step's largest gradient
    # covers entries whose gradient is zero up to rounding
    atol = 1e-6 * max(np.abs(p.grad).max() for p in model.params.values())
    for name, (_, grad) in steps[0].items():
        np.testing.assert_allclose(grad, model.params[name].grad, rtol=1e-5, atol=atol,
                                   err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_hand_off_keeps_training_bits(monkeypatch, variant):
    """Kernels hand their parents gradients without copies; one seeded
    training step (the mixer at dropout 0.1) gives the loss and parameters,
    bit for bit, of a run in which every first gradient is a copy."""
    corpus, vocab, _ = setup()
    bcfg = dataclasses.replace(
        tiny_cfg(vocab.size, variant), embed_dim=8, output_dim=16, conv_channels=16,
        mixer_token_hidden=12, mixer_channel_hidden=40, mixer_seq_len=6, mixer_dropout=0.1)
    cfg = TrainConfig(seed=47, batch_size=1000, negatives=2)
    handed = train(corpus, vocab, bcfg, cfg)
    accum = ad._accum
    monkeypatch.setattr(ad, "_accum", lambda node, g, own=False: accum(node, g))
    copied = train(corpus, vocab, bcfg, cfg)
    assert handed.n_batches == 1 and handed.losses == copied.losses
    for name, p in handed.backbone.params.items():
        np.testing.assert_array_equal(p.data, copied.backbone.params[name].data, err_msg=name)


def test_mixer_dropout_masks_each_distinct_record_once(monkeypatch):
    """With dropout on, every occurrence of a record in a batch gets the same
    row: one mask per distinct record per step."""
    from asmsim.models import Backbone

    train_mod = importlib.import_module("asmsim.train")
    corpus, vocab, _ = setup()
    bcfg = tiny_cfg(vocab.size, "mixer")
    assert bcfg.mixer_dropout > 0
    streams, scored, dropped = [], [], []
    orig_pairs, orig_embed, orig_loss = (train_mod.make_pairs, Backbone.embed_batch,
                                         train_mod.cosine_pair_loss_batch)

    def spy_pairs(*args, **kwargs):
        streams.append(orig_pairs(*args, **kwargs))
        return streams[-1]

    def spy_embed(self, encs, training=False, rng=None):
        out = orig_embed(self, encs, training=training, rng=rng)
        with ad.no_grad():
            dropped.append(not np.array_equal(out.data, orig_embed(self, encs).data))
        return out

    def spy_loss(e1, e2, labels, margin):
        scored.append((e1.data, e2.data))
        return orig_loss(e1, e2, labels, margin=margin)

    monkeypatch.setattr(train_mod, "make_pairs", spy_pairs)
    monkeypatch.setattr(Backbone, "embed_batch", spy_embed)
    monkeypatch.setattr(train_mod, "cosine_pair_loss_batch", spy_loss)
    cfg = TrainConfig(seed=47, batch_size=16, negatives=2)
    train(corpus, vocab, bcfg, cfg)
    assert all(dropped)
    stream, repeats = streams[0], 0
    for k, (e1, e2) in enumerate(scored):
        batch = slice(k * cfg.batch_size, (k + 1) * cfg.batch_size)
        records = np.concatenate([stream.anchor[batch], stream.other[batch]])
        rows = np.concatenate([e1, e2])
        for r in np.unique(records):
            same = rows[records == r]
            repeats += len(same) - 1
            np.testing.assert_array_equal(same, np.broadcast_to(same[0], same.shape))
    assert repeats > 0


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
    project(out).backward()
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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


def test_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    written = write_loss_csv(path, [0.5, 0.25])
    assert path.read_text() == "batch_index,loss\n0,0.5\n1,0.25\n"
    assert written == hashlib.sha256(path.read_bytes()).hexdigest()


def test_lstm_and_mixer_train_smoke():
    corpus, vocab, _ = setup()
    for variant in ("lstm", "mixer"):
        bcfg = tiny_cfg(vocab.size, variant=variant)
        result = train(corpus, vocab, bcfg,
                       TrainConfig(seed=81, batch_size=10, epochs=1, negatives=1))
        assert result.n_batches >= 1
        assert all(np.isfinite(v) for v in result.losses)
