"""Backbone shapes, parameter counts, architecture traces, and checkpoints."""

import numpy as np
import pytest

from scipy.special import erf

import asmsim.autodiff as ad
from asmsim.errors import DataError
from asmsim.models import (
    BackboneConfig, build_backbone, load_checkpoint, save_checkpoint,
)
from asmsim.tokenizer import EncodedFunction, PAD_ID, Vocabulary


def small_cfg(variant, **kw):
    base = dict(
        variant=variant, vocab_size=11, embed_dim=4, tokens_per_instruction=3,
        output_dim=6, max_positions=8, conv_widths=(3, 2), conv_channels=5,
        lstm_hidden=6, mixer_layers=2, mixer_token_hidden=5,
        mixer_channel_hidden=7, mixer_seq_len=6, mixer_dropout=0.1,
    )
    base.update(kw)
    return BackboneConfig(**base)


def enc(rng, s, cfg):
    token_ids = rng.integers(0, cfg.vocab_size, size=(s, cfg.tokens_per_instruction)).astype(np.int32)
    position_ids = np.minimum(np.arange(s, dtype=np.int32), cfg.max_positions - 1)
    return EncodedFunction(token_ids, position_ids)


def tiny_vocab(n_extra=9):
    toks = ["<PAD>", "<UNK>"] + [f"t{i}" for i in range(n_extra)]
    return Vocabulary(toks, [0] * len(toks), min_freq=32)


# ------------------------------------------------------------------ grid

def ref_grid(p, e, length):
    """float64 [length, H] grid: token vectors then the position vector, zero rows past the end."""
    s = min(e.n_instructions, length)
    rows = np.concatenate([p["token_table"][e.token_ids[:s]].reshape(s, -1),
                           p["pos_table"][e.position_ids[:s]]], axis=1)
    return np.vstack([rows, np.zeros((length - s, rows.shape[1]))])


def test_lookup_grid_shape_and_content():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    rng = np.random.default_rng(0)
    encs = [enc(rng, 4, cfg), enc(rng, 2, cfg), enc(rng, 7, cfg)]
    grid = model._grid(encs, 5)
    assert grid.shape == (3, 5, cfg.grid_width)
    tok_tab = model.params["token_table"].data
    pos_tab = model.params["pos_table"].data
    d = cfg.embed_dim
    row = grid.data[0, 2]
    for j in range(cfg.tokens_per_instruction):
        np.testing.assert_array_equal(row[j * d:(j + 1) * d], tok_tab[encs[0].token_ids[2, j]])
    np.testing.assert_array_equal(row[-d:], pos_tab[encs[0].position_ids[2]])
    p = {k: v.data for k, v in model.params.items()}
    for e, g in zip(encs, grid.data):   # rows past the end are zero; the 7-row function is cut
        np.testing.assert_array_equal(g, ref_grid(p, e, 5))


def test_lookup_grid_pad_row_is_zero():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    e = EncodedFunction(np.full((2, 3), PAD_ID, dtype=np.int32), np.array([0, 1], dtype=np.int32))
    grid = model._grid([e], 4)
    d = cfg.embed_dim
    np.testing.assert_array_equal(grid.data[0, :, :3 * d], 0.0)
    np.testing.assert_array_equal(grid.data[0, 2:], 0.0)       # padding: PAD ids, zero position


def test_lookup_grid_id_out_of_bounds():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    rng = np.random.default_rng(0)
    bad = EncodedFunction(np.array([[0, 1, 99]], dtype=np.int32), np.array([0], dtype=np.int32))
    with pytest.raises(DataError, match="mismatch"):
        model.embed_batch([enc(rng, 3, cfg), bad])


# ------------------------------------------------------------------ param counts

def closed_form_textcnn(v, d, k, e, p_max, widths, channels):
    h = d * (k + 1)
    table = v * d + p_max * d
    convs = sum(channels * h * w + channels for w in widths)
    fc = channels * len(widths) * e + e
    return table + convs + fc


def test_textcnn_param_count_paper_defaults():
    cfg = BackboneConfig(variant="textcnn", vocab_size=40_000)
    model = build_backbone(cfg, seed=0)
    expected = closed_form_textcnn(40_000, 192, 5, 192, 512, (5, 5, 5, 5, 3, 3), 192)
    assert expected == 13_751_616
    assert model.param_count() == expected - 192  # PAD row is pinned, not trainable
    assert abs(expected - 13_440_000) / 13_440_000 < 0.05


def test_textcnn_param_count_empty_vocab():
    cfg = BackboneConfig(variant="textcnn", vocab_size=2)
    model = build_backbone(cfg, seed=0)
    # table contribution: UNK row only, plus the full position table
    table_part = 1 * 192 + 512 * 192
    head = closed_form_textcnn(0, 192, 5, 192, 0, (5, 5, 5, 5, 3, 3), 192)
    assert model.param_count() == table_part + head


def test_lstm_param_count_matches_closed_form():
    cfg = BackboneConfig(variant="lstm", vocab_size=40_000)
    model = build_backbone(cfg, seed=0)
    zin = 192 + 1152
    expected = 40_000 * 192 + 512 * 192 + 4 * (zin * 192 + 192) - 192
    assert model.param_count() == expected
    assert abs(model.param_count() - 8_811_264) <= 192


def test_mixer_param_count_within_ten_percent_of_reference():
    cfg = BackboneConfig(variant="mixer", vocab_size=40_000)
    model = build_backbone(cfg, seed=0)
    assert abs(model.param_count() - 13_040_000) / 13_040_000 < 0.10


def test_param_count_is_actual_sum():
    for variant in ("textcnn", "lstm", "mixer"):
        cfg = small_cfg(variant, output_dim=6 if variant == "lstm" else 6)
        model = build_backbone(cfg, seed=3)
        total = sum(p.data.size for p in model.params.values())
        assert model.param_count() == total - cfg.embed_dim


# ------------------------------------------------------------------ init behavior

def test_init_deterministic_and_seed_sensitive():
    cfg = small_cfg("textcnn")
    a = build_backbone(cfg, seed=7)
    b = build_backbone(cfg, seed=7)
    c = build_backbone(cfg, seed=8)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_init_pad_row_zero_biases_zero():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=7)
    np.testing.assert_array_equal(model.params["token_table"].data[PAD_ID], 0.0)
    np.testing.assert_array_equal(model.params["conv0.b"].data, 0.0)
    np.testing.assert_array_equal(model.params["fc.b"].data, 0.0)


def test_lstm_config_requires_hidden_equals_output():
    with pytest.raises(ValueError, match="lstm_hidden"):
        small_cfg("lstm", lstm_hidden=5, output_dim=6)


# ------------------------------------------------------------------ forward traces

def all_variants():
    return [
        small_cfg("textcnn"),
        small_cfg("lstm"),
        small_cfg("mixer"),
    ]


def test_embedding_shapes_and_finite():
    rng = np.random.default_rng(5)
    for cfg in all_variants():
        model = build_backbone(cfg, seed=2)
        for s in (1, 2, 7, 40):
            out = model.embed(enc(rng, s, cfg))
            assert out.shape == (cfg.output_dim,)
            assert np.all(np.isfinite(out.data))


def test_short_function_below_kernel_width():
    cfg = small_cfg("textcnn", conv_widths=(5, 3))
    model = build_backbone(cfg, seed=2)
    rng = np.random.default_rng(6)
    out = model.embed(enc(rng, 2, cfg))  # below both widths
    assert out.shape == (cfg.output_dim,)
    assert np.all(np.isfinite(out.data))


def test_lstm_zero_weights_give_zero_embedding():
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=2)
    for name, p in model.params.items():
        if name.startswith(("w_", "b_")):
            p.data[:] = 0.0
    rng = np.random.default_rng(7)
    out = model.embed(enc(rng, 5, cfg))
    np.testing.assert_array_equal(out.data, 0.0)


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + 1e-5) + b


def ref_textcnn(p, cfg, e):
    """Windowed loop over one function's grid, zero-padded to the widest kernel."""
    grid = ref_grid(p, e, max(e.n_instructions, max(cfg.conv_widths)))
    feats = []
    for i, width in enumerate(cfg.conv_widths):   # widths in small_cfg come grouped in index order
        w, b = p[f"conv{i}.w"], p[f"conv{i}.b"]
        outs = [np.einsum("chw,wh->c", w, grid[t:t + width]) + b
                for t in range(len(grid) - width + 1)]
        feats.append(np.maximum(np.max(outs, axis=0), 0.0))
    return np.concatenate(feats) @ p["fc.w"] + p["fc.b"]


def ref_lstm(p, cfg, e):
    """The coupled-gate recurrence on z = [h_{t-1}, x_t], one instruction at a time."""
    grid = ref_grid(p, e, e.n_instructions)
    h = np.zeros(cfg.lstm_hidden)
    c = np.zeros(cfg.lstm_hidden)
    for x_t in grid:
        z = np.concatenate([h, x_t])
        i = sig(z @ p["w_i"] + p["b_i"])
        f = sig(z @ p["w_f"] + p["b_f"])
        c_t = np.tanh(z @ p["w_c"] + p["b_c"])
        o = sig(z @ p["w_o"] + p["b_o"])
        c = f * c + i * c_t
        h = o * np.tanh(c)
    return h


def ref_mixer(p, cfg, e):
    """Token- and channel-mixing MLPs on the grid cut or zero-padded to mixer_seq_len."""
    x = ref_grid(p, e, cfg.mixer_seq_len)          # [S, C]
    for layer in range(cfg.mixer_layers):
        q = {k[len(f"layer{layer}."):]: v for k, v in p.items() if k.startswith(f"layer{layer}.")}
        u = layer_norm(x, q["ln1.g"], q["ln1.b"]).T  # [C, S]
        x = x + (gelu(u @ q["tok.w1"] + q["tok.b1"]) @ q["tok.w2"] + q["tok.b2"]).T
        v = layer_norm(x, q["ln2.g"], q["ln2.b"])
        x = x + gelu(v @ q["ch.w1"] + q["ch.b1"]) @ q["ch.w2"] + q["ch.b2"]
    x = layer_norm(x, p["ln_final.g"], p["ln_final.b"])
    return x.mean(axis=0) @ p["fc.w"] + p["fc.b"]


REFERENCES = {"textcnn": ref_textcnn, "lstm": ref_lstm, "mixer": ref_mixer}

# 1, below the widest conv (3), mixer_seq_len (6), mixer_seq_len + 5, 40
MIXED_LENGTHS = (40, 6, 1, 11, 2)


def perturbed(model, rng):
    """Random nonzero biases and norm scales, so every parameter reaches the output."""
    for p in model.params.values():
        p.data += (0.1 * rng.standard_normal(p.shape)).astype(p.dtype)
    model.params["token_table"].data[PAD_ID] = 0.0
    return model


@pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-10, 1e-12),
                                               (np.float32, 2e-4, 2e-6)])
def test_embed_batch_matches_float64_reference(dtype, rtol, atol):
    rng = np.random.default_rng(8)
    for cfg in all_variants():
        model = perturbed(build_backbone(cfg, seed=9, dtype=dtype), rng)
        encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
        out = model.embed_batch(encs).data
        p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
        expected = np.stack([REFERENCES[cfg.variant](p, cfg, e) for e in encs])
        np.testing.assert_allclose(out, expected, rtol=rtol, atol=atol, err_msg=cfg.variant)


def test_lstm_matches_manual_recurrence():
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=9)
    rng = np.random.default_rng(8)
    e = enc(rng, 6, cfg)
    out = model.embed(e).data
    p = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    np.testing.assert_allclose(out, ref_lstm(p, cfg, e), rtol=1e-5, atol=1e-6)


def test_mixer_zero_mlps_reduce_to_skip_path():
    cfg = small_cfg("mixer", mixer_dropout=0.0)
    model = build_backbone(cfg, seed=4)
    for name, p in model.params.items():
        if ".tok." in name or ".ch." in name:
            p.data[:] = 0.0
    rng = np.random.default_rng(9)
    e = enc(rng, cfg.mixer_seq_len, cfg)
    out = model.embed(e).data

    # independent trace: skips pass the grid through, then LN -> mean -> FC
    grid = np.concatenate([
        model.params["token_table"].data[e.token_ids].reshape(cfg.mixer_seq_len, -1),
        model.params["pos_table"].data[e.position_ids],
    ], axis=1).astype(np.float64)
    mu = grid.mean(axis=1, keepdims=True)
    var = ((grid - mu) ** 2).mean(axis=1, keepdims=True)
    xhat = (grid - mu) / np.sqrt(var + 1e-5)
    ln = model.params["ln_final.g"].data * xhat + model.params["ln_final.b"].data
    pooled = ln.mean(axis=0)
    expected = pooled @ model.params["fc.w"].data + model.params["fc.b"].data
    np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)


def test_mixer_truncates_beyond_fixed_length():
    cfg = small_cfg("mixer", mixer_dropout=0.0)
    model = build_backbone(cfg, seed=4)
    rng = np.random.default_rng(10)
    e_long = enc(rng, cfg.mixer_seq_len + 5, cfg)
    e_trunc = EncodedFunction(e_long.token_ids[:cfg.mixer_seq_len],
                              e_long.position_ids[:cfg.mixer_seq_len])
    np.testing.assert_array_equal(model.embed(e_long).data, model.embed(e_trunc).data)


def test_textcnn_gelu_not_involved_relu_max_pool_path():
    # a one-instruction function with an all-PAD row plus zero position vector
    # pools at least the bias, so outputs stay finite
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=11)
    model.params["pos_table"].data[:] = 0.0
    e = EncodedFunction(np.full((1, 3), PAD_ID, dtype=np.int32), np.zeros(1, dtype=np.int32))
    out = model.embed(e)
    assert np.all(np.isfinite(out.data))


def test_batch_embed_matches_single():
    rng = np.random.default_rng(12)
    for cfg in all_variants():
        model = build_backbone(cfg, seed=13)
        encs = [enc(rng, s, cfg) for s in (1, 3, 8, 2)]
        batch = model.embed_batch(encs).data
        singles = np.stack([model.embed(e).data for e in encs])
        np.testing.assert_allclose(batch, singles, rtol=2e-4, atol=2e-6)


def test_long_function_embeds_finite():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=14)
    rng = np.random.default_rng(15)
    out = model.embed(enc(rng, 2048, cfg))
    assert np.all(np.isfinite(out.data))


# ------------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=21)
    vocab = tiny_vocab(cfg.vocab_size - 2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, vocab)
    loaded, loaded_vocab = load_checkpoint(path)
    assert loaded.fingerprint() == model.fingerprint()
    assert loaded.cfg == cfg
    assert loaded_vocab.id_to_token == vocab.id_to_token
    # byte-stable re-save
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, loaded_vocab)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_detects_corruption(tmp_path):
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=22)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, tiny_vocab(cfg.vocab_size - 2))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_vocab_size_cross_check(tmp_path):
    cfg = small_cfg("mixer")
    model = build_backbone(cfg, seed=23)
    wrong_vocab = tiny_vocab(cfg.vocab_size)  # two extra tokens
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, wrong_vocab)
    with pytest.raises(DataError, match="size"):
        load_checkpoint(path)


# ------------------------------------------------------------------ gradients

def test_backbone_gradients_match_finite_differences():
    """Through embed_batch on a mixed-length batch, so padded rows, the pool
    mask, frozen LSTM rows and mixer truncation are all on the path; the
    mixer runs in training mode with the same dropout draws on every call."""
    from asmsim.optim import finite_diff_check

    rng = np.random.default_rng(31)
    for cfg in all_variants():
        model = perturbed(build_backbone(cfg, seed=32, dtype=np.float64), rng)
        encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
        proj = rng.standard_normal((len(encs), cfg.output_dim))

        def f():
            out = model.embed_batch(encs, training=True, rng=np.random.default_rng(33))
            return ad.sum_(out * proj)

        report = finite_diff_check(
            f, model.params, rel_tolerance=1e-4, rng=rng,
            max_coords_per_param=6, frozen=model.frozen_masks(),
        )
        assert report.passed, (cfg.variant, {k: c.max_rel_err for k, c in report.per_param.items()})
