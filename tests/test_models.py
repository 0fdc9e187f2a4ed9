"""Backbone shapes, parameter counts, architecture traces, and checkpoints."""

import dataclasses
import errno
import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from scipy.special import erf

import asmsim.autodiff as ad
from asmsim.errors import DataError
from asmsim.models import (
    Backbone, BackboneConfig, build_backbone, load_checkpoint, save_checkpoint,
)
from asmsim.tokenizer import EncodedFunction, PAD_ID, Vocabulary
from gradcheck import project


def small_cfg(variant, **kw):
    base = dict(
        variant=variant, vocab_size=11, embed_dim=4, tokens_per_instruction=3,
        output_dim=6, max_positions=8, conv_widths=(3, 2), conv_channels=5,
        mixer_layers=2, mixer_token_hidden=5,
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
    """Packed rows: a function longer than its rows is cut, a shorter one is
    padded with PAD ids and position -1, which embeds as zero rows."""
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    rng = np.random.default_rng(0)
    encs = [enc(rng, 4, cfg), enc(rng, 2, cfg), enc(rng, 7, cfg)]
    rows = np.array([5, 3, 5])
    ids, pos = model._pack(encs, rows)
    assert ids.shape == (13, cfg.tokens_per_instruction) and pos.shape == (13,)
    np.testing.assert_array_equal(pos, [0, 1, 2, 3, -1, 0, 1, -1, 0, 1, 2, 3, 4])
    grid = model._embed_rows(ids, pos)
    assert grid.shape == (13, cfg.grid_width)
    tok_tab = model.params["token_table"].data
    pos_tab = model.params["pos_table"].data
    d = cfg.embed_dim
    row = grid.data[2]
    for j in range(cfg.tokens_per_instruction):
        np.testing.assert_array_equal(row[j * d:(j + 1) * d], tok_tab[encs[0].token_ids[2, j]])
    np.testing.assert_array_equal(row[-d:], pos_tab[encs[0].position_ids[2]])
    p = {k: v.data for k, v in model.params.items()}
    for e, lo, r in zip(encs, [0, 5, 8], rows):  # padding rows are zero; the 7-row function is cut
        np.testing.assert_array_equal(grid.data[lo:lo + r], ref_grid(p, e, r))
    batched = model._embed_rows(ids.reshape(13, 1, -1), pos.reshape(13, 1))
    np.testing.assert_array_equal(batched.data.reshape(13, -1), grid.data)


def test_lookup_grid_pad_row_is_zero():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    e = EncodedFunction(np.full((2, 3), PAD_ID, dtype=np.int32), np.array([0, 1], dtype=np.int32))
    grid = model._embed_rows(*model._pack([e], np.array([4])))
    d = cfg.embed_dim
    np.testing.assert_array_equal(grid.data[:, :3 * d], 0.0)
    np.testing.assert_array_equal(grid.data[2:], 0.0)          # padding: PAD ids, zero position
    assert np.all(grid.data[:2, 3 * d:] != 0.0)


def test_lookup_grid_id_out_of_bounds():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=1)
    rng = np.random.default_rng(0)
    for bad_id, message in ((99, "mismatch"), (-1, "negative token id -1")):
        bad = EncodedFunction(np.array([[0, 1, bad_id]], dtype=np.int32),
                              np.array([0], dtype=np.int32))
        with pytest.raises(DataError, match=message):
            model.embed_batch([enc(rng, 3, cfg), bad])
    empty = EncodedFunction(np.zeros((0, 3), dtype=np.int32), np.zeros(0, dtype=np.int32))
    for variant in ("textcnn", "lstm", "mixer"):
        with pytest.raises(DataError, match="zero instructions"):
            build_backbone(small_cfg(variant), seed=1).embed_batch([enc(rng, 3, cfg), empty])


@pytest.mark.parametrize("variant", ["textcnn", "lstm", "mixer"])
def test_every_id_of_a_forward_is_checked(variant, monkeypatch):
    """One check covers every function of a forward, each a packed group of
    its own here, and every row of each, also the rows past mixer_seq_len
    that the mixer cuts; it reports the forward's extreme id."""
    cfg = small_cfg(variant)
    model = build_backbone(cfg, seed=1)
    monkeypatch.setattr(type(model), "PACK_ROWS", 4)
    rng = np.random.default_rng(0)
    n = cfg.mixer_seq_len + 2
    assert model.embed_batch([enc(rng, n, cfg) for _ in range(3)]).shape == (3, cfg.output_dim)
    for column, bad, message in (
            ("token_ids", (-2, -5), "negative token id -5"),
            ("token_ids", (12, 15), "token id 15 exceeds vocabulary size 11"),
            ("position_ids", (-1, -1), "negative position id -1"),
            ("position_ids", (-1, -3), "negative position id -3"),
            ("position_ids", (8, 9), "position id exceeds the model's position table")):
        encs = [enc(rng, n, cfg) for _ in range(3)]
        getattr(encs[1], column)[-1] = bad[0]
        getattr(encs[-1], column)[-1] = bad[1]               # a row the mixer cuts
        with pytest.raises(DataError, match=message):
            model.embed_batch(encs)


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
            out = model.embed_batch([enc(rng, s, cfg)])
            assert out.shape == (1, cfg.output_dim)
            assert np.all(np.isfinite(out.data))


def test_short_function_below_kernel_width():
    cfg = small_cfg("textcnn", conv_widths=(5, 3))
    model = build_backbone(cfg, seed=2)
    rng = np.random.default_rng(6)
    out = model.embed_batch([enc(rng, 2, cfg)])  # below both widths
    assert out.shape == (1, cfg.output_dim)
    assert np.all(np.isfinite(out.data))


def test_lstm_zero_weights_give_zero_embedding():
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=2)
    for name in ("w_x", "w_h", "b"):
        model.params[name].data[:] = 0.0
    rng = np.random.default_rng(7)
    out = model.embed_batch([enc(rng, 5, cfg)])
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
        outs = [np.einsum("hwc,wh->c", w, grid[t:t + width]) + b
                for t in range(len(grid) - width + 1)]
        feats.append(np.maximum(np.max(outs, axis=0), 0.0))
    return np.concatenate(feats) @ p["fc.w"] + p["fc.b"]


def ref_lstm(p, cfg, e):
    """The coupled-gate recurrence on z = [h_{t-1}, x_t], one instruction at a
    time; the fused [h + H, 4h] weight's columns are the i, f, c~, o gates."""
    grid = ref_grid(p, e, e.n_instructions)
    h = np.zeros(cfg.output_dim)
    c = np.zeros(cfg.output_dim)
    w = np.concatenate([p["w_h"], p["w_x"].reshape(-1, 4 * cfg.output_dim)])
    for x_t in grid:
        z = np.concatenate([h, x_t]) @ w + p["b"]
        i, f, c_t, o = np.split(z, 4)
        i, f, c_t, o = sig(i), sig(f), np.tanh(c_t), sig(o)
        c = f * c + i * c_t
        h = o * np.tanh(c)
    return h


def ref_mixer(p, cfg, e):
    """Token- and channel-mixing MLPs on the grid cut or zero-padded to
    mixer_seq_len; the token-mixing MLP has no output bias."""
    x = ref_grid(p, e, cfg.mixer_seq_len)          # [S, C]
    for layer in range(cfg.mixer_layers):
        q = {k[len(f"layer{layer}."):]: v for k, v in p.items() if k.startswith(f"layer{layer}.")}
        u = layer_norm(x, q["ln1.g"], q["ln1.b"]).T  # [C, S]
        x = x + (gelu(u @ q["tok.w1"] + q["tok.b1"]) @ q["tok.w2"]).T
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
    out = model.embed_batch([e]).data[0]
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
    out = model.embed_batch([e]).data[0]

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
    np.testing.assert_array_equal(model.embed_batch([e_long]).data,
                                  model.embed_batch([e_trunc]).data)


def test_training_mode_mixer_needs_an_rng():
    """Dropout draws its masks from the caller's rng; inference draws none."""
    cfg = small_cfg("mixer")
    model = build_backbone(cfg, seed=4)
    e = enc(np.random.default_rng(11), 3, cfg)
    with pytest.raises(ValueError, match="needs an RNG"):
        model.embed_batch([e], training=True)
    assert model.embed_batch([e]).shape == (1, cfg.output_dim)
    assert build_backbone(small_cfg("mixer", mixer_dropout=0.0), seed=4).embed_batch(
        [e], training=True).shape == (1, cfg.output_dim)


def test_float32_mixer_never_calls_scipy_erf(monkeypatch):
    """A float32 mixer's training forward and backward take the GELU gate
    from the float32 rational erf; a silent fall back to scipy's erf (the
    float64 path, three times slower) fails here."""
    def no_erf(*args, **kwargs):
        raise AssertionError("scipy.special.erf called")

    monkeypatch.setattr(ad, "erf", no_erf)
    cfg = small_cfg("mixer")
    rng = np.random.default_rng(18)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    model = build_backbone(cfg, seed=19)
    out = model.embed_batch(encs, training=True, rng=np.random.default_rng(20))
    project(out, rng.standard_normal(out.shape).astype(np.float32)).backward()
    assert all(p.grad is not None for p in model.params.values())
    with pytest.raises(AssertionError, match="erf called"):    # the spy is live
        build_backbone(cfg, seed=19, dtype=np.float64).embed_batch(encs)


def test_textcnn_gelu_not_involved_relu_max_pool_path():
    # a one-instruction function with an all-PAD row plus zero position vector
    # pools at least the bias, so outputs stay finite
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=11)
    model.params["pos_table"].data[:] = 0.0
    e = EncodedFunction(np.full((1, 3), PAD_ID, dtype=np.int32), np.zeros(1, dtype=np.int32))
    out = model.embed_batch([e])
    assert np.all(np.isfinite(out.data))


def test_batch_embed_matches_single():
    rng = np.random.default_rng(12)
    for cfg in all_variants():
        model = build_backbone(cfg, seed=13)
        encs = [enc(rng, s, cfg) for s in (1, 3, 8, 2)]
        batch = model.embed_batch(encs).data
        singles = np.concatenate([model.embed_batch([e]).data for e in encs])
        np.testing.assert_allclose(batch, singles, rtol=2e-4, atol=2e-6)


def test_long_function_embeds_finite():
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=14)
    rng = np.random.default_rng(15)
    out = model.embed_batch([enc(rng, 2048, cfg)])
    assert np.all(np.isfinite(out.data))


def test_embed_matrix_keeps_model_dtype():
    rng = np.random.default_rng(16)
    for dtype in (np.float32, np.float64):
        model = build_backbone(small_cfg("textcnn"), seed=17, dtype=dtype)
        assert model.embed_matrix([]).dtype == dtype
        assert model.embed_matrix([]).shape == (0, model.cfg.output_dim)
        assert model.embed_matrix([enc(rng, 4, model.cfg)]).dtype == dtype


def test_textcnn_never_builds_the_grid(monkeypatch):
    """The convolution reads token and position ids; the dense rows of token
    and position vectors are for the lstm and the mixer only."""
    def no_rows(self, ids, pos):
        raise AssertionError("textcnn built the dense rows")

    monkeypatch.setattr(Backbone, "_embed_rows", no_rows)
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=18)
    rng = np.random.default_rng(19)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    project(model.embed_batch(encs, training=True, rng=rng)).backward()
    assert model.params["conv0.w"].grad is not None
    assert model.embed_matrix(encs).shape == (len(encs), cfg.output_dim)


def test_textcnn_relu_runs_on_pooled_features(monkeypatch):
    """The bias and ReLU apply to the [B, C] pooled features, never to a
    bank's [R, C] output positions."""
    relu = ad.relu

    def pooled_only(x):
        if x.shape != (len(encs), cfg.conv_channels):
            raise AssertionError(f"relu over {x.shape}, not over pooled [B, C] features")
        return relu(x)

    monkeypatch.setattr(ad, "relu", pooled_only)
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=18)
    rng = np.random.default_rng(19)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    project(model.embed_batch(encs, training=True, rng=rng)).backward()
    assert model.params["conv0.b"].grad is not None
    assert model.embed_matrix(encs).shape == (len(encs), cfg.output_dim)


def test_lstm_never_builds_the_rows(monkeypatch):
    """The lstm projects each distinct token through the gates' input weights;
    the dense rows of token and position vectors are for the mixer only."""
    def no_rows(self, ids, pos):
        raise AssertionError("lstm built the dense rows")

    monkeypatch.setattr(Backbone, "_embed_rows", no_rows)
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=18)
    rng = np.random.default_rng(19)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    project(model.embed_batch(encs, training=True, rng=rng)).backward()
    assert all(p.grad is not None for p in model.params.values())
    assert model.embed_matrix(encs).shape == (len(encs), cfg.output_dim)


def test_lstm_reads_its_weights_in_place(monkeypatch):
    """A training forward feeds w_x, w_h and b to their kernels as stored:
    no concat and no row gather runs on a parameter."""
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=18)
    params = {id(p) for p in model.params.values()}

    def guard(op):
        def run(first, *rest, **kw):
            args = list(first) if isinstance(first, (list, tuple)) else [first]
            assert not any(id(a) in params for a in args), f"{op.__name__} on a parameter"
            return op(first, *rest, **kw)
        return run

    for name in ("concat", "embedding"):
        monkeypatch.setattr(ad, name, guard(getattr(ad, name)))
    rng = np.random.default_rng(19)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    project(model.embed_batch(encs, training=True, rng=rng)).backward()
    assert all(model.params[k].grad is not None for k in ("w_x", "w_h", "b"))


def test_init_draws_each_weight_in_its_stored_shape():
    """After the two tables, every weight is drawn from the rng in the shape
    it is stored and read, in layout order, uniform over +-sqrt(6 / fan_in);
    biases and the PAD row are zero."""
    for variant in ("textcnn", "lstm"):
        cfg = small_cfg(variant)
        model = build_backbone(cfg, seed=17)
        rng = np.random.default_rng(17)
        h, hid, zeros = cfg.grid_width, cfg.output_dim, np.zeros

        def uniform(shape, fan_in):
            bound = np.sqrt(6.0 / fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(np.float32)

        want = {name: rng.normal(0.0, 0.02, size=(rows, cfg.embed_dim)).astype(np.float32)
                for name, rows in (("token_table", cfg.vocab_size),
                                   ("pos_table", cfg.max_positions))}
        want["token_table"][PAD_ID] = 0.0
        if variant == "textcnn":
            for i, width in enumerate(cfg.conv_widths):
                want[f"conv{i}.w"] = uniform((h, width, cfg.conv_channels), h * width)
                want[f"conv{i}.b"] = zeros(cfg.conv_channels, np.float32)
            pooled = cfg.conv_channels * len(cfg.conv_widths)
            want["fc.w"] = uniform((pooled, cfg.output_dim), pooled)
            want["fc.b"] = zeros(cfg.output_dim, np.float32)
        else:
            want["w_h"] = uniform((hid, 4 * hid), hid + h)
            want["w_x"] = uniform((h, 1, 4 * hid), hid + h)
            want["b"] = zeros(4 * hid, np.float32)
        assert list(model.params) == list(want)
        for name, value in want.items():
            got = model.params[name].data
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), (variant, name)
        assert not model.params["token_table"].data[PAD_ID].any()


def test_lstm_graph_does_not_grow_with_length(monkeypatch):
    """A 5- and a 300-instruction function create the same number of autodiff
    nodes: the recurrence is one node, not a graph per step."""
    made = []
    node = ad._node

    def counted(data, parents, backward):
        made.append(1)
        return node(data, parents, backward)

    monkeypatch.setattr(ad, "_node", counted)
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=18)
    rng = np.random.default_rng(19)
    counts = []
    for length in (5, 300):
        made.clear()
        project(model.embed_batch([enc(rng, length, cfg)], training=True, rng=rng)).backward()
        counts.append(len(made))
    assert counts[0] == counts[1]


# unsorted; 1 and 2 below the widest kernel (3), 40 longer than the forced budget
PACKED_LENGTHS = (5, 40, 1, 6, 2, 4)
# groups under PACK_ROWS = 12, in caller order. textcnn rows: 5 | 40 | 3 + 6 + 3 | 4;
# lstm rows: 5 | 40 | 1 + 6 + 2 | 4; mixer rows: 6 + 6 each.
PACKED_GROUPS = {"textcnn": [1, 1, 3, 1], "lstm": [1, 1, 3, 1], "mixer": [2, 2, 2]}


def test_textcnn_pack_groups_match_one_group_and_single_functions(monkeypatch):
    """For every backbone, a row budget that splits the batch into several
    packed groups changes neither the rows nor the gradients, and each row is
    that function's embed. The mixer runs without dropout, whose masks fall
    on other functions when the groups change."""
    for variant in ("textcnn", "lstm", "mixer"):
        cfg = small_cfg(variant, mixer_dropout=0.0)
        model = perturbed(build_backbone(cfg, seed=22), np.random.default_rng(23))
        rng = np.random.default_rng(24)
        encs = [enc(rng, s, cfg) for s in PACKED_LENGTHS]
        packs = []
        head = type(model)._head

        def counted(self, ids, pos, rows, training, rng):
            packs.append(len(rows))
            return head(self, ids, pos, rows, training, rng)

        def forward():
            for p in model.params.values():
                p.grad = None
            out = model.embed_batch(encs, training=True)
            project(out, np.linspace(-1.0, 1.0, out.size).reshape(out.shape)).backward()
            return out.data, {n: p.grad.copy() for n, p in model.params.items()}

        with monkeypatch.context() as m:
            m.setattr(type(model), "_head", counted)
            one, one_grads = forward()
            assert packs == [len(encs)], cfg.variant
            m.setattr(type(model), "PACK_ROWS", 12)
            packs.clear()
            split, split_grads = forward()
            assert packs == PACKED_GROUPS[cfg.variant]
        singles = np.concatenate([model.embed_batch([e]).data for e in encs])
        np.testing.assert_allclose(split, one, rtol=2e-4, atol=2e-6, err_msg=cfg.variant)
        np.testing.assert_allclose(split, singles, rtol=2e-4, atol=2e-6, err_msg=cfg.variant)
        for name in one_grads:
            np.testing.assert_allclose(split_grads[name], one_grads[name], rtol=2e-4, atol=2e-6,
                                       err_msg=f"{cfg.variant} {name}")


PEAK_LINE = """
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024)
"""

EMBED_MEMORY = """
import sys
sys.path.insert(0, sys.argv[1])
from asmsim.models import BackboneConfig, build_backbone
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import build_vocab, encode_function
variant, n_families, join = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
recs = generate(SynthConfig(n_families=n_families, seed=1))
vocab = build_vocab(recs)
funcs = [[i for r in recs[j:j + join] for i in r.instructions] for j in range(0, len(recs), join)]
encs = [encode_function(vocab, f) for f in funcs]
rows = build_backbone(BackboneConfig(variant, vocab.size), seed=0).embed_matrix(encs)
assert rows.shape == (len(funcs), 192)
""" + PEAK_LINE

TRAIN_STEP_MEMORY = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from asmsim.models import BackboneConfig, build_backbone
from asmsim.optim import Adam
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import build_vocab, encode_function
from asmsim.train import cosine_pair_loss_batch
variant, pairs = sys.argv[2], int(sys.argv[3])
n_families, join = int(sys.argv[4]), int(sys.argv[5])
recs = generate(SynthConfig(n_families=n_families, seed=1))
vocab = build_vocab(recs)
funcs = [[i for r in recs[j:j + join] for i in r.instructions]
         for j in range(0, 2 * pairs * join, join)]
encs = [encode_function(vocab, f) for f in funcs]
model = build_backbone(BackboneConfig(variant, vocab.size), seed=0)
opt = Adam(model.params)
rng = np.random.default_rng(0)
e1 = model.embed_batch(encs[0::2], training=True, rng=rng)
e2 = model.embed_batch(encs[1::2], training=True, rng=rng)
loss = cosine_pair_loss_batch(e1, e2, np.resize([1, -1], pairs))
loss.backward()
opt.step()
assert np.isfinite(loss.item())
""" + PEAK_LINE


TRAIN_MEMORY = """
import sys
sys.path.insert(0, sys.argv[1])
from asmsim.corpus import CorpusIndex
from asmsim.models import BackboneConfig
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import build_vocab
from asmsim.train import TrainConfig, train
variant, n_families = sys.argv[2], int(sys.argv[3])
recs = generate(SynthConfig(n_families=n_families, seed=1))
vocab = build_vocab(recs)
result = train(CorpusIndex(recs), vocab, BackboneConfig(variant, vocab.size),
               TrainConfig(seed=1, batch_size=100_000, negatives=2))
assert result.n_batches == 1
""" + PEAK_LINE


def child_peak_mb(script, *args):
    """Peak RSS in MB of a child process that runs `script` with the source
    tree and `args` as its arguments, on one BLAS thread.

    The child reads its own high-water mark (VmHWM): Linux carries a forked
    process's ru_maxrss over exec, so the child's ru_maxrss would never read
    below the test process's own peak.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, src, *map(str, args)],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def train_step_peak_mb(variant, pairs, n_families, join):
    """Peak RSS in MB of one default `variant` training step, Adam included,
    over `pairs` pairs of the stock corpus of `n_families` families, `join`
    consecutive functions' instructions per function."""
    return child_peak_mb(TRAIN_STEP_MEMORY, variant, pairs, n_families, join)


def embed_peak_mb(variant, n_families, join):
    """Peak RSS in MB of embedding the stock corpus of `n_families` families,
    `join` consecutive functions' instructions per embedded function, with a
    default `variant`."""
    return child_peak_mb(EMBED_MEMORY, variant, n_families, join)


# MB: the process holds about 120 MB before the embed. The embed peaked at
# 321 MB in length-sorted chunks of 64 and at 874 MB packed without a row
# budget; packed under PACK_ROWS it reads 165-175 MB.
EMBED_MEMORY_BOUND_MB = 240


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_textcnn_embed_matrix_memory_stays_bounded():
    """A default textcnn embeds 15,000 stock functions under a peak RSS bound."""
    assert embed_peak_mb("textcnn", 5000, 1) < EMBED_MEMORY_BOUND_MB


# MB: the process holds about 60 MB before the embed. In length-sorted chunks
# of 64 functions padded to the chunk's longest the embed peaked at 427 MB;
# packed under PACK_ROWS it reads about 104 MB.
LSTM_EMBED_MEMORY_BOUND_MB = 200


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_lstm_embed_matrix_memory_stays_bounded():
    """A default lstm embeds 64 long functions (580-640 instructions, each 30
    stock functions end to end) under a peak RSS bound."""
    assert embed_peak_mb("lstm", 640, 30) < LSTM_EMBED_MEMORY_BOUND_MB


# MB: one training step over 8 pairs (16 functions, one packed group per
# side) peaked at 1,118 MB while each MLP was five autodiff nodes, at 769-773
# MB with each MLP one node, at 563 MB with each backward keeping only the
# arrays it reads (the residual sums, the MLP outputs and the embedded grid
# are freed once the forward has moved past them), at 485 MB once each node
# freed its saved arrays as its backward ran, gradients passed to a parent
# uncopied and the dropout masks were kept as bits, and reads 350 MB now that
# each pre-MLP layer norm and its MLP are one `ad.norm_mlp` node, which keeps
# neither the MLP's input nor the GELU's cdf. The bound fails on the 485.
MIXER_STEP_MEMORY_BOUND_MB = 400


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_mixer_training_step_memory_stays_bounded():
    """A default mixer's training step over 8 stock pairs, Adam included,
    stays under a peak RSS bound."""
    assert train_step_peak_mb("mixer", 8, 200, 1) < MIXER_STEP_MEMORY_BOUND_MB


# MB: the process holds about 130 MB before it trains. One `train()` call
# over 4 stock families (12 functions, 36 pairs, one batch) peaked at 665 MB
# while every forward intermediate lived as long as the graph, at 507-516 MB
# with each backward keeping only the arrays it reads, at 419 MB with saved
# arrays freed as the backward runs, no first-gradient copies and dropout
# masks kept as bits, and reads 325 MB with each pre-MLP layer norm and its
# MLP one `ad.norm_mlp` node. The bound fails on the 419.
MIXER_TRAIN_MEMORY_BOUND_MB = 360


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_mixer_train_memory_stays_bounded():
    """A default mixer's `train()` call over one 36-pair batch stays under a
    peak RSS bound."""
    assert child_peak_mb(TRAIN_MEMORY, "mixer", 4) < MIXER_TRAIN_MEMORY_BOUND_MB


# MB: one training step over 48 pairs of functions of about 410 instructions
# (each 20 stock functions end to end) peaked at 549-562 MB while the gate bias
# was its own `xp + b` node, whose [N, 4h] output the graph held, at 434-441 MB
# with the bias added inside `ad.lstm`, at 321-324 MB once `ad.lstm` kept no
# reference to its [N, 4h] input xp, and reads 307 MB now that each node frees
# its saved arrays once its backward has run and passes gradients on uncopied.
# The bound sits between the two last readings, so it fails on the one before.
LSTM_STEP_MEMORY_BOUND_MB = 315


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_lstm_training_step_memory_stays_bounded():
    """A default lstm's training step over 48 pairs of long functions, Adam
    included, stays under a peak RSS bound."""
    assert train_step_peak_mb("lstm", 48, 640, 20) < LSTM_STEP_MEMORY_BOUND_MB


# MB: one training step over 48 pairs of functions of about 410 instructions
# (each 20 stock functions end to end) peaked at 227-238 MB while each of the
# six banks ran its own `token_conv` (its own distinct ids and vectors, window
# index and sparse product, each kept by the graph) and Adam took a scratch
# array the size of the largest kernel, and reads 195-196 MB with one
# `token_conv` call for all six banks and Adam in blocks. The bound sits
# between the two, so it fails on the former.
TEXTCNN_STEP_MEMORY_BOUND_MB = 215


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_textcnn_training_step_memory_stays_bounded():
    """A default textcnn's training step over 48 pairs of long functions, Adam
    included, stays under a peak RSS bound."""
    assert train_step_peak_mb("textcnn", 48, 640, 20) < TEXTCNN_STEP_MEMORY_BOUND_MB


# MB: embedding 300 stock functions (groups of 16 under PACK_ROWS) peaked at
# 280 MB with each MLP as five autodiff nodes, at 262 MB and later 225 MB
# with each MLP one node, which frees h and the cdf before its second GEMM,
# and reads 189 MB with each pre-MLP layer norm and
# its MLP one `ad.norm_mlp` node, which frees the normalized input once h is
# made.
MIXER_EMBED_MEMORY_BOUND_MB = 300


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_mixer_embed_matrix_memory_stays_bounded():
    """A default mixer embeds 300 stock functions under a peak RSS bound."""
    assert embed_peak_mb("mixer", 100, 1) < MIXER_EMBED_MEMORY_BOUND_MB


# ------------------------------------------------------------------ checkpoints

def assert_blocks_are_separate_aligned_views(model):
    """Adam updates p.data in place, so every loaded block is writable float32,
    and no two blocks share memory; each starts on a 64-byte boundary."""
    blocks = [p.data for p in model.params.values()]
    for i, a in enumerate(blocks):
        assert a.flags.writeable and a.flags.c_contiguous and a.dtype == np.float32
        assert a.ctypes.data % 64 == 0
        assert not any(np.shares_memory(a, b) for b in blocks[i + 1:])


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=21)
    vocab = tiny_vocab(cfg.vocab_size - 2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, vocab)
    loaded, loaded_vocab = load_checkpoint(path)
    assert loaded.fingerprint() == model.fingerprint()
    assert_blocks_are_separate_aligned_views(loaded)
    for name, p in loaded.params.items():
        assert p.data.tobytes() == model.params[name].data.tobytes()
    assert loaded.cfg == cfg
    assert loaded_vocab.id_to_token == vocab.id_to_token
    # byte-stable re-save
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, loaded_vocab)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_keeps_the_sha256_of_the_file_it_verified(tmp_path):
    """The loaded backbone keeps the whole file's SHA-256, which is also what
    `save_checkpoint` returns; a built backbone has none."""
    cfg = small_cfg("lstm")
    model = build_backbone(cfg, seed=22)
    assert model.checkpoint_sha256 is None
    path = tmp_path / "model.ckpt"
    written = save_checkpoint(path, model, tiny_vocab(cfg.vocab_size - 2))
    loaded = load_checkpoint(path)[0]
    assert loaded.checkpoint_sha256 == written == hashlib.sha256(path.read_bytes()).hexdigest()


def test_checkpoint_write_that_fails_leaves_the_previous_file(tmp_path, monkeypatch):
    """A checkpoint is written whole or not at all: a disk that fills partway
    through a rewrite leaves the previous file byte-identical and no temp file."""
    import builtins

    import asmsim.manifest as manifest

    cfg = small_cfg("textcnn")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_backbone(cfg, seed=23), tiny_vocab(cfg.vocab_size - 2))
    before = path.read_bytes()

    def fake_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)

        class Full:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                handle.close()

            def write(self, data):
                handle.write(bytes(data[:len(data) // 2]))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), file)

        return Full()

    monkeypatch.setattr(manifest, "open", fake_open, raising=False)
    with pytest.raises(OSError) as info:
        save_checkpoint(path, build_backbone(cfg, seed=24), tiny_vocab(cfg.vocab_size - 2))
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_load_draws_no_initialisation(tmp_path, monkeypatch):
    import asmsim.models as models

    vocab = tiny_vocab()
    for cfg in all_variants():
        model = build_backbone(cfg, seed=24)
        path = tmp_path / f"{cfg.variant}.ckpt"
        save_checkpoint(path, model, vocab)
        with monkeypatch.context() as m:
            for init in ("_kaiming", "_embedding_init"):
                m.setattr(models, init, lambda *a, **k: pytest.fail("load drew an initialisation"))
            loaded, _ = load_checkpoint(path)
        assert loaded.fingerprint() == model.fingerprint()
        assert_blocks_are_separate_aligned_views(loaded)


def _reseal(path, edit):
    body = bytearray(path.read_bytes()[:-32])
    edit(body)
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())    # a valid trailer


def test_checkpoint_rejects_unknown_version_and_non_zero_padding(tmp_path):
    """Only version 4 reads: 0 was never written, and 1 to 3 are earlier layouts."""
    model = build_backbone(small_cfg("textcnn"), seed=27)
    path = tmp_path / "model.ckpt"
    for version in (0, 1, 2, 3, 5):
        save_checkpoint(path, model, tiny_vocab())
        _reseal(path, lambda body: body.__setitem__(slice(8, 12), struct.pack("<I", version)))
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version} "):
            load_checkpoint(path)
    save_checkpoint(path, model, tiny_vocab())
    raw = path.read_bytes()
    shape_end = raw.index(b"conv0.w") + len(b"conv0.w") + 1 + 3 * 4
    assert -shape_end % 64 and raw[shape_end] == 0                # conv0.w has padding
    _reseal(path, lambda body: body.__setitem__(shape_end, 1))
    with pytest.raises(DataError, match="non-zero padding before parameter 'conv0.w'"):
        load_checkpoint(path)


def _config(**changes):
    """A small textcnn config as JSON bytes, a key set to None left out."""
    doc = {**dataclasses.asdict(small_cfg("textcnn")), **changes}
    return json.dumps({k: v for k, v in doc.items() if v is not None}).encode("utf-8")


@pytest.mark.parametrize("config, message", [
    pytest.param(b"\xff{}", "utf-8", id="not-utf8"),
    pytest.param(b"{not json", "Expecting property name", id="not-json"),
    pytest.param(b"[]", "not a JSON object", id="not-an-object"),
    pytest.param(_config(vocab_size=1), "vocab_size must cover PAD and UNK", id="vocab-size-1"),
    pytest.param(_config(variant=None), "variant", id="no-variant"),
    pytest.param(_config(bogus=1), "unexpected keyword argument 'bogus'", id="unknown-key"),
    pytest.param(_config(embed_dim=4.5), "embed_dim must be an integer, got 4.5",
                 id="float-width"),
    pytest.param(_config(embed_dim="4"), "embed_dim must be an integer, got '4'",
                 id="string-width"),
    pytest.param(_config(conv_widths=[]), "conv_widths must be one or more widths",
                 id="no-conv-widths"),
    pytest.param(_config(mixer_dropout="x"), "'<=' not supported", id="string-dropout"),
])
def test_checkpoint_rejects_a_bad_config_block(tmp_path, config, message):
    """A config block that is not UTF-8, not JSON, not an object or not a
    valid BackboneConfig, under a checksum that still holds."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_backbone(small_cfg("textcnn"), seed=26), tiny_vocab())

    def swap(body):
        (n,) = struct.unpack_from("<I", body, 12)
        body[12:16 + n] = struct.pack("<I", len(config)) + config

    _reseal(path, swap)
    with pytest.raises(DataError, match=re.escape(f"{path}: bad backbone config: ")) as exc:
        load_checkpoint(path)
    assert message in str(exc.value)


def test_checkpoint_loaded_model_trains_and_resaves_byte_stable(tmp_path):
    from asmsim.optim import Adam

    cfg = small_cfg("textcnn")
    rng = np.random.default_rng(28)
    encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_backbone(cfg, seed=28), tiny_vocab())
    stepped = []
    for model in (build_backbone(cfg, seed=28), load_checkpoint(path)[0]):
        project(model.embed_batch(encs)).backward()
        Adam(model.params).step()
        stepped.append(model)
    assert stepped[0].fingerprint() == stepped[1].fingerprint()
    save_checkpoint(path, stepped[1], tiny_vocab())
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, load_checkpoint(path)[0], tiny_vocab())
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("fc.b"), "expected 8 parameter blocks, found 7"),
    (lambda p: p.__setitem__("bogus", p.pop("fc.b")), "unexpected parameter block 'bogus'"),
    (lambda p: p.__setitem__("fc.b", ad.Tensor(np.zeros(7, dtype=np.float32))), "'fc.b' has shape"),
    ("duplicate", "unexpected parameter block 'conv0.b'"),
])
def test_checkpoint_rejects_bad_blocks(tmp_path, edit, message):
    cfg = small_cfg("textcnn")
    model = build_backbone(cfg, seed=25)
    path = tmp_path / "model.ckpt"
    if edit == "duplicate":                    # same name twice: conv1.b's slot says conv0.b
        save_checkpoint(path, model, tiny_vocab())
        body = path.read_bytes()[:-32].replace(b"conv1.b", b"conv0.b")
        path.write_bytes(body + hashlib.sha256(body).digest())    # a valid trailer
    else:                                      # save_checkpoint seals whatever params hold
        edit(model.params)
        save_checkpoint(path, model, tiny_vocab())
    with pytest.raises(DataError, match=re.escape(message)):
        load_checkpoint(path)


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
    from gradcheck import finite_diff_check

    rng = np.random.default_rng(31)
    for cfg in all_variants():
        model = perturbed(build_backbone(cfg, seed=32, dtype=np.float64), rng)
        encs = [enc(rng, s, cfg) for s in MIXED_LENGTHS]
        proj = rng.standard_normal((len(encs), cfg.output_dim))

        def f():
            out = model.embed_batch(encs, training=True, rng=np.random.default_rng(33))
            return project(out, proj)

        report = finite_diff_check(f, model.params, rel_tolerance=1e-4, rng=rng,
                                   max_coords_per_param=6)
        assert report.passed, (cfg.variant, {k: c.max_rel_err for k, c in report.per_param.items()})


def test_every_parameter_block_gets_a_gradient_above_rounding():
    """float32, as training runs, mixer dropout off: each block's largest
    gradient entry is at least 1e-4 of the median block's. A parameter that no
    embedding depends on (a bias that a layer_norm subtracts again) gets only
    rounding noise, about 1e-7 of it."""
    rng = np.random.default_rng(34)
    for cfg in all_variants():
        model = build_backbone(dataclasses.replace(cfg, mixer_dropout=0.0), seed=35)
        out = model.embed_batch([enc(rng, s, cfg) for s in MIXED_LENGTHS], training=True)
        project(out, rng.standard_normal(out.shape).astype(np.float32)).backward()
        peaks = {name: np.abs(p.grad).max() for name, p in model.params.items()}
        floor = 1e-4 * np.median(list(peaks.values()))
        assert {name for name, g in peaks.items() if g < floor} == set(), cfg.variant


def test_param_counts_at_the_stock_vocabulary():
    """The quick-start corpus's 97 tokens, every other size at its default."""
    counts = {v: build_backbone(BackboneConfig(variant=v, vocab_size=97)).param_count()
              for v in ("textcnn", "lstm", "mixer")}
    assert counts == {"textcnn": 6_090_048, "lstm": 1_149_696, "mixer": 5_925_312}
