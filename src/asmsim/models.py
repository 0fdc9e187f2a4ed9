"""Siamese backbones over packed instruction rows, plus checkpoint serialization.

Per instruction, K token vectors and one position vector of width d
concatenate into one row of width H = d * (K + 1). Every backbone packs a
forward's functions end to end, in caller order, into groups under a row
budget; each function takes the rows its variant declares: the textcnn its
length padded up to the widest kernel, the lstm its length, the mixer
mixer_seq_len (longer functions are cut). Packed ids use one padding
sentinel: every PAD token slot, in a padding row or inside a live
instruction, holds -1, and so does a padding row's position; the lookup
kernels read -1 as a zero vector that takes no gradient. Only the mixer
builds the rows, as [B, S, H]. The textcnn and the lstm convolve the [N, K]
token ids and [N] positions instead, applying each kernel slice once per
distinct token: each textcnn function max-pools over its own output rows,
and the lstm's width-1 convolution is the input side of its four gates, one
unpadded row per instruction, which one `lstm` node runs through the
recurrence. Every backbone has one forward, `embed_batch`, which maps each
function to a fixed-width embedding in caller order; both sides of a
training pair run through the same parameter set.

The PAD embedding row (id 0) is never read, so nothing trains it: it is
zeroed at init, left out of the parameter count, and its gradient is exactly
zero, which Adam turns into a zero update.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .tokenizer import (
    DEFAULT_MAX_POSITIONS, DEFAULT_TOKENS_PER_INSTRUCTION, EncodedFunction, PAD_ID, Vocabulary,
)

VARIANTS = ("textcnn", "lstm", "mixer")


@dataclass
class BackboneConfig:
    variant: str
    vocab_size: int
    embed_dim: int = 192              # d: token and position vector width
    tokens_per_instruction: int = DEFAULT_TOKENS_PER_INSTRUCTION   # K
    output_dim: int = 192             # E
    max_positions: int = DEFAULT_MAX_POSITIONS
    conv_widths: tuple[int, ...] = (5, 5, 5, 5, 3, 3)
    conv_channels: int = 192
    lstm_hidden: int = 192
    mixer_layers: int = 2
    mixer_token_hidden: int = 256
    mixer_channel_hidden: int = 1152
    mixer_seq_len: int = 256          # fixed instruction count for the mixer
    mixer_dropout: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("vocab_size", "embed_dim", "tokens_per_instruction", "output_dim",
                     "max_positions", "conv_channels", "lstm_hidden", "mixer_layers",
                     "mixer_token_hidden", "mixer_channel_hidden", "mixer_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover PAD and UNK")
        self.conv_widths = tuple(int(w) for w in self.conv_widths)
        if any(w < 1 for w in self.conv_widths):
            raise ValueError("conv widths must be >= 1")
        if not 0.0 <= self.mixer_dropout < 1.0:
            raise ValueError("mixer_dropout must be in [0, 1)")
        if self.variant == "lstm" and self.lstm_hidden != self.output_dim:
            raise ValueError("the LSTM's final hidden state is the embedding, so "
                             "lstm_hidden must equal output_dim")

    @property
    def grid_width(self) -> int:
        return self.embed_dim * (self.tokens_per_instruction + 1)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["conv_widths"] = list(self.conv_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BackboneConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown backbone config keys: {sorted(unknown)}")
        return cls(**d)


def _kaiming(rng, shape, dtype, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _embedding_init(rng, shape, dtype):
    return rng.normal(0.0, 0.02, size=shape).astype(dtype)


def _uniform(fan_in):
    return functools.partial(_kaiming, fan_in=fan_in)


def _conv_init(rng, shape, dtype):
    """A [C_in, W, C_out] kernel drawn as [C_out, C_in, W], then transposed."""
    c_in, width, c_out = shape
    w = _kaiming(rng, (c_out, c_in, width), dtype, fan_in=c_in * width)
    return np.ascontiguousarray(w.transpose(1, 2, 0))


class Backbone:
    """Shared embedding tables plus a variant-specific head."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator | None,
                 dtype=np.float32, data: dict[str, np.ndarray] | None = None):
        """Parameters are drawn from `rng` in layout order, or, when `data`
        (name -> array) is given, taken from it as they are, drawing nothing."""
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        for name, shape, init in self.layout(cfg):
            if data is not None:
                value = data[name]
            elif callable(init):
                value = init(rng, shape, self.dtype)
            else:
                value = np.full(shape, init, dtype=self.dtype)
            self.params[name] = Tensor(value, requires_grad=True)
        if data is None:
            self.params["token_table"].data[PAD_ID] = 0.0

    @classmethod
    def layout(cls, cfg: BackboneConfig) -> list[tuple]:
        """(name, shape, init) per parameter, in draw and checkpoint order.
        init is a constant fill or init(rng, shape, dtype) -> array; a
        variant extends this list with its head."""
        return [("token_table", (cfg.vocab_size, cfg.embed_dim), _embedding_init),
                ("pos_table", (cfg.max_positions, cfg.embed_dim), _embedding_init)]

    @classmethod
    def _stored_layout(cls, cfg: BackboneConfig, version: int) -> list[tuple]:
        """(name, shape) of each block in a checkpoint of `version`; version 1
        kept 3-D kernels as [C_out, C_in, W]."""
        out = [(name, shape) for name, shape, _ in cls.layout(cfg)]
        if version == 1:
            out = [(name, (s[2], *s[:2]) if len(s) == 3 else s) for name, s in out]
        return out

    @classmethod
    def _upgrade(cls, cfg: BackboneConfig, blocks: dict, version: int) -> dict:
        """A checkpoint's blocks (name -> array, each in the current layout's
        axis order) -> the current layout's blocks."""
        return blocks

    def _validate_ids(self, enc: EncodedFunction):
        if enc.n_instructions == 0:
            raise DataError("cannot embed a function with zero instructions")
        if enc.token_ids.size and enc.token_ids.min() < 0:
            # -1 is the packed padding sentinel; an encoding carries PAD_ID instead
            raise DataError(f"negative token id {int(enc.token_ids.min())}")
        if enc.token_ids.size and enc.token_ids.max() >= self.cfg.vocab_size:
            raise DataError(
                f"token id {int(enc.token_ids.max())} exceeds vocabulary size "
                f"{self.cfg.vocab_size}: vocabulary/model mismatch"
            )
        if enc.position_ids.size and enc.position_ids.max() >= self.cfg.max_positions:
            raise DataError("position id exceeds the model's position table")

    # input rows per packed group; a forward's functions are grouped in caller
    # order under it, which bounds memory (a longer function is a group of its own)
    PACK_ROWS = 4096

    def _rows(self, encs) -> np.ndarray:
        """[B] rows each function takes when packed end to end."""
        raise NotImplementedError

    def _head(self, ids, pos, rows, training: bool, rng) -> Tensor:
        """One packed group, as `_pack` lays it out, and its [B] rows per
        function -> [B, F] features in caller order, before `fc`."""
        raise NotImplementedError

    def _pack(self, encs, rows):
        """[N, K] token ids and [N] positions of functions packed end to end,
        function b taking the next rows[b] rows: a longer one is cut, a
        shorter one is padded with position -1. Every PAD token slot, padding
        row or not, holds -1 too."""
        n, k = int(rows.sum()), self.cfg.tokens_per_instruction
        ids = np.full((n, k), PAD_ID, dtype=np.int32)
        pos = np.full(n, -1, dtype=np.int32)
        row = 0
        for r, e in zip(rows.tolist(), encs):
            s = min(e.n_instructions, r)
            ids[row:row + s] = e.token_ids[:s]
            pos[row:row + s] = e.position_ids[:s]
            row += r
        ids[ids == PAD_ID] = -1
        return ids, pos

    def _embed_rows(self, ids, pos) -> Tensor:
        """[..., K] token ids and [...] positions -> [..., H] rows (the mixer's
        input): the token vectors, then the position vector, each zero where
        its id is -1."""
        tok = ad.reshape(ad.embedding(self.params["token_table"], ids), pos.shape + (-1,))
        return ad.concat([tok, ad.embedding(self.params["pos_table"], pos)], axis=-1)

    def _project(self, feats: Tensor) -> Tensor:
        """[B, F] features -> [B, E] embeddings."""
        if "fc.w" not in self.params:                  # the LSTM's state is the embedding
            return feats
        return ad.affine(feats, self.params["fc.w"], self.params["fc.b"])

    def _forward(self, encs, training: bool, rng) -> Tensor:
        """[B, E] in caller order: groups of packed functions, each projected."""
        rows = self._rows(encs)
        cuts, total = [0], 0
        for i, n in enumerate(rows.tolist()):
            if total and total + n > self.PACK_ROWS:
                cuts.append(i)
                total = 0
            total += n
        cuts.append(len(encs))
        groups = []
        for lo, hi in zip(cuts, cuts[1:]):
            ids, pos = self._pack(encs[lo:hi], rows[lo:hi])
            groups.append(self._project(self._head(ids, pos, rows[lo:hi], training, rng)))
        return groups[0] if len(groups) == 1 else ad.concat(groups, axis=0)

    def embed_batch(self, encs, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        """The forward pass: a list of encoded functions -> [B, E], in caller order."""
        if not encs:
            raise ValueError("embed_batch needs at least one function")
        for e in encs:
            self._validate_ids(e)
        return self._forward(encs, training, rng)

    def embed(self, enc: EncodedFunction, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
        """One function's [E] embedding: the single row of embed_batch([enc])."""
        return ad.reshape(self.embed_batch([enc], training=training, rng=rng), (-1,))

    def embed_matrix(self, encs) -> np.ndarray:
        """Inference embeddings as a plain [N, E] array."""
        if not encs:
            return np.zeros((0, self.cfg.output_dim), dtype=self.dtype)
        with ad.no_grad():
            return self.embed_batch(encs).data

    def param_count(self) -> int:
        """Trainable scalars; the PAD row, which no forward reads, does not count."""
        total = sum(int(p.data.size) for p in self.params.values())
        return total - self.cfg.embed_dim

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, p in self.params.items():
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


class TextCNN(Backbone):
    """Width-5 and width-3 convolution banks, global max-pool, one projection.

    Each bank is one bias-free `token_conv` over the packed token and position
    ids, and one `segment_max` over each function's output rows. Its kernel is
    stored [C_in, W, C_out], the layout `token_conv` reads without a copy.
    Its bias and ReLU are non-decreasing, so they commute with the max-pool,
    rounding included: they run after it, on [B, C], not on every position.
    """

    @classmethod
    def layout(cls, cfg):
        h = cfg.grid_width
        out = super().layout(cfg)
        for i, w in enumerate(cfg.conv_widths):
            out += [(f"conv{i}.w", (h, w, cfg.conv_channels), _conv_init),
                    (f"conv{i}.b", (cfg.conv_channels,), 0.0)]
        pooled = cfg.conv_channels * len(cfg.conv_widths)
        return out + [("fc.w", (pooled, cfg.output_dim), _uniform(pooled)),
                      ("fc.b", (cfg.output_dim,), 0.0)]

    # its convolution works per distinct token in a group, so larger groups run
    # faster: at 4096 rows a 768-function forward and backward took ~30% longer
    PACK_ROWS = 16384

    def _rows(self, encs):
        """Each function's length, padded up to the widest kernel."""
        return np.maximum([e.n_instructions for e in encs], max(self.cfg.conv_widths))

    def _head(self, ids, pos, rows, training, rng):
        """Each function max-pools over its own output rows."""
        tables = self.params["token_table"], self.params["pos_table"]
        pooled = []
        for i, width in enumerate(self.cfg.conv_widths):
            conv = ad.token_conv(*tables, ids, pos, rows, self.params[f"conv{i}.w"])
            peak = ad.segment_max(conv, rows - (width - 1))
            pooled.append(ad.relu(peak + self.params[f"conv{i}.b"]))
        return ad.concat(pooled, axis=1)


class LSTMNet(Backbone):
    """Single-layer LSTM over instruction vectors; the last hidden state is the embedding.

    Gates follow the classic coupled form on the concatenation [h_{t-1}, x_t]:
    input, forget, and output gates are sigmoids, the candidate cell is a tanh,
    the cell accumulates f*C + i*C~, and h = o * tanh(C). h_0 = C_0 = 0.
    The four gates' weights are stored fused, in i, f, c~, o column order, in
    the layouts the two kernels read: the x side `w_x` as the [H, 1, 4h]
    kernel of a width-1 `token_conv`, which projects each distinct token once
    into the input side of all four gates, and the h side `w_h` as the
    [h, 4h] recurrence weight of `ad.lstm`, which runs as a single node.
    """

    GATES = ("i", "f", "c", "o")

    @classmethod
    def layout(cls, cfg):
        hid, zin = cfg.lstm_hidden, cfg.lstm_hidden + cfg.grid_width
        x_rows = []

        def w_h_init(rng, shape, dtype):
            """Draws each gate's [h + H, h] block in gate order, keeping its x rows for w_x."""
            blocks = [_kaiming(rng, (zin, hid), dtype, fan_in=zin) for _ in cls.GATES]
            w_h, w_x = cls._fuse(blocks, hid)
            x_rows.append(w_x)
            return w_h

        return super().layout(cfg) + [
            ("w_h", (hid, 4 * hid), w_h_init),
            ("w_x", (cfg.grid_width, 1, 4 * hid), lambda rng, shape, dtype: x_rows.pop()),
            ("b", (4 * hid,), 0.0)]

    @staticmethod
    def _fuse(blocks, hid):
        """Per-gate [h + H, h] weights -> the fused w_h [h, 4h] and w_x [H, 1, 4h]."""
        w_h = np.concatenate([w[:hid] for w in blocks], axis=1)
        w_x = np.concatenate([w[hid:] for w in blocks], axis=1)
        return w_h, w_x.reshape(-1, 1, w_x.shape[1])

    @classmethod
    def _stored_layout(cls, cfg, version):
        """Versions 1 and 2 kept each gate's [h + H, h] weight and [h] bias."""
        if version >= 3:
            return super()._stored_layout(cfg, version)
        zin, hid = cfg.lstm_hidden + cfg.grid_width, cfg.lstm_hidden
        out = Backbone._stored_layout(cfg, version)
        for gate in cls.GATES:
            out += [(f"w_{gate}", (zin, hid)), (f"b_{gate}", (hid,))]
        return out

    @classmethod
    def _upgrade(cls, cfg, blocks, version):
        if version >= 3:
            return blocks
        w_h, w_x = cls._fuse([blocks.pop(f"w_{g}") for g in cls.GATES], cfg.lstm_hidden)
        b = np.concatenate([blocks.pop(f"b_{g}") for g in cls.GATES])
        return {**blocks, "w_h": w_h, "w_x": w_x, "b": b}

    def _rows(self, encs):
        return np.array([e.n_instructions for e in encs])

    def _head(self, ids, pos, rows, training, rng):
        xp = ad.token_conv(self.params["token_table"], self.params["pos_table"], ids, pos,
                           rows, self.params["w_x"])
        return ad.lstm(xp + self.params["b"], self.params["w_h"], rows)


class Mixer(Backbone):
    """MLP-Mixer over a fixed-length grid: alternating token and channel mixing.

    Functions are truncated or zero-padded along the instruction axis to
    mixer_seq_len; there are no per-patch projections, the grid itself is the
    token sequence. Each token-mixing and channel-mixing MLP is one `ad.mlp`
    node, which keeps only its pre-activation, its GELU cdf and two bool
    dropout masks for the backward. Dropout applies inside the MLPs on
    training passes only.
    """

    @classmethod
    def layout(cls, cfg):
        c, s = cfg.grid_width, cfg.mixer_seq_len
        th, ch = cfg.mixer_token_hidden, cfg.mixer_channel_hidden
        out = super().layout(cfg)
        for layer in range(cfg.mixer_layers):
            p = f"layer{layer}."
            out += [(p + "ln1.g", (c,), 1.0), (p + "ln1.b", (c,), 0.0),
                    (p + "tok.w1", (s, th), _uniform(s)), (p + "tok.b1", (th,), 0.0),
                    (p + "tok.w2", (th, s), _uniform(th)), (p + "tok.b2", (s,), 0.0),
                    (p + "ln2.g", (c,), 1.0), (p + "ln2.b", (c,), 0.0),
                    (p + "ch.w1", (c, ch), _uniform(c)), (p + "ch.b1", (ch,), 0.0),
                    (p + "ch.w2", (ch, c), _uniform(ch)), (p + "ch.b2", (c,), 0.0)]
        return out + [("ln_final.g", (c,), 1.0), ("ln_final.b", (c,), 0.0),
                      ("fc.w", (c, cfg.output_dim), _uniform(c)),
                      ("fc.b", (cfg.output_dim,), 0.0)]

    def _rows(self, encs):
        return np.full(len(encs), self.cfg.mixer_seq_len)

    def _head(self, ids, pos, rows, training, rng):
        cfg = self.cfg
        shape = (len(rows), cfg.mixer_seq_len)
        x = self._embed_rows(ids.reshape(shape + (-1,)), pos.reshape(shape))   # [B, S, C]
        rate = cfg.mixer_dropout if training else 0.0

        def mlp(x, name):
            w1, b1, w2, b2 = (self.params[name + k] for k in ("w1", "b1", "w2", "b2"))
            return ad.mlp(x, w1, b1, w2, b2, rate, rng)

        for layer in range(cfg.mixer_layers):
            p = f"layer{layer}."
            u = ad.layer_norm(x, self.params[p + "ln1.g"], self.params[p + "ln1.b"])
            t = mlp(ad.transpose(u, (0, 2, 1)), p + "tok.")   # over [B, C, S]
            x = x + ad.transpose(t, (0, 2, 1))
            v = ad.layer_norm(x, self.params[p + "ln2.g"], self.params[p + "ln2.b"])
            x = x + mlp(v, p + "ch.")
        x = ad.layer_norm(x, self.params["ln_final.g"], self.params["ln_final.b"])
        return ad.mean_(x, axis=1)                     # [B, C]


_VARIANT_CLASSES = {"textcnn": TextCNN, "lstm": LSTMNet, "mixer": Mixer}


def build_backbone(cfg: BackboneConfig, seed: int | np.random.SeedSequence | np.random.Generator = 0,
                   dtype=np.float32) -> Backbone:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _VARIANT_CLASSES[cfg.variant](cfg, rng, dtype=dtype)


# ------------------------------------------------------------------ checkpoints

CHECKPOINT_MAGIC = b"ASMSIMB1"
# 2: 64-byte aligned blocks, conv kernels as [C_in, W, C_out]; 3: the lstm's
# gates fused as w_x [H, 1, 4h], w_h [h, 4h] and b [4h]
CHECKPOINT_VERSION = 3
_ALIGN = 64


def save_checkpoint(path, backbone: Backbone, vocab: Vocabulary):
    """Write magic, version, config JSON, vocabulary bytes, named float32 blocks
    (each block's data zero-padded to start on a 64-byte boundary of the file),
    and a SHA-256 trailer over everything before it."""
    cfg_json = json.dumps(backbone.cfg.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    vocab_bytes = vocab.file_bytes()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(cfg_json))
    out += cfg_json
    out += struct.pack("<Q", len(vocab_bytes))
    out += vocab_bytes
    out += struct.pack("<I", len(backbone.params))
    for name, p in backbone.params.items():
        name_b = name.encode("utf-8")
        out += struct.pack("<H", len(name_b))
        out += name_b
        out += struct.pack("<B", p.data.ndim)
        out += struct.pack(f"<{p.data.ndim}I", *p.data.shape)
        out += bytes(-len(out) % _ALIGN)
        out += np.ascontiguousarray(p.data, dtype="<f4").tobytes()
    out += hashlib.sha256(out).digest()
    with open(path, "wb") as fh:
        fh.write(out)


class _Reader:
    """Reads a checkpoint body through a memoryview, so taking a block copies nothing."""

    def __init__(self, buf: memoryview, where: str):
        self.buf = buf
        self.off = 0
        self.where = where

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.buf):
            raise DataError(f"{self.where}: truncated checkpoint")
        piece = self.buf[self.off:self.off + n]
        self.off += n
        return piece

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals


def load_checkpoint(path) -> tuple[Backbone, Vocabulary]:
    """Read a version 3, 2 or 1 checkpoint. The file is read once into one 64-byte
    aligned buffer, and each version 3 or 2 block is a writable float32 view
    into it; an older lstm's per-gate blocks are fused into the current layout."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        store = np.empty(size + _ALIGN, dtype=np.uint8)
        raw = store[-store.ctypes.data % _ALIGN:][:size]
        if fh.readinto(raw) != size or len(raw) < len(CHECKPOINT_MAGIC) + 32:
            raise DataError(f"{path}: truncated checkpoint")
    body = memoryview(raw)[:-32]
    if hashlib.sha256(body).digest() != raw[-32:].tobytes():
        raise DataError(f"{path}: checkpoint checksum mismatch (file corrupted?)")
    r = _Reader(body, str(path))
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version = r.unpack("<I")
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    cfg = BackboneConfig.from_dict(json.loads(str(r.take(r.unpack("<I")), "utf-8")))
    vocab = Vocabulary.from_bytes(bytes(r.take(r.unpack("<Q"))), where=str(path))
    if vocab.size != cfg.vocab_size:
        raise DataError(f"{path}: vocabulary size {vocab.size} != config {cfg.vocab_size}")
    cls = _VARIANT_CLASSES[cfg.variant]
    expected = dict(cls._stored_layout(cfg, version))
    n_params = r.unpack("<I")
    if n_params != len(expected):
        raise DataError(f"{path}: expected {len(expected)} parameter blocks, found {n_params}")
    blocks = {}
    for _ in range(n_params):
        name = str(r.take(r.unpack("<H")), "utf-8")
        if name not in expected or name in blocks:
            raise DataError(f"{path}: unexpected parameter block '{name}'")
        want = expected[name]
        ndim = r.unpack("<B")
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        if shape != want:
            raise DataError(f"{path}: parameter '{name}' has shape {shape}, expected {want}")
        if version != 1 and any(r.take(-r.off % _ALIGN)):
            raise DataError(f"{path}: non-zero padding before parameter '{name}'")
        count = int(np.prod(shape)) if shape else 1
        block = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        if version == 1:                            # unaligned: copy, into the current layout
            block = np.array(block.transpose(1, 2, 0) if ndim == 3 else block,
                             dtype=np.float32, order="C")
        blocks[name] = block
    return cls(cfg, None, data=cls._upgrade(cfg, blocks, version)), vocab
