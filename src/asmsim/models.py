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
function to a fixed-width embedding in caller order; a training step runs
it once over its batch's distinct functions and gathers both pair sides from
those rows.

The PAD embedding row (id 0) is never read, so nothing trains it: it is
zeroed at init, left out of the parameter count, and its gradient is exactly
zero, which Adam turns into a zero update.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .manifest import write_atomic
from .tokenizer import (
    DEFAULT_MAX_POSITIONS, DEFAULT_TOKENS_PER_INSTRUCTION, PAD_ID, Vocabulary,
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
    mixer_layers: int = 2
    mixer_token_hidden: int = 256
    mixer_channel_hidden: int = 1152
    mixer_seq_len: int = 256          # fixed instruction count for the mixer
    mixer_dropout: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("vocab_size", "embed_dim", "tokens_per_instruction", "output_dim",
                     "max_positions", "conv_channels", "mixer_layers",
                     "mixer_token_hidden", "mixer_channel_hidden", "mixer_seq_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover PAD and UNK")
        self.conv_widths = tuple(int(w) for w in self.conv_widths)
        if not self.conv_widths or any(w < 1 for w in self.conv_widths):
            raise ValueError("conv_widths must be one or more widths >= 1")
        if not 0.0 <= self.mixer_dropout < 1.0:
            raise ValueError("mixer_dropout must be in [0, 1)")

    @property
    def grid_width(self) -> int:
        return self.embed_dim * (self.tokens_per_instruction + 1)


def _kaiming(rng, shape, dtype, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _embedding_init(rng, shape, dtype):
    return rng.normal(0.0, 0.02, size=shape).astype(dtype)


def _uniform(fan_in):
    return functools.partial(_kaiming, fan_in=fan_in)


class Backbone:
    """Shared embedding tables plus a variant-specific head."""

    checkpoint_sha256: str | None = None        # load_checkpoint: the whole file's SHA-256

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

    # input rows per packed group; a forward's functions are grouped in caller order
    # under it (a longer function is a group of its own). It bounds an inference
    # forward's memory; training keeps every group's graph until backward()
    PACK_ROWS = 4096

    def _rows(self, encs) -> np.ndarray:
        """[B] rows each function takes when packed end to end."""
        raise NotImplementedError

    def _head(self, ids, pos, rows, training: bool, rng) -> Tensor:
        """One packed group, as `_pack` lays it out, and its [B] rows per
        function -> [B, E] embeddings in caller order."""
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

    def embed_batch(self, encs, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        """The forward pass: a list of encoded functions -> [B, E], in caller
        order, one `_head` per group of functions packed under PACK_ROWS.
        Every id of every function is checked, also rows a variant cuts."""
        if not encs:
            raise ValueError("embed_batch needs at least one function")
        if min(e.n_instructions for e in encs) == 0:
            raise DataError("cannot embed a function with zero instructions")
        ids = np.concatenate([e.token_ids for e in encs])
        if ids.min() < 0:
            # -1 is the packed padding sentinel; an encoding carries PAD_ID instead
            raise DataError(f"negative token id {int(ids.min())}")
        if ids.max() >= self.cfg.vocab_size:
            raise DataError(f"token id {int(ids.max())} exceeds vocabulary size "
                            f"{self.cfg.vocab_size}: vocabulary/model mismatch")
        pos = np.concatenate([e.position_ids for e in encs])
        if pos.min() < 0:
            raise DataError(f"negative position id {int(pos.min())}")
        if pos.max() >= self.cfg.max_positions:
            raise DataError("position id exceeds the model's position table")
        rows = self._rows(encs)
        cuts, total = [0], 0
        for i, n in enumerate(rows.tolist()):
            if total and total + n > self.PACK_ROWS:
                cuts.append(i)
                total = 0
            total += n
        cuts.append(len(encs))
        groups = [self._head(*self._pack(encs[lo:hi], rows[lo:hi]), rows[lo:hi], training, rng)
                  for lo, hi in zip(cuts, cuts[1:])]
        return groups[0] if len(groups) == 1 else ad.concat(groups, axis=0)

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

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, p in self.params.items():
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


class TextCNN(Backbone):
    """Width-5 and width-3 convolution banks, global max-pool, one projection.

    Each bank is one bias-free convolution over the packed token and position
    ids, and one `segment_max` over each function's output rows. All banks
    come from one `token_conv` call, so a packed group finds its distinct ids,
    gathers their vectors and builds each width's window index once for all
    six banks, and the graph keeps one copy of them; each bank's output is
    pooled and dropped before the next is made. A kernel is stored
    [C_in, W, C_out], the layout `token_conv` reads without a copy.
    Its bias and ReLU are non-decreasing, so they commute with the max-pool,
    rounding included: they run after it, on [B, C], not on every position.
    """

    @classmethod
    def layout(cls, cfg):
        h = cfg.grid_width
        out = super().layout(cfg)
        for i, w in enumerate(cfg.conv_widths):
            out += [(f"conv{i}.w", (h, w, cfg.conv_channels), _uniform(h * w)),
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
        p = self.params
        convs = ad.token_conv(p["token_table"], p["pos_table"], ids, pos, rows,
                              [p[f"conv{i}.w"] for i in range(len(self.cfg.conv_widths))])
        pooled = []
        for i, (width, conv) in enumerate(zip(self.cfg.conv_widths, convs)):
            peak = ad.segment_max(conv, rows - (width - 1))
            del conv
            pooled.append(ad.relu(peak + p[f"conv{i}.b"]))
        return ad.affine(ad.concat(pooled, axis=1), p["fc.w"], p["fc.b"])


class LSTMNet(Backbone):
    """Single-layer LSTM over instruction vectors; the last hidden state is the
    embedding, so the hidden width is output_dim.

    Gates follow the classic coupled form on the concatenation [h_{t-1}, x_t]:
    input, forget, and output gates are sigmoids, the candidate cell is a tanh,
    the cell accumulates f*C + i*C~, and h = o * tanh(C). h_0 = C_0 = 0.
    The four gates' weights sit side by side in i, f, c~, o column order, in
    the layouts the two kernels read: the x side `w_x` as the [H, 1, 4h]
    kernel of a width-1 `token_conv`, which projects each distinct token once
    into the input side of all four gates, and the h side `w_h` as the
    [h, 4h] recurrence weight of `ad.lstm`, which runs as a single node and
    adds the gate bias `b` itself. Both weights are drawn in those shapes,
    with the fan-in h + H of [h_{t-1}, x_t].
    """

    @classmethod
    def layout(cls, cfg):
        hid, h = cfg.output_dim, cfg.grid_width
        init = _uniform(hid + h)
        return super().layout(cfg) + [("w_h", (hid, 4 * hid), init),
                                      ("w_x", (h, 1, 4 * hid), init),
                                      ("b", (4 * hid,), 0.0)]

    def _rows(self, encs):
        return np.array([e.n_instructions for e in encs])

    def _head(self, ids, pos, rows, training, rng):
        xp, = ad.token_conv(self.params["token_table"], self.params["pos_table"], ids, pos,
                            rows, [self.params["w_x"]])
        return ad.lstm(xp, self.params["w_h"], self.params["b"], rows)


class Mixer(Backbone):
    """MLP-Mixer over a fixed-length grid: alternating token and channel mixing.

    Functions are truncated or zero-padded along the instruction axis to
    mixer_seq_len; there are no per-patch projections, the grid itself is the
    token sequence. Each token-mixing and channel-mixing MLP is one
    `ad.norm_mlp` node together with the layer norm before it. For the
    backward it keeps only the normalized rows, their inverse standard
    deviations, the pre-activation and the two dropout masks packed to bits,
    rebuilds the MLP's input and the GELU's cdf from them, and frees them once
    that backward has run: a default training step over 8 stock pairs (16
    functions, Adam included, one BLAS thread) peaks at 350 MB of RSS, against
    485 MB with the MLP's input and cdf kept, and one step over the 453
    distinct functions of the largest default batch at about 4.9 GB, so the
    mixer trains at its defaults on an 8 GB machine. Dropout applies inside
    the MLPs on training passes only. The
    token-mixing MLP has no output bias: it would add one constant per
    instruction row across all channels, which the channel-wise `layer_norm`
    after every residual sum removes again.
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
                    (p + "tok.w2", (th, s), _uniform(th)),
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

        def block(x, ln, mlp, mix_tokens):
            g, b, w1, b1, w2 = (self.params[k] for k in (ln + "g", ln + "b", mlp + "w1",
                                                         mlp + "b1", mlp + "w2"))
            return ad.norm_mlp(x, g, b, w1, b1, w2, self.params.get(mlp + "b2"), rate, rng,
                               mix_tokens=mix_tokens)

        for layer in range(cfg.mixer_layers):
            p = f"layer{layer}."
            x = x + block(x, p + "ln1.", p + "tok.", True)    # over S, no output bias
            x = x + block(x, p + "ln2.", p + "ch.", False)
        x = ad.layer_norm(x, self.params["ln_final.g"], self.params["ln_final.b"])
        return ad.affine(ad.mean_(x, axis=1), self.params["fc.w"], self.params["fc.b"])


_VARIANT_CLASSES = {"textcnn": TextCNN, "lstm": LSTMNet, "mixer": Mixer}


def build_backbone(cfg: BackboneConfig, seed: int | np.random.SeedSequence | np.random.Generator = 0,
                   dtype=np.float32) -> Backbone:
    # default_rng returns a Generator as it is
    return _VARIANT_CLASSES[cfg.variant](cfg, np.random.default_rng(seed), dtype=dtype)


# ------------------------------------------------------------------ checkpoints

CHECKPOINT_MAGIC = b"ASMSIMB1"
# 64-byte aligned blocks in each variant's `layout`: conv kernels as
# [C_in, W, C_out], the lstm's four gates as w_x [H, 1, 4h], w_h [h, 4h], b [4h],
# the mixer's token MLPs without an output bias
CHECKPOINT_VERSION = 4
_ALIGN = 64


def save_checkpoint(path, backbone: Backbone, vocab: Vocabulary) -> str:
    """Write magic, version, config JSON, vocabulary bytes, named float32 blocks
    (each zero-padded to start on a 64-byte boundary of the file) and a SHA-256
    trailer over all before it with `write_atomic`; returns the file's SHA-256."""
    cfg_json = json.dumps(asdict(backbone.cfg), sort_keys=True,
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
    return write_atomic(path, out)


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
    """Read a version 4 checkpoint; any other version is a DataError. The file
    is read once into one 64-byte aligned buffer, each block a writable float32
    view into it; the backbone keeps the file's SHA-256 (`checkpoint_sha256`)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        store = np.empty(size + _ALIGN, dtype=np.uint8)
        raw = store[-store.ctypes.data % _ALIGN:][:size]
        if fh.readinto(raw) != size or len(raw) < len(CHECKPOINT_MAGIC) + 32:
            raise DataError(f"{path}: truncated checkpoint")
    body, trailer = memoryview(raw)[:-32], raw[-32:].tobytes()
    h = hashlib.sha256(body)
    if h.digest() != trailer:
        raise DataError(f"{path}: checkpoint checksum mismatch (file corrupted?)")
    r = _Reader(body, str(path))
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version} (this release "
                        f"reads version {CHECKPOINT_VERSION} only; retrain the model)")
    cfg_bytes = r.take(r.unpack("<I"))
    try:
        cfg = json.loads(str(cfg_bytes, "utf-8"))
        if not isinstance(cfg, dict):
            raise ValueError("not a JSON object")
        cfg = BackboneConfig(**cfg)
    except (ValueError, TypeError) as exc:   # not UTF-8 or JSON, or a missing, unknown or bad field
        raise DataError(f"{path}: bad backbone config: {exc}") from None
    vocab = Vocabulary.from_bytes(bytes(r.take(r.unpack("<Q"))), where=str(path))
    if vocab.size != cfg.vocab_size:
        raise DataError(f"{path}: vocabulary size {vocab.size} != config {cfg.vocab_size}")
    cls = _VARIANT_CLASSES[cfg.variant]
    expected = {name: shape for name, shape, _ in cls.layout(cfg)}
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
        if any(r.take(-r.off % _ALIGN)):
            raise DataError(f"{path}: non-zero padding before parameter '{name}'")
        count = int(np.prod(shape)) if shape else 1
        blocks[name] = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
    backbone = cls(cfg, None, data=blocks)
    h.update(trailer)
    backbone.checkpoint_sha256 = h.hexdigest()
    return backbone, vocab
