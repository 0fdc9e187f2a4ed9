"""Siamese backbones over instruction grids, plus checkpoint serialization.

A batch of B functions becomes one [B, L, H] grid: per instruction, K token
vectors and one position vector of width d are concatenated, H = d * (K + 1),
and shorter functions are padded to L with PAD ids and zero position vectors.
Every backbone has one forward, `embed_batch`, which runs length-sorted chunks
of the batch through the variant's head and maps each function to a
fixed-width embedding; both sides of a training pair run through the same
parameter set.

The PAD embedding row (id 0) is pinned to zero: it is excluded from the
parameter count and its gradient is masked before every optimizer step.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .tokenizer import EncodedFunction, PAD_ID, Vocabulary

VARIANTS = ("textcnn", "lstm", "mixer")


@dataclass
class BackboneConfig:
    variant: str
    vocab_size: int
    embed_dim: int = 192              # d: token and position vector width
    tokens_per_instruction: int = 5   # K
    output_dim: int = 192             # E
    max_positions: int = 512
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


def _kaiming(rng, shape, fan_in, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _embedding_init(rng, shape, dtype):
    return rng.normal(0.0, 0.02, size=shape).astype(dtype)


class Backbone:
    """Shared embedding tables plus a variant-specific head."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        token = _embedding_init(rng, (cfg.vocab_size, cfg.embed_dim), self.dtype)
        token[PAD_ID] = 0.0
        self._add("token_table", token)
        self._add("pos_table", _embedding_init(rng, (cfg.max_positions, cfg.embed_dim), self.dtype))
        self._init_head(rng)

    def _add(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def _init_head(self, rng):
        raise NotImplementedError

    def _validate_ids(self, enc: EncodedFunction):
        if enc.token_ids.size and enc.token_ids.max() >= self.cfg.vocab_size:
            raise DataError(
                f"token id {int(enc.token_ids.max())} exceeds vocabulary size "
                f"{self.cfg.vocab_size}: vocabulary/model mismatch"
            )
        if enc.position_ids.size and enc.position_ids.max() >= self.cfg.max_positions:
            raise DataError("position id exceeds the model's position table")

    # functions per forward sub-batch; sorted-by-length chunks keep the padded
    # grid close to the true token volume
    CHUNK = 64

    def _grid(self, encs, length: int) -> Tensor:
        """[B, length, H] grid of concatenated token and position vectors.

        Functions longer than `length` are cut; rows past a function's end
        hold PAD ids and a zero position vector.
        """
        cfg = self.cfg
        bsz, k = len(encs), cfg.tokens_per_instruction
        ids = np.full((bsz, length, k), PAD_ID, dtype=np.int32)
        pos = np.zeros((bsz, length), dtype=np.int32)
        mask = np.zeros((bsz, length, 1), dtype=self.dtype)
        for i, e in enumerate(encs):
            s = min(e.n_instructions, length)
            ids[i, :s] = e.token_ids[:s]
            pos[i, :s] = e.position_ids[:s]
            mask[i, :s, 0] = 1.0
        tok = ad.reshape(ad.embedding(self.params["token_table"], ids),
                         (bsz, length, k * cfg.embed_dim))
        posv = ad.embedding(self.params["pos_table"], pos) * ad.constant(mask)
        return ad.concat([tok, posv], axis=2)

    def _head(self, encs, training: bool, rng) -> Tensor:
        """Length-sorted functions -> [B, F] features, before the `fc` projection."""
        raise NotImplementedError

    def embed_batch(self, encs, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        """The forward pass: a list of encoded functions -> [B, E], in caller order."""
        if not encs:
            raise ValueError("embed_batch needs at least one function")
        for e in encs:
            self._validate_ids(e)
        order = np.argsort([e.n_instructions for e in encs], kind="stable")
        chunks = [self._head([encs[i] for i in order[s:s + self.CHUNK]], training, rng)
                  for s in range(0, len(encs), self.CHUNK)]
        feats = chunks[0] if len(chunks) == 1 else ad.concat(chunks, axis=0)
        if np.any(order != np.arange(len(encs))):
            inverse = np.empty(len(encs), dtype=np.int64)
            inverse[order] = np.arange(len(encs))
            feats = ad.embedding(feats, inverse)       # restore caller order
        if "fc.w" not in self.params:                  # the LSTM's state is the embedding
            return feats
        return ad.affine(feats, self.params["fc.w"], self.params["fc.b"])

    def embed(self, enc: EncodedFunction, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
        """One function's [E] embedding: the single row of embed_batch([enc])."""
        return ad.reshape(self.embed_batch([enc], training=training, rng=rng), (-1,))

    def embed_matrix(self, encs, batch_size: int = 256) -> np.ndarray:
        """Inference embeddings as a plain [N, E] array."""
        out = []
        with ad.no_grad():
            for start in range(0, len(encs), batch_size):
                out.append(self.embed_batch(encs[start:start + batch_size]).data)
        return np.concatenate(out, axis=0) if out else np.zeros((0, self.cfg.output_dim))

    def param_count(self) -> int:
        """Trainable scalars; the frozen PAD row does not count."""
        total = sum(int(p.data.size) for p in self.params.values())
        return total - self.cfg.embed_dim

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def mask_frozen_grads(self):
        g = self.params["token_table"].grad
        if g is not None:
            g[PAD_ID, :] = 0.0

    def frozen_masks(self) -> dict[str, np.ndarray]:
        mask = np.zeros(self.params["token_table"].shape, dtype=bool)
        mask[PAD_ID, :] = True
        return {"token_table": mask}

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, p in self.params.items():
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


class TextCNN(Backbone):
    """Width-5 and width-3 convolution banks, global max-pool, one projection."""

    def _init_head(self, rng):
        cfg = self.cfg
        h = cfg.grid_width
        for i, w in enumerate(cfg.conv_widths):
            self._add(f"conv{i}.w", _kaiming(rng, (cfg.conv_channels, h, w), h * w, self.dtype))
            self._add(f"conv{i}.b", np.zeros(cfg.conv_channels, dtype=self.dtype))
        pooled = cfg.conv_channels * len(cfg.conv_widths)
        self._add("fc.w", _kaiming(rng, (pooled, cfg.output_dim), pooled, self.dtype))
        self._add("fc.b", np.zeros(cfg.output_dim, dtype=self.dtype))

    def _width_groups(self):
        groups: dict[int, list[int]] = {}
        for i, w in enumerate(self.cfg.conv_widths):
            groups.setdefault(w, []).append(i)
        return groups

    def _head(self, encs, training, rng):
        widest = max(self.cfg.conv_widths)
        eff = np.maximum([e.n_instructions for e in encs], widest)
        grid = self._grid(encs, int(eff.max()))        # [B, S, H]
        pooled = []
        for width, idxs in self._width_groups().items():
            w = ad.concat([self.params[f"conv{i}.w"] for i in idxs], axis=0)
            b = ad.concat([self.params[f"conv{i}.b"] for i in idxs], axis=0)
            conv = ad.relu(ad.conv1d(grid, w, b))
            pooled.append(ad.max_pool_time(conv, lengths=eff - (width - 1)))
        return ad.concat(pooled, axis=1)               # [B, channels * n_kernels]


class LSTMNet(Backbone):
    """Single-layer LSTM over instruction vectors; the last hidden state is the embedding.

    Gates follow the classic coupled form on the concatenation [h_{t-1}, x_t]:
    input, forget, and output gates are sigmoids, the candidate cell is a tanh,
    the cell accumulates f*C + i*C~, and h = o * tanh(C). h_0 = C_0 = 0.
    """

    GATES = ("i", "f", "c", "o")

    def _init_head(self, rng):
        cfg = self.cfg
        zin = cfg.lstm_hidden + cfg.grid_width
        for gate in self.GATES:
            self._add(f"w_{gate}", _kaiming(rng, (zin, cfg.lstm_hidden), zin, self.dtype))
            self._add(f"b_{gate}", np.zeros(cfg.lstm_hidden, dtype=self.dtype))

    def _head(self, encs, training, rng):
        hid = self.cfg.lstm_hidden
        lengths = np.array([e.n_instructions for e in encs])
        bsz, steps = len(encs), int(lengths.max())
        grid = self._grid(encs, steps)                 # [B, S, H]
        # The input side of each gate is one GEMM over all steps; a step is
        # then a [running rows, hidden] GEMM plus a row gather of its inputs.
        w_h, x_proj = {}, {}
        for g in self.GATES:
            w = self.params[f"w_{g}"]                  # rows: h_{t-1} part, then x_t part
            w_h[g] = ad.embedding(w, np.arange(hid))
            w_x = ad.embedding(w, np.arange(hid, w.shape[0]))
            x_proj[g] = ad.reshape(ad.affine(grid, w_x, self.params[f"b_{g}"]),
                                   (bsz * steps, hid))
        # Rows come in ascending length order, so the running rows are a suffix
        # [done, B). A row drops out once its own length is reached; its state
        # at that point is its embedding.
        h = c = ad.constant(np.zeros((bsz, hid), dtype=self.dtype))
        done, finals = 0, []
        for t in range(steps):
            ended = int(np.searchsorted(lengths, t, side="right")) - done
            if ended:
                finals.append(ad.embedding(h, np.arange(ended)))
                rest = np.arange(ended, bsz - done)
                h, c = ad.embedding(h, rest), ad.embedding(c, rest)
                done += ended
            rows = np.arange(done, bsz) * steps + t
            pre = {g: ad.matmul(h, w_h[g]) + ad.embedding(x_proj[g], rows) for g in self.GATES}
            c = ad.sigmoid(pre["f"]) * c + ad.sigmoid(pre["i"]) * ad.tanh(pre["c"])
            h = ad.sigmoid(pre["o"]) * ad.tanh(c)
        return ad.concat(finals + [h], axis=0)


class Mixer(Backbone):
    """MLP-Mixer over a fixed-length grid: alternating token and channel mixing.

    Functions are truncated or zero-padded along the instruction axis to
    mixer_seq_len; there are no per-patch projections, the grid itself is the
    token sequence. Dropout applies inside the MLPs on training passes only.
    """

    def _init_head(self, rng):
        cfg = self.cfg
        c = cfg.grid_width
        s = cfg.mixer_seq_len
        for layer in range(cfg.mixer_layers):
            p = f"layer{layer}."
            self._add(p + "ln1.g", np.ones(c, dtype=self.dtype))
            self._add(p + "ln1.b", np.zeros(c, dtype=self.dtype))
            self._add(p + "tok.w1", _kaiming(rng, (s, cfg.mixer_token_hidden), s, self.dtype))
            self._add(p + "tok.b1", np.zeros(cfg.mixer_token_hidden, dtype=self.dtype))
            self._add(p + "tok.w2", _kaiming(rng, (cfg.mixer_token_hidden, s),
                                             cfg.mixer_token_hidden, self.dtype))
            self._add(p + "tok.b2", np.zeros(s, dtype=self.dtype))
            self._add(p + "ln2.g", np.ones(c, dtype=self.dtype))
            self._add(p + "ln2.b", np.zeros(c, dtype=self.dtype))
            self._add(p + "ch.w1", _kaiming(rng, (c, cfg.mixer_channel_hidden), c, self.dtype))
            self._add(p + "ch.b1", np.zeros(cfg.mixer_channel_hidden, dtype=self.dtype))
            self._add(p + "ch.w2", _kaiming(rng, (cfg.mixer_channel_hidden, c),
                                            cfg.mixer_channel_hidden, self.dtype))
            self._add(p + "ch.b2", np.zeros(c, dtype=self.dtype))
        self._add("ln_final.g", np.ones(c, dtype=self.dtype))
        self._add("ln_final.b", np.zeros(c, dtype=self.dtype))
        self._add("fc.w", _kaiming(rng, (c, cfg.output_dim), c, self.dtype))
        self._add("fc.b", np.zeros(cfg.output_dim, dtype=self.dtype))

    # every function fills the full mixer_seq_len grid, so a chunk saves no
    # padding; a small one bounds inference memory at no cost in speed
    CHUNK = 16

    def _drop(self, x, training, rng):
        if not training or self.cfg.mixer_dropout == 0.0:
            return x
        if rng is None:
            raise ValueError("training-mode mixer needs an RNG for dropout")
        return ad.dropout(x, self.cfg.mixer_dropout, rng)

    def _head(self, encs, training, rng):
        cfg = self.cfg
        x = self._grid(encs, cfg.mixer_seq_len)        # [B, S_fixed, C]
        for layer in range(cfg.mixer_layers):
            p = f"layer{layer}."
            u = ad.layer_norm(x, self.params[p + "ln1.g"], self.params[p + "ln1.b"])
            t = ad.transpose(u, (0, 2, 1))             # [B, C, S]
            t = ad.gelu(ad.affine(t, self.params[p + "tok.w1"], self.params[p + "tok.b1"]))
            t = self._drop(t, training, rng)
            t = ad.affine(t, self.params[p + "tok.w2"], self.params[p + "tok.b2"])
            t = self._drop(t, training, rng)
            x = x + ad.transpose(t, (0, 2, 1))
            v = ad.layer_norm(x, self.params[p + "ln2.g"], self.params[p + "ln2.b"])
            cmix = ad.gelu(ad.affine(v, self.params[p + "ch.w1"], self.params[p + "ch.b1"]))
            cmix = self._drop(cmix, training, rng)
            cmix = ad.affine(cmix, self.params[p + "ch.w2"], self.params[p + "ch.b2"])
            cmix = self._drop(cmix, training, rng)
            x = x + cmix
        x = ad.layer_norm(x, self.params["ln_final.g"], self.params["ln_final.b"])
        return ad.mean_(x, axis=1)                     # [B, C]


_VARIANT_CLASSES = {"textcnn": TextCNN, "lstm": LSTMNet, "mixer": Mixer}


def build_backbone(cfg: BackboneConfig, seed: int | np.random.SeedSequence | np.random.Generator = 0,
                   dtype=np.float32) -> Backbone:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _VARIANT_CLASSES[cfg.variant](cfg, rng, dtype=dtype)


# ------------------------------------------------------------------ checkpoints

CHECKPOINT_MAGIC = b"ASMSIMB1"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, backbone: Backbone, vocab: Vocabulary):
    """Write magic, version, config JSON, vocabulary bytes, named float32 blocks,
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
        out += np.ascontiguousarray(p.data, dtype="<f4").tobytes()
    out += hashlib.sha256(bytes(out)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, buf: bytes, where: str):
        self.buf = buf
        self.off = 0
        self.where = where

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise DataError(f"{self.where}: truncated checkpoint")
        piece = self.buf[self.off:self.off + n]
        self.off += n
        return piece

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals


def load_checkpoint(path) -> tuple[Backbone, Vocabulary]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 32:
        raise DataError(f"{path}: truncated checkpoint")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise DataError(f"{path}: checkpoint checksum mismatch (file corrupted?)")
    r = _Reader(body, str(path))
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    cfg = BackboneConfig.from_dict(json.loads(r.take(r.unpack("<I")).decode("utf-8")))
    vocab = Vocabulary.from_bytes(r.take(r.unpack("<Q")), where=str(path))
    if vocab.size != cfg.vocab_size:
        raise DataError(f"{path}: vocabulary size {vocab.size} != config {cfg.vocab_size}")
    backbone = build_backbone(cfg, seed=0)
    n_params = r.unpack("<I")
    if n_params != len(backbone.params):
        raise DataError(f"{path}: expected {len(backbone.params)} parameter blocks, found {n_params}")
    for _ in range(n_params):
        name = r.take(r.unpack("<H")).decode("utf-8")
        if name not in backbone.params:
            raise DataError(f"{path}: unexpected parameter block '{name}'")
        ndim = r.unpack("<B")
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        target = backbone.params[name]
        if tuple(shape) != target.data.shape:
            raise DataError(f"{path}: parameter '{name}' has shape {shape}, "
                            f"expected {target.data.shape}")
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        target.data = data.astype(np.float32).copy()
    return backbone, vocab
