"""Siamese training with the cosine-margin pair loss.

Positive pairs (label +1) are pulled toward cosine 1 via 1 - cos; negative
pairs (label -1) are pushed below the margin via max(0, cos - margin), so a
negative pair already under the margin contributes nothing. A step embeds
each distinct function of its batch once, in one forward, and gathers both
pair sides from those rows, so both sides see the same parameters and a
function's repeats share one row: their gradients sum in the gather's
backward, and the mixer draws one dropout mask per distinct function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DEFAULT_MARGIN, cosine_pair_loss_batch
from .corpus import CorpusIndex, make_pairs
from .errors import DataError, NumericError
from .manifest import write_atomic
from .models import Backbone, BackboneConfig, build_backbone
from .optim import Adam
from .tokenizer import Vocabulary, encode_function


@dataclass
class TrainConfig:
    seed: int
    learning_rate: float = 0.001
    batch_size: int = 384
    epochs: int = 1
    negatives: int = 30
    margin: float = DEFAULT_MARGIN
    checkpoint_every: int = 10_000

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("training requires an explicit seed")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must be in [0, 1], got {self.margin}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class TrainResult:
    backbone: Backbone
    losses: list[float] = field(default_factory=list)

    @property
    def n_batches(self) -> int:
        return len(self.losses)


def train(corpus: CorpusIndex, vocab: Vocabulary, backbone_cfg: BackboneConfig,
          cfg: TrainConfig, checkpoint_cb=None) -> TrainResult:
    """Run the siamese loop; returns the trained backbone and per-batch losses.

    Records are encoded once; batch k holds stream pairs [k*B, (k+1)*B) and
    makes one forward over their distinct records.
    `checkpoint_cb(backbone, batch_index, reason)` fires every
    `checkpoint_every` batches ("interval") and at each epoch end ("epoch").
    Identical seeds reproduce the stream, the updates, and the loss trace.
    """
    if backbone_cfg.vocab_size != vocab.size:
        raise DataError(f"backbone vocab_size {backbone_cfg.vocab_size} != vocabulary size {vocab.size}")
    root = np.random.SeedSequence(cfg.seed)
    init_ss, dropout_ss, *epoch_ss = root.spawn(2 + max(cfg.epochs, 1))
    backbone = build_backbone(backbone_cfg, seed=np.random.default_rng(init_ss))
    dropout_rng = np.random.default_rng(dropout_ss)
    opt = Adam(backbone.params, lr=cfg.learning_rate)
    rows: dict = {}
    encs = [encode_function(vocab, rec, k_tokens=backbone_cfg.tokens_per_instruction,
                            max_positions=backbone_cfg.max_positions, rows=rows)
            for rec in corpus.records]

    result = TrainResult(backbone=backbone)
    for epoch in range(cfg.epochs):
        stream = make_pairs(corpus, R=cfg.negatives, seed=epoch_ss[epoch])
        if len(stream) == 0:
            raise DataError("corpus yields no training pairs (identical variants or one family)")
        for start in range(0, len(stream), cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            # one forward over the batch's distinct records, gathered into both sides
            uniq, inv = np.unique(np.concatenate([stream.anchor[batch], stream.other[batch]]),
                                  return_inverse=True)
            emb = backbone.embed_batch([encs[i] for i in uniq], training=True, rng=dropout_rng)
            n = len(inv) // 2
            e1, e2 = ad.embedding(emb, inv[:n]), ad.embedding(emb, inv[n:])
            loss = cosine_pair_loss_batch(e1, e2, stream.labels[batch], margin=cfg.margin)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at batch {result.n_batches}")
            loss.backward()
            opt.step()              # consumes the gradients: the returned backbone holds none
            del emb, e1, e2, loss  # this batch's graph must not live through the next forward
            result.losses.append(value)
            if checkpoint_cb is not None and result.n_batches % cfg.checkpoint_every == 0:
                checkpoint_cb(backbone, result.n_batches, "interval")
        if checkpoint_cb is not None:
            checkpoint_cb(backbone, result.n_batches, "epoch")
    return result


def write_loss_csv(path, losses) -> str:
    """Loss trace as `batch_index,loss`, written with `write_atomic`; repr keeps
    runs byte-comparable. Returns the SHA-256 of the bytes written."""
    rows = "".join(f"{i},{value!r}\n" for i, value in enumerate(losses))
    return write_atomic(path, f"batch_index,loss\n{rows}".encode("utf-8"))
