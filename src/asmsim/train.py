"""Siamese training with the cosine-margin pair loss.

Positive pairs (label +1) are pulled toward cosine 1 via 1 - cos; negative
pairs (label -1) are pushed below the margin via max(0, cos - margin), so a
negative pair already under the margin contributes nothing. Both sides of a
pair are embedded by the same parameter set within the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import CorpusIndex, make_pairs
from .errors import DataError, NumericError
from .models import Backbone, BackboneConfig, build_backbone
from .optim import Adam
from .tokenizer import Vocabulary, encode_function

DEFAULT_MARGIN = 0.9


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


def cosine_pair_loss(e1: Tensor, e2: Tensor, y: int, margin: float = DEFAULT_MARGIN) -> Tensor:
    """Scalar loss for one pair of embeddings with label y in {+1, -1}."""
    if y not in (1, -1):
        raise ValueError(f"pair label must be +1 or -1, got {y}")
    if not 0.0 <= margin <= 1.0:
        raise ValueError(f"margin must be in [0, 1], got {margin}")
    c = ad.cosine(e1, e2)
    if y == 1:
        return 1.0 - c
    return ad.relu(c - margin)


def cosine_pair_loss_batch(e1: Tensor, e2: Tensor, labels, margin: float = DEFAULT_MARGIN) -> Tensor:
    """Mean pair loss over a batch. e1, e2 [B, E]; labels [B] of +1/-1."""
    ys = np.asarray(labels)
    if not np.all(np.isin(ys, (1, -1))):
        raise ValueError("pair labels must be +1 or -1")
    if not 0.0 <= margin <= 1.0:
        raise ValueError(f"margin must be in [0, 1], got {margin}")
    cos = ad.pairwise_cosine(e1, e2)
    pos = ad.constant((ys > 0).astype(e1.data.dtype))
    neg = ad.constant((ys < 0).astype(e1.data.dtype))
    per_pair = pos * (1.0 - cos) + neg * ad.relu(cos - margin)
    return ad.mean_(per_pair)


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

    Records are encoded once; batch k holds stream pairs [k*B, (k+1)*B).
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
    encs = [encode_function(vocab, rec, k_tokens=backbone_cfg.tokens_per_instruction,
                            max_positions=backbone_cfg.max_positions)
            for rec in corpus.records]

    result = TrainResult(backbone=backbone)
    for epoch in range(cfg.epochs):
        stream = make_pairs(corpus, R=cfg.negatives, seed=epoch_ss[epoch])
        if len(stream) == 0:
            raise DataError("corpus yields no training pairs (identical variants or one family)")
        for start in range(0, len(stream), cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            e1 = backbone.embed_batch([encs[i] for i in stream.anchor[batch]],
                                      training=True, rng=dropout_rng)
            e2 = backbone.embed_batch([encs[i] for i in stream.other[batch]],
                                      training=True, rng=dropout_rng)
            loss = cosine_pair_loss_batch(e1, e2, stream.labels[batch], margin=cfg.margin)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at batch {result.n_batches}")
            loss.backward()
            opt.step()              # consumes the gradients: the returned backbone holds none
            del e1, e2, loss  # this batch's graph must not live through the next forward
            result.losses.append(value)
            if checkpoint_cb is not None and result.n_batches % cfg.checkpoint_every == 0:
                checkpoint_cb(backbone, result.n_batches, "interval")
        if checkpoint_cb is not None:
            checkpoint_cb(backbone, result.n_batches, "epoch")
    return result


def write_loss_csv(path, losses):
    """Loss trace as `batch_index,loss`; repr keeps runs byte-comparable."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("batch_index,loss\n")
        for i, value in enumerate(losses):
            fh.write(f"{i},{value!r}\n")
