"""Retrieval evaluation: pools, ranking, MRR, and Recall@k.

For an optimization pair (A, B), a pool draws n families compiled at both
levels; each query is the A-side function and the ground truth is its B-side
sibling hidden among the n targets. Ranking is by descending cosine with
stable original-index tie-breaking, so duplicate embeddings keep file order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusIndex, FunctionRecord, normalize_text
from .errors import DataError
from .models import Backbone
from .tokenizer import Vocabulary, encode_function

DEFAULT_OPT_PAIRS = (
    ("O0", "O3"), ("O1", "O3"), ("O2", "O3"),
    ("O0", "Os"), ("O1", "Os"), ("O2", "Os"),
)
DEFAULT_POOL_SIZE = 32
DEFAULT_KS = (1,)


def mrr(ranks) -> float:
    """Mean reciprocal rank of 1-based ranks.

    Summation is sequential left-to-right, so the result is bit-identical
    to the elementary sum(1/r)/n a caller would write to check it.
    """
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        raise ValueError("mrr of an empty rank list")
    if np.any(r < 1):
        raise ValueError("ranks are 1-based")
    total = 0.0
    for v in r:
        total += 1.0 / float(v)
    return total / r.size


def recall_at_k(ranks, k: int) -> float:
    """Fraction of ranks at or above position k (rank == k counts)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        raise ValueError("recall of an empty rank list")
    if np.any(r < 1):
        raise ValueError("ranks are 1-based")
    return float(np.mean(r <= k))


def descending_order(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score; ties keep original order."""
    return np.argsort(-np.asarray(scores), kind="stable")


def cosine_matrix(q: np.ndarray, t: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Row-wise cosine similarities [m, n]; zero-norm rows score 0."""
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    tn = np.linalg.norm(t, axis=1, keepdims=True)
    qs = np.where(qn < eps, 0.0, q / np.where(qn < eps, 1.0, qn))
    ts = np.where(tn < eps, 0.0, t / np.where(tn < eps, 1.0, tn))
    return np.clip(qs @ ts.T, -1.0, 1.0)


@dataclass
class Pool:
    opt_pair: tuple[str, str]
    queries: list[FunctionRecord]
    targets: list[FunctionRecord]
    seed: int

    @property
    def size(self) -> int:
        return len(self.queries)


def eligible_families(corpus: CorpusIndex, opt_pair) -> list:
    """Families holding both levels of the pair with differing normalized text."""
    a, b = opt_pair
    out = []
    for key in sorted(corpus.families):
        fam = corpus.families[key]
        if a in fam.members and b in fam.members:
            if normalize_text(fam.members[a].instructions) != normalize_text(fam.members[b].instructions):
                out.append(fam)
    return out


def build_pool(corpus: CorpusIndex, opt_pair, n: int, seed: int) -> Pool:
    if n < 1:
        raise ValueError("pool size must be >= 1")
    fams = eligible_families(corpus, opt_pair)
    if len(fams) < n:
        raise DataError(
            f"pool size {n} infeasible for {opt_pair[0]},{opt_pair[1]}: only "
            f"{len(fams)} eligible families (maximum feasible n = {len(fams)})"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(fams), size=n, replace=False)
    a, b = opt_pair
    queries = [fams[i].members[a] for i in picks]
    targets = [fams[i].members[b] for i in picks]
    return Pool(opt_pair=tuple(opt_pair), queries=queries, targets=targets, seed=seed)


def _encode_all(backbone: Backbone, vocab: Vocabulary, records):
    cfg, rows = backbone.cfg, {}
    return [encode_function(vocab, r, k_tokens=cfg.tokens_per_instruction,
                            max_positions=cfg.max_positions, rows=rows) for r in records]


@dataclass
class PoolResult:
    opt_pair: tuple[str, str]
    pool_size: int
    seed: int
    ranks: np.ndarray
    mrr: float
    recalls: dict[int, float]


@dataclass
class EvalReport:
    pool_size: int
    seed: int
    ks: tuple[int, ...]
    results: list[PoolResult] = field(default_factory=list)

    @property
    def mean_mrr(self) -> float:
        return float(np.mean([r.mrr for r in self.results]))

    def mean_recall(self, k: int) -> float:
        return float(np.mean([r.recalls[k] for r in self.results]))

    @property
    def labels(self) -> list[str]:
        return [f"{a},{b}" for a, b in (r.opt_pair for r in self.results)]

    def to_json_dict(self, checkpoint_sha256: str | None = None) -> dict:
        return {
            "pool_size": self.pool_size,
            "seed": self.seed,
            "checkpoint_sha256": checkpoint_sha256,
            "opt_pairs": self.labels,
            "mrr": dict(zip(self.labels, (r.mrr for r in self.results)))
                   | {"average": self.mean_mrr},
            "recall": {str(k): dict(zip(self.labels, (r.recalls[k] for r in self.results)))
                               | {"average": self.mean_recall(k)} for k in self.ks},
        }

    def format_table(self) -> str:
        cols = self.labels + ["average"]
        width = max(9, *(len(c) for c in cols)) + 2
        rows = [("MRR", [r.mrr for r in self.results] + [self.mean_mrr])]
        rows += [(f"Recall@{k}", [r.recalls[k] for r in self.results] + [self.mean_recall(k)])
                 for k in self.ks]
        lines = [f"pool size: {self.pool_size}    seed: {self.seed}",
                 "metric".ljust(12) + "".join(c.rjust(width) for c in cols)]
        lines += [name.ljust(12) + "".join(f"{v:.4f}".rjust(width) for v in vals)
                  for name, vals in rows]
        return "\n".join(lines) + "\n"


def evaluate_pool(backbone: Backbone, vocab: Vocabulary, pool: Pool,
                  ks=DEFAULT_KS) -> PoolResult:
    q = backbone.embed_matrix(_encode_all(backbone, vocab, pool.queries))
    t = backbone.embed_matrix(_encode_all(backbone, vocab, pool.targets))
    scores = cosine_matrix(q, t)
    n = pool.size
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        order = descending_order(scores[i])
        ranks[i] = int(np.nonzero(order == i)[0][0]) + 1
    return PoolResult(
        opt_pair=pool.opt_pair, pool_size=n, seed=pool.seed, ranks=ranks,
        mrr=mrr(ranks), recalls={k: recall_at_k(ranks, k) for k in ks},
    )


def evaluate_model(backbone: Backbone, vocab: Vocabulary, corpus: CorpusIndex,
                   opt_pairs=DEFAULT_OPT_PAIRS, n: int = DEFAULT_POOL_SIZE,
                   ks=DEFAULT_KS, seed: int = 0) -> EvalReport:
    """Evaluate retrieval on one pool per optimization pair."""
    report = EvalReport(pool_size=n, seed=seed, ks=tuple(ks))
    for pair in opt_pairs:
        pool = build_pool(corpus, pair, n, seed)
        report.results.append(evaluate_pool(backbone, vocab, pool, ks=ks))
    return report
