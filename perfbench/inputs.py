"""Benchmark inputs: the stock corpus, the long-wide corpus, and the seeded
slices, queries and embed sets a run draws from them.

Everything here is a function of the workload seed. The stock shape is
`asmsim.synthetic.generate` as shipped. The long-wide shape is built here
from the same generator's records: each long function inlines the bodies of
several stock functions of one optimisation level, and every constant,
callee and global of each inlined body gets a spelling of its own family and
position, so the vocabulary at min_freq=1 runs to thousands of tokens.
"""

from __future__ import annotations

import statistics

import numpy as np

from asmsim import FunctionRecord
from asmsim.corpus import normalize_text
from asmsim.synthetic import CALLEES, CONSTS, DIALECTS, GLOBALS, SynthConfig, family_levels, generate

# One training seed for every run, so a loss compares at fixed model
# initialisation while the workload seed varies the data.
TRAIN_SEED = 0

STOCK_FAMILIES = 200
LONG_WIDE_FAMILIES = 96
# Inlined bodies per long-wide family: fixed quantiles of a log-normal in a
# fixed order, so every seed has the same family sizes; the seed changes the
# bodies and the identity tokens.
CHUNK_MEDIAN = 9.0
CHUNK_SIGMA = 0.5
CHUNK_RANGE = (2, 32)

_IDENTITY = frozenset(CONSTS) | frozenset(CALLEES) | frozenset(GLOBALS)


def stock_records(seed: int) -> list[FunctionRecord]:
    return generate(SynthConfig(n_families=STOCK_FAMILIES, seed=seed))


def chunk_counts(n_families: int) -> list[int]:
    dist = statistics.NormalDist(np.log(CHUNK_MEDIAN), CHUNK_SIGMA)
    lo, hi = CHUNK_RANGE
    return [int(np.clip(round(np.exp(dist.inv_cdf((j + 0.5) / n_families))), lo, hi))
            for j in range(n_families)]


def _respell(ins: str, family: int, chunk: int) -> str:
    mnem, _, ops = ins.partition(" ")
    if not ops:
        return ins
    out = []
    for op in ops.split(", "):
        if op in _IDENTITY:
            op = (f"0x{family:03x}{chunk:02x}{int(op, 16):04x}" if op.startswith("0x")
                  else f"{op}_{family}_{chunk}")
        out.append(op)
    return f"{mnem} {', '.join(out)}"


def long_wide_records(seed: int, n_families: int = LONG_WIDE_FAMILIES) -> list[FunctionRecord]:
    """Families of long functions with family-specific identity tokens.

    Long family j takes its low level from `family_levels(j)`, so it inlines
    stock families of the same low level (index congruent to j mod 3).
    Inner bodies drop their prologue and epilogue.
    """
    counts = chunk_counts(n_families)
    np.random.default_rng(0).shuffle(counts)     # the same family sizes for every seed
    need = [sum(counts[r::3]) for r in range(3)]
    stock = generate(SynthConfig(n_families=3 * max(need), seed=seed))
    by_family: dict[int, dict[str, FunctionRecord]] = {}
    for i, rec in enumerate(stock):
        by_family.setdefault(i // 3, {})[rec.opt_level] = rec
    queues = [list(range(r, len(by_family), 3)) for r in range(3)]
    out = []
    for j in range(n_families):
        chunks = [queues[j % 3].pop(0) for _ in range(counts[j])]
        for level in family_levels(j):
            d = DIALECTS[level]
            body: list[str] = []
            for c, fam in enumerate(chunks):
                ins = by_family[fam][level].instructions
                start = 0 if c == 0 else len(d.prologue)
                stop = len(ins) if c == len(chunks) - 1 else len(ins) - len(d.epilogue)
                body.extend(_respell(x, j, c) for x in ins[start:stop])
            out.append(FunctionRecord(project="longwide", binary="bin0",
                                      function_name=f"lw_{j:04d}", opt_level=level,
                                      instructions=tuple(body)))
    return out


# ------------------------------------------------------------------ sampling

def families(records) -> list[list[int]]:
    """Record indices grouped by family, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.family_key, []).append(i)
    return list(groups.values())


def stratified(lengths, k: int, rng=None) -> list[int]:
    """Indices of k items, one per length stratum: items sorted by length are
    cut into k equal strata, and each pick is the item at its stratum's
    middle, or with `rng` one of the (up to) three there. Every seed then
    draws the same length profile."""
    order = np.argsort(np.asarray(lengths, dtype=float), kind="stable")
    picks = []
    for stratum in np.array_split(order, k):
        mid = len(stratum) // 2
        if rng is not None:
            mid = rng.integers(max(0, mid - 1), min(len(stratum), mid + 2))
        picks.append(int(stratum[mid]))
    return picks


def mean_length(records, idx) -> float:
    return float(np.mean([len(records[i].instructions) for i in idx]))


def training_slice(records, fams, n_full: int, n_single: int, rng,
                   band=(0.0, 1.0), include=None) -> list[int]:
    """Record indices of a training corpus: n_full whole families plus
    n_single lone records of other families (seen only in negative pairs),
    drawn from the families whose length rank lies within `band`. Family
    `include`, if given, is always one of the whole families."""
    lengths = np.array([mean_length(records, f) for f in fams])
    order = np.argsort(lengths, kind="stable")
    lo, hi = (int(round(b * len(order))) for b in band)
    pool = np.array([f for f in order[lo:hi] if f != include], dtype=int)
    n_drawn = n_full + n_single - (include is not None)
    picks = [int(pool[p]) for p in stratified(lengths[pool], n_drawn, rng)] if n_drawn else []
    picks = [picks[i] for i in rng.permutation(len(picks))]
    if include is not None:
        picks.insert(0, include)
    idx = [i for f in picks[:n_full] for i in fams[f]]
    idx += [int(rng.choice(fams[f])) for f in picks[n_full:]]
    return sorted(idx)


def longest_family(records, fams) -> int:
    return max(range(len(fams)), key=lambda f: max(len(records[i].instructions) for i in fams[f]))


def expected_pairs(records, negatives: int) -> int:
    """Pair count `make_pairs` should yield, counted independently: all
    cross-level pairs of a family whose texts differ, plus `negatives` per
    record when there is more than one family."""
    groups: dict[tuple, list[str]] = {}
    for rec in records:
        groups.setdefault(rec.family_key, []).append(normalize_text(rec.instructions))
    positives = sum(1 for texts in groups.values()
                    for a in range(len(texts)) for b in range(a + 1, len(texts))
                    if texts[a] != texts[b])
    return positives + (negatives * len(records) if len(groups) > 1 else 0)


# ------------------------------------------------------------------ description

def length_profile(records) -> dict:
    lens = np.array([len(r.instructions) for r in records])
    q = np.percentile(lens, [0, 25, 50, 75, 90, 100])
    return {
        "functions": int(lens.size),
        "mean": round(float(lens.mean()), 2),
        "min_p25_p50_p75_p90_max": [int(v) for v in q],
        "share_over_256": round(float((lens > 256).mean()), 4),
        "share_over_512": round(float((lens > 512).mean()), 4),
    }


def reach(records) -> dict:
    """How long the functions an operation sees get: the longest, and how
    many pass mixer truncation (256) and position clamping (512)."""
    lens = [len(r.instructions) for r in records]
    return {"functions": len(lens), "longest": max(lens),
            "over_256": sum(n > 256 for n in lens), "over_512": sum(n > 512 for n in lens)}
