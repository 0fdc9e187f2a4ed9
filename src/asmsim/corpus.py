"""Dataset loading, function families, and training-pair sampling.

Datasets are JSON-Lines: one object per line with keys `project`, `binary`,
`function`, `opt_level`, and `instructions` (non-empty array of strings).
Functions sharing (project, binary, function) across optimization levels form
a family; cross-level members of one family are the positive pairs.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .manifest import write_atomic

OPT_LEVELS = ("O0", "O1", "O2", "O3", "Os")


@dataclass(frozen=True)
class FunctionRecord:
    project: str
    binary: str
    function_name: str
    opt_level: str
    instructions: tuple[str, ...]

    @property
    def family_key(self) -> tuple[str, str, str]:
        return (self.project, self.binary, self.function_name)

    def to_json(self) -> dict:
        return {
            "project": self.project,
            "binary": self.binary,
            "function": self.function_name,
            "opt_level": self.opt_level,
            "instructions": list(self.instructions),
        }


@dataclass
class FunctionFamily:
    key: tuple[str, str, str]
    members: dict[str, FunctionRecord] = field(default_factory=dict)


class CorpusIndex:
    """Loaded records plus the family index. Treat as read-only after load.
    `sha256`: hex SHA-256 of the file bytes parsed (`load_dataset`), else None."""

    def __init__(self, records: list[FunctionRecord], sha256: str | None = None):
        self.records = list(records)
        self.sha256 = sha256
        self.families: dict[tuple, FunctionFamily] = {}
        for rec in self.records:
            fam = self.families.setdefault(rec.family_key, FunctionFamily(rec.family_key))
            if rec.opt_level in fam.members:
                raise DataError(
                    f"duplicate function {rec.family_key} at opt level {rec.opt_level}"
                )
            fam.members[rec.opt_level] = rec

    def __len__(self) -> int:
        return len(self.records)


def normalize_text(instructions) -> str:
    """Whitespace-collapsed instruction text, for identical-variant filtering."""
    return "\n".join(" ".join(ins.split()) for ins in instructions)


def _record_from_obj(obj: dict, where: str) -> FunctionRecord:
    for key in ("project", "binary", "function", "opt_level", "instructions"):
        if key not in obj:
            raise DataError(f"{where}: missing key '{key}'")
    if obj["opt_level"] not in OPT_LEVELS:
        raise DataError(f"{where}: opt_level must be one of {OPT_LEVELS}, got {obj['opt_level']!r}")
    ins = obj["instructions"]
    if not isinstance(ins, list) or not ins or not all(isinstance(s, str) for s in ins):
        raise DataError(f"{where}: instructions must be a non-empty array of strings")
    for key in ("project", "binary", "function"):
        if not isinstance(obj[key], str):
            raise DataError(f"{where}: '{key}' must be a string")
    return FunctionRecord(
        project=obj["project"],
        binary=obj["binary"],
        function_name=obj["function"],
        opt_level=obj["opt_level"],
        instructions=tuple(ins),
    )


def _reject_dup_keys(pairs):
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"duplicate key '{k}'")
        obj[k] = v
    return obj


def load_dataset(path) -> CorpusIndex:
    """Parse a JSON-Lines dataset, hashing every line read, blank ones too, into
    its `sha256`; every error cites the 1-based line number."""
    records = []
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            digest.update(line)
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:                                # a UnicodeDecodeError is a ValueError
                obj = json.loads(line.decode("utf-8"), object_pairs_hook=_reject_dup_keys)
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{where}: expected a JSON object")
            records.append(_record_from_obj(obj, where))
    return CorpusIndex(records, sha256=digest.hexdigest())


def save_dataset(records, path) -> str:
    """Write one JSON line per record with `write_atomic`; returns their SHA-256."""
    return write_atomic(path, "".join(json.dumps(rec.to_json(), sort_keys=True) + "\n"
                                      for rec in records).encode("utf-8"))


@dataclass(frozen=True)
class PairSample:
    anchor: FunctionRecord
    other: FunctionRecord
    label: int  # +1 same family, -1 different family


class PairStream:
    """Deterministic shuffled stream over pair indices; records stay shared.

    `anchor` and `other` index the records and `labels` holds +1/-1, in stream order.
    """

    def __init__(self, records, anchor_idx, other_idx, labels):
        self._records = records
        self.anchor = anchor_idx
        self.other = other_idx
        self.labels = labels

    def __len__(self) -> int:
        return self.labels.size

    def __iter__(self):
        for a, o, y in zip(self.anchor, self.other, self.labels):
            yield PairSample(self._records[a], self._records[o], int(y))


def make_pairs(corpus: CorpusIndex, R: int = 30, seed=0) -> PairStream:
    """Positive pairs: all cross-level pairs within a family whose texts differ.

    Negative pairs: R functions per anchor drawn uniformly from other families
    (without replacement while the candidate pool lasts, cycling if R exceeds
    it). Stream order is one seeded shuffle over everything.
    """
    if R < 0:
        raise ValueError(f"negatives per anchor must be >= 0, got {R}")
    rng = np.random.default_rng(seed)
    records = corpus.records
    n = len(records)
    fam_ids = np.empty(n, dtype=np.int64)
    fam_index = {key: i for i, key in enumerate(corpus.families)}
    fam_members: list[list[int]] = [[] for _ in corpus.families]
    for i, rec in enumerate(records):
        fam_ids[i] = f = fam_index[rec.family_key]
        fam_members[f].append(i)

    anchors: list[int] = []
    others: list[int] = []
    labels: list[int] = []

    level_rank = {lvl: i for i, lvl in enumerate(OPT_LEVELS)}
    for members in fam_members:
        members.sort(key=lambda i: level_rank[records[i].opt_level])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = records[members[i]], records[members[j]]
                if normalize_text(a.instructions) == normalize_text(b.instructions):
                    continue
                anchors.append(members[i])
                others.append(members[j])
                labels.append(1)

    if R > 0:
        if len(corpus.families) <= 1:
            warnings.warn("corpus has a single family; no negative pairs can be drawn")
        else:
            for i in range(n):
                cand = np.flatnonzero(fam_ids != fam_ids[i])
                take: list[int] = []
                while len(take) < R:
                    perm = rng.permutation(cand)
                    take.extend(perm[: R - len(take)].tolist())
                anchors.extend([i] * R)
                others.extend(take)
                labels.extend([-1] * R)

    anchor_idx = np.asarray(anchors, dtype=np.int64)
    other_idx = np.asarray(others, dtype=np.int64)
    label_arr = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(label_arr.size)
    return PairStream(records, anchor_idx[order], other_idx[order], label_arr[order])
