"""Instruction tokenization, vocabulary mining, and grid encoding.

Tokens come from splitting instruction text on a delimiter set; delimiters are
discarded, so operand punctuation never becomes a token. No register/immediate
normalization is applied: the vocabulary keeps every raw token whose corpus
frequency reaches the threshold, and everything else encodes as UNK.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError
from .manifest import write_atomic

DEFAULT_DELIMITERS = " \t+-*:,;[]()"
DEFAULT_MIN_FREQ = 32
DEFAULT_TOKENS_PER_INSTRUCTION = 5
DEFAULT_MAX_POSITIONS = 512

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1

# the header ends with the delimiter set as a non-empty JSON string, so tab,
# space and quotes survive
_JSON_CHAR = r'(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9a-fA-F]{4})'
_HEADER_RE = re.compile(
    r"^# asmsim vocab v2 pad=(?P<pad>\S+) unk=(?P<unk>\S+) min_freq=(?P<minfreq>\d+)"
    rf' delimiters=(?P<delimiters>"{_JSON_CHAR}+")$'
)


@functools.lru_cache(maxsize=16)
def _token_pattern(delimiters: str) -> re.Pattern:
    """The maximal runs of non-delimiter characters, compiled once per delimiter set."""
    if not delimiters:
        raise ValueError("delimiter set must be non-empty")
    return re.compile("[^" + re.escape(delimiters) + "]+")


def split_instruction(text: str, delimiters: str = DEFAULT_DELIMITERS) -> list[str]:
    """Split on any delimiter character, dropping delimiters and empty fragments."""
    return _token_pattern(delimiters).findall(text)


@dataclass
class Vocabulary:
    """Token table with reserved PAD (id 0, never looked up) and UNK (id 1, trainable)."""

    id_to_token: list[str]
    frequencies: list[int]
    min_freq: int
    delimiters: str = DEFAULT_DELIMITERS
    # `load`: the SHA-256 of the file bytes it parsed
    sha256: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.id_to_token[PAD_ID] != PAD_TOKEN or self.id_to_token[UNK_ID] != UNK_TOKEN:
            raise DataError("vocabulary must reserve id 0 for PAD and id 1 for UNK")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def freq(self, token: str) -> int:
        i = self.token_to_id.get(token)
        return 0 if i is None else self.frequencies[i]

    def file_bytes(self) -> bytes:
        for tok in self.id_to_token:
            if "\t" in tok or "\n" in tok:
                raise DataError(f"token {tok!r} cannot be serialized (contains tab/newline)")
        body = "".join(map("{}\t{}\n".format, self.id_to_token, self.frequencies)).encode("utf-8")
        header = (
            f"# asmsim vocab v2 pad={PAD_TOKEN} unk={UNK_TOKEN} min_freq={self.min_freq}"
            f" delimiters={json.dumps(self.delimiters)}\n"
            f"# sha256={hashlib.sha256(body).hexdigest()}\n"
        )
        return header.encode("utf-8") + body

    def save(self, path) -> str:
        """Write `file_bytes()` with `write_atomic`; returns their SHA-256."""
        return write_atomic(path, self.file_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes, where: str = "vocabulary") -> "Vocabulary":
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{where}: vocabulary is not valid UTF-8: {exc}") from None
        lines = text.split("\n")
        if len(lines) < 4:
            raise DataError(f"{where}: truncated vocabulary file")
        m = _HEADER_RE.match(lines[0])
        if m is None:
            raise DataError(f"{where}: unrecognized vocabulary header {lines[0][:60]!r} "
                            "(this release reads the v2 header only)")
        if not lines[1].startswith("# sha256="):
            raise DataError(f"{where}: missing checksum header")
        recorded = lines[1][len("# sha256="):]
        body = "\n".join(lines[2:]).encode("utf-8")
        actual = hashlib.sha256(body).hexdigest()
        if recorded != actual:
            raise DataError(f"{where}: vocabulary checksum mismatch (file corrupted?)")
        id_to_token = []
        frequencies = []
        for lineno, line in enumerate(lines[2:], start=3):
            if line == "" and lineno == len(lines):
                continue  # trailing newline
            tok, sep, freq = line.partition("\t")
            if not sep or not tok:
                raise DataError(f"{where}:{lineno}: expected 'token<TAB>frequency'")
            try:
                frequencies.append(int(freq))
            except ValueError:
                raise DataError(f"{where}:{lineno}: bad frequency {freq!r}") from None
            id_to_token.append(tok)
        if m.group("pad") != PAD_TOKEN or m.group("unk") != UNK_TOKEN:
            raise DataError(f"{where}: unsupported reserved-token names in header")
        return cls(id_to_token, frequencies, min_freq=int(m.group("minfreq")),
                   delimiters=json.loads(m.group("delimiters")))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "rb") as fh:
            raw = fh.read()
        vocab = cls.from_bytes(raw, where=str(path))
        vocab.sha256 = hashlib.sha256(raw).hexdigest()
        return vocab


def build_vocab(records, min_freq: int = DEFAULT_MIN_FREQ,
                delimiters: str = DEFAULT_DELIMITERS) -> Vocabulary:
    """Count tokens over all instructions of `records`; keep those with freq >= min_freq.

    Ids are dense: PAD, UNK, then descending frequency with lexicographic
    tie-break, so rebuilding from the same corpus reproduces the same file.
    Each distinct instruction string is split once and its tokens counted
    as often as the string occurs.
    """
    if min_freq < 1:
        raise ValueError(f"frequency threshold must be >= 1, got {min_freq}")
    split = _token_pattern(delimiters).findall
    counts: dict[str, int] = {}
    for ins, n in Counter(chain.from_iterable(rec.instructions for rec in records)).items():
        for tok in split(ins):
            counts[tok] = counts.get(tok, 0) + n
    for reserved in (PAD_TOKEN, UNK_TOKEN):
        if reserved in counts:
            warnings.warn(f"corpus contains literal {reserved} token; dropped from vocabulary")
            del counts[reserved]
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_freq),
        key=lambda kv: (-kv[1], kv[0]),
    )
    if not kept:
        warnings.warn("vocabulary is empty apart from reserved tokens")
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + [tok for tok, _ in kept]
    frequencies = [0, 0] + [c for _, c in kept]
    return Vocabulary(id_to_token, frequencies, min_freq=min_freq, delimiters=delimiters)


@dataclass
class EncodedFunction:
    """Fixed-width token-id grid: token_ids [S, K] int32, position_ids [S] int32."""

    token_ids: np.ndarray
    position_ids: np.ndarray

    def __post_init__(self):
        if self.token_ids.ndim != 2 or self.position_ids.ndim != 1:
            raise ValueError("token_ids must be [S, K] and position_ids [S]")
        if self.token_ids.shape[0] != self.position_ids.shape[0]:
            raise ValueError("token_ids and position_ids disagree on instruction count")

    @property
    def n_instructions(self) -> int:
        return self.token_ids.shape[0]


def encode_function(vocab: Vocabulary, instructions,
                    k_tokens: int = DEFAULT_TOKENS_PER_INSTRUCTION,
                    max_positions: int = DEFAULT_MAX_POSITIONS,
                    rows: dict | None = None) -> EncodedFunction:
    """Encode one function: first k tokens of each instruction, PAD-filled.

    `instructions` is a FunctionRecord or any iterable of instruction strings.
    Positions clamp to max_positions - 1. `rows` maps an instruction string
    to its padded id row: a caller that encodes many functions with one
    vocabulary and one k_tokens passes one dict, made for that call, to each,
    so each distinct instruction is split and looked up once.
    """
    if k_tokens < 1 or max_positions < 1:
        raise ValueError("k_tokens and max_positions must be >= 1")
    ins_list = getattr(instructions, "instructions", instructions)
    s = len(ins_list)
    if s == 0:
        raise DataError("cannot encode a function with zero instructions")
    if rows is None:
        rows = {}
    for ins in ins_list:
        if ins not in rows:     # a row is the C ints of its ids, so a grid is one join
            ids = list(map(vocab.id_of, split_instruction(ins, vocab.delimiters)[:k_tokens]))
            rows[ins] = array("i", ids + [PAD_ID] * (k_tokens - len(ids))).tobytes()
    grid = np.frombuffer(b"".join([rows[ins] for ins in ins_list]), dtype=np.intc)
    token_ids = grid.reshape(s, k_tokens).astype(np.int32)
    position_ids = np.minimum(np.arange(s, dtype=np.int32), max_positions - 1)
    return EncodedFunction(token_ids=token_ids, position_ids=position_ids)
