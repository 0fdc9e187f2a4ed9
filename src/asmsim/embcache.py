"""Index embedding sidecars: the rows `asmsim search` reuses across calls.

`<index>.embcache` holds the [N, E] float32 rows `Backbone.embed_matrix`
returned for an index dataset under one checkpoint, so a later search of the
same index with the same checkpoint embeds only its query. It is a cache, not
an artifact: it carries no manifest, a search rewrites it whenever it does not
match, and deleting it costs the next search one full index embed.

Layout: magic, version, the SHA-256 of the checkpoint file's bytes (its
config, vocabulary and weights), the SHA-256 of the index file's bytes, N, E
and the byte length of the names, the rows as little-endian row-major
float32, the names as JSON (one [project, binary, function, opt_level] list
per row, which is all a search prints of its index, so a hit never parses
the index), and a SHA-256 trailer over everything before it. A sidecar that
is missing, unreadable, short, corrupt, of another version or under another
key is a miss, never an error. The rows are what the writing code computed,
so a change to how embeddings are computed must bump VERSION.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .manifest import write_atomic

MAGIC = b"ASMSIMX1"
VERSION = 5                 # 5: each row's printed names follow the rows
_HEADER = struct.Struct("<8sI32s32sQIQ")    # magic, version, checkpoint, index, N, E, names
_DIGEST = 32


def sidecar_path(index_path) -> str:
    return f"{index_path}.embcache"


def load_rows(path, key: tuple[bytes, bytes], width: int) -> tuple[np.ndarray, list] | None:
    """The cached [N, width] rows (read-only) and the N rows' names stored
    under `key`, or None on any mismatch."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if len(raw) < _HEADER.size + _DIGEST:
        return None
    if hashlib.sha256(memoryview(raw)[:-_DIGEST]).digest() != raw[-_DIGEST:]:
        return None
    *head, n, e, names_len = _HEADER.unpack_from(raw)
    rows_end = _HEADER.size + 4 * n * e
    if (head != [MAGIC, VERSION, *key] or e != width
            or len(raw) != rows_end + names_len + _DIGEST):
        return None
    try:
        names = json.loads(str(raw[rows_end:rows_end + names_len], "utf-8"))
    except ValueError:                          # not UTF-8, or not JSON
        return None
    if not (isinstance(names, list) and len(names) == n
            and all(isinstance(row, list) and len(row) == 4
                    and all(isinstance(s, str) for s in row) for row in names)):
        return None
    return np.frombuffer(raw, dtype="<f4", count=n * e, offset=_HEADER.size).reshape(n, e), names


def save_rows(path, key: tuple[bytes, bytes], rows: np.ndarray, names: list):
    """Write the sidecar with `write_atomic`; raises OSError if it cannot."""
    rows = np.ascontiguousarray(rows, dtype="<f4")
    names_b = json.dumps(names, separators=(",", ":")).encode("utf-8")
    out = _HEADER.pack(MAGIC, VERSION, *key, *rows.shape, len(names_b))
    out += rows.tobytes() + names_b
    write_atomic(path, out + hashlib.sha256(out).digest())
