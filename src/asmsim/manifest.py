"""Run manifests: JSON sidecars recording how an artifact was produced.

Artifacts themselves stay byte-reproducible for identical inputs and seed;
anything wall-clock-dependent (the creation timestamp) lives only here.
A manifest sits next to its artifact as `<artifact>.manifest.json`. The
artifact writers and readers share this module's `file_sha256` and `write_atomic`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from datetime import datetime, timezone

from . import __version__
from .errors import DataError


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_atomic(path, data: bytes):
    """Write `data` to `path` whole or not at all: a temp file in the same
    directory, then `os.replace`. Raises OSError if it cannot; the previous
    file is left as it was and no temp file is left behind."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def manifest_path_for(artifact_path) -> str:
    return f"{artifact_path}.manifest.json"


def _hash_entry(path) -> dict:
    return {"path": str(path), "sha256": file_sha256(path)}


def write_manifest(artifact_path, command: str, seed=None, config=None,
                   inputs=None, outputs=None) -> dict:
    """Write the sidecar for `artifact_path` and return its contents.

    `inputs` and `outputs` map role names to file paths; both get hashed.
    The artifact itself is always recorded under outputs as "artifact".
    """
    outs = {"artifact": artifact_path, **(outputs or {})}
    doc = {
        "command": command,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config or {},
        "inputs": {name: _hash_entry(p) for name, p in (inputs or {}).items()},
        "outputs": {name: _hash_entry(p) for name, p in outs.items()},
    }
    with open(manifest_path_for(artifact_path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_manifest(artifact_path) -> dict | None:
    """Sidecar contents for an artifact, or None if it has no manifest; a
    sidecar that is not a JSON object is a DataError."""
    try:
        with open(manifest_path_for(artifact_path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError:                          # not UTF-8, or not JSON
        doc = None
    if not isinstance(doc, dict):
        raise DataError(f"{manifest_path_for(artifact_path)}: manifest is not a JSON object")
    return doc
