"""Run manifests: JSON sidecars recording how an artifact was produced.

Artifacts themselves stay byte-reproducible for identical inputs and seed;
anything wall-clock-dependent (the creation timestamp) lives only here, and
so does what the bits depend on beyond the inputs and seed (the BLAS build,
its thread settings and the CPU).
A manifest sits next to its artifact as `<artifact>.manifest.json`. It records
the SHA-256 of the bytes its command parsed and wrote, never a second look at
the files; every file is written by `write_atomic`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DataError


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_atomic(path, data: bytes) -> str:
    """Write `data` to `path` whole or not at all (a temp file in the same
    directory, then `os.replace`) and return its hex SHA-256. Raises OSError if
    it cannot, naming `path`, not the temp file, and leaving the previous file
    as it was and no temp file behind."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:   # the temp file is gone
            exc.filename, exc.filename2 = path, None
        raise
    return hashlib.sha256(data).hexdigest()


def manifest_path_for(artifact_path) -> str:
    return f"{artifact_path}.manifest.json"


def _entries(files: dict) -> dict:
    return {name: {"path": str(p), "sha256": sha} for name, (p, sha) in files.items()}


def _cpu_model() -> str | None:
    """The first "model name" of /proc/cpuinfo, else the platform's processor
    string, else None."""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    return platform.processor() or None


def _host() -> dict:
    """What an artifact's bits depend on beyond its inputs and seed: the BLAS
    build numpy calls, the thread counts the environment gives it, and the
    CPU, whose features select the BLAS kernels of a DYNAMIC_ARCH build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 takes no mode
        blas = {}
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu": _cpu_model(),
    }


def write_manifest(artifact, command: str, seed=None, config=None,
                   inputs=None, outputs=None) -> dict:
    """Write the sidecar for `artifact` and return its contents. `artifact` and
    the values of `inputs` and `outputs` (role name -> value) are `(path, sha256)`
    pairs: the digests of the bytes the command parsed and wrote. The artifact is
    always recorded under outputs as "artifact". Beside the timestamp it records
    the host the command ran on (`_host`)."""
    doc = {
        "command": command,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "host": _host(),
        "seed": seed,
        "config": config or {},
        "inputs": _entries(inputs or {}),
        "outputs": _entries({"artifact": artifact, **(outputs or {})}),
    }
    write_atomic(manifest_path_for(artifact[0]),
                 (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))
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
