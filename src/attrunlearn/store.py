"""On-disk store of calibrated embedding matrices keyed by content hashes.

Files carry a trailing checksum (first 8 bytes of SHA-256 over header and
payload); all writes go through atomic renames so a killed run cannot leave a
manifest that points at half-written data.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np

EMBEDDING_MAGIC = b"LEGOEMB1"
MANIFEST_NAME = "manifest.json"


class StoreError(ValueError):
    """A store file or entry that is missing, corrupt or inconsistent."""


def _checksum(blob: bytes) -> bytes:
    return hashlib.sha256(blob).digest()[:8]


def write_embedding_file(path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    n, d = matrix.shape
    blob = EMBEDDING_MAGIC + struct.pack("<II", n, d) + matrix.tobytes()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob + _checksum(blob))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_embedding_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(EMBEDDING_MAGIC) + 8 + 8:
        raise StoreError(f"{path}: truncated")
    blob, check = raw[:-8], raw[-8:]
    if blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise StoreError(f"{path}: bad magic")
    if _checksum(blob) != check:
        raise StoreError(f"{path}: checksum mismatch")
    n, d = struct.unpack("<II", blob[len(EMBEDDING_MAGIC) : len(EMBEDDING_MAGIC) + 8])
    data = np.frombuffer(blob[len(EMBEDDING_MAGIC) + 8 :], dtype="<f8")
    if data.size != n * d:
        raise StoreError(f"{path}: payload size mismatch")
    return data.reshape(n, d).copy()


class EmbeddingStore:
    """Directory of persisted matrices with a JSON manifest index.

    Safe for concurrent readers; writers serialize on an in-process lock and
    publish via atomic rename (file first, manifest second).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    @staticmethod
    def key(U0: np.ndarray, entries, config_hash: str) -> dict[str, str]:
        """``<content>__<name>__<config_hash>`` per (name, labels, cardinality) entry,
        where ``<content>`` hashes U0's shape and bytes, the labels and the cardinality."""
        base = hashlib.sha256(np.int64(U0.shape).tobytes())
        base.update(np.ascontiguousarray(U0, dtype="<f8"))
        keys = {}
        for name, labels, cardinality in entries:
            h = base.copy()
            h.update(np.ascontiguousarray(labels, dtype="<i8"))
            h.update(np.int64(cardinality).tobytes())
            keys[name] = f"{h.hexdigest()[:16]}__{name}__{config_hash}"
        return keys

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            return {}
        with open(path) as fh:
            return json.load(fh)

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self._manifest_path().with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path())

    def __contains__(self, key: str) -> bool:
        entry = self._load_manifest().get(key)
        return entry is not None and (self.directory / entry["file"]).exists()

    def keys(self) -> list[str]:
        return sorted(self._load_manifest())

    def put(self, key: str, matrix: np.ndarray) -> None:
        fname = hashlib.sha256(key.encode()).hexdigest()[:24] + ".emb"
        with self._lock:
            write_embedding_file(self.directory / fname, matrix)
            manifest = self._load_manifest()
            manifest[key] = {
                "file": fname,
                "n": int(matrix.shape[0]),
                "d": int(matrix.shape[1]),
            }
            self._write_manifest(manifest)

    def get(self, key: str) -> np.ndarray:
        entry = self._load_manifest().get(key)
        if entry is None:
            raise StoreError(f"missing key {key!r}")
        matrix = read_embedding_file(self.directory / entry["file"])
        if matrix.shape != (entry["n"], entry["d"]):
            raise StoreError(f"{key!r}: manifest shape disagrees with file")
        return matrix
