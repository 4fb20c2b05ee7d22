"""On-disk store of calibrated embedding matrices keyed by content hashes.

Files carry a trailing checksum (first 8 bytes of SHA-256 over header and
payload). ``atomic_write`` publishes every file the package writes through a
temp file private to its writer and a rename, so no reader sees it half-written.
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
import os
import struct
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"LEGOEMB1"
MANIFEST_NAME = "manifest.json"


def declared_floats(config) -> None:
    """Store each real number in a field of the dataclass ``config`` declared
    ``float`` as a float, so a config written with 1 or 1.0 hashes alike and
    names the same store entries. Other values, bools among them, are left
    for the config's own checks."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and isinstance(value, numbers.Real) and not isinstance(value, bool):
            setattr(config, f.name, float(value))


class StoreError(ValueError):
    """A store file or entry that is missing, corrupt or inconsistent."""


def atomic_write(path, *chunks) -> None:
    """Write the byte buffers ``chunks`` in order to a temp file only this thread
    uses, fsync, rename onto ``path``."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, payload) -> None:
    """``payload`` as indented sorted-key JSON, published by ``atomic_write``."""
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True).encode())


_HEADER_SIZE = len(EMBEDDING_MAGIC) + 8  # magic, u32 n, u32 d
_CHECKSUM_SIZE = 8


def write_embedding_file(path, matrix: np.ndarray) -> None:
    """Header, payload and checksum written straight from their buffers; the
    payload is hashed and written in place, never copied into one blob."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    n, d = matrix.shape
    header = EMBEDDING_MAGIC + struct.pack("<II", n, d)
    checksum = hashlib.sha256(header)
    checksum.update(matrix)
    atomic_write(path, header, matrix, checksum.digest()[:_CHECKSUM_SIZE])


def read_embedding_file(path) -> np.ndarray:
    """The checked matrix, a writable view of the one buffer the file is read into."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        view = memoryview(raw)[: fh.readinto(raw)]
    if len(view) < _HEADER_SIZE + _CHECKSUM_SIZE:
        raise StoreError(f"{path}: truncated")
    if view[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise StoreError(f"{path}: bad magic")
    body = view[:-_CHECKSUM_SIZE]
    if hashlib.sha256(body).digest()[:_CHECKSUM_SIZE] != view[-_CHECKSUM_SIZE:]:
        raise StoreError(f"{path}: checksum mismatch")
    n, d = struct.unpack_from("<II", raw, len(EMBEDDING_MAGIC))
    if len(body) - _HEADER_SIZE != 8 * n * d:
        raise StoreError(f"{path}: payload size mismatch")
    return np.frombuffer(raw, dtype="<f8", count=n * d, offset=_HEADER_SIZE).reshape(n, d)


class EmbeddingStore:
    """Directory of persisted matrices, each in the file its key hashes to.

    Lookups read that file alone. ``manifest.json`` lists the entries for
    ``keys()`` and for outside readers; a put made by another process at the
    same time may drop a line from it, never an entry from the store.
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

    @staticmethod
    def _file_name(key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest()[:24] + ".emb"

    def _load_manifest(self) -> dict:
        """The manifest's entries; one that does not parse counts as empty, so
        the next ``put`` rewrites it (lookups never read it)."""
        path = self.directory / MANIFEST_NAME
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return {}
        except ValueError as exc:  # bad JSON or bad UTF-8
            log.warning("%s does not parse (%s); treating it as empty", path, exc)
            return {}

    def __contains__(self, key: str) -> bool:
        return (self.directory / self._file_name(key)).exists()

    def keys(self) -> list[str]:
        return sorted(self._load_manifest())

    def put(self, key: str, matrix: np.ndarray) -> None:
        fname = self._file_name(key)
        with self._lock:
            write_embedding_file(self.directory / fname, matrix)
            manifest = self._load_manifest()
            manifest[key] = {
                "file": fname,
                "n": int(matrix.shape[0]),
                "d": int(matrix.shape[1]),
            }
            write_json(self.directory / MANIFEST_NAME, manifest)

    def get(self, key: str) -> np.ndarray:
        try:
            return read_embedding_file(self.directory / self._file_name(key))
        except FileNotFoundError:
            raise StoreError(f"missing key {key!r}") from None
