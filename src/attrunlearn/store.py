"""On-disk store of calibrated embedding matrices keyed by content hashes.

Files carry a trailing checksum (first 8 bytes of SHA-256 over header and
payload). ``atomic_write`` publishes every file the package writes through a
temp file private to its writer and a rename, so no reader sees it half-written.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
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


_BOOLS = (bool, np.bool_)  # a bool is only a bool, although Python counts it as an int
# what each declared scalar type takes, and the plain type it is stored as
_SCALARS = {"int": (numbers.Integral, int), "float": (numbers.Real, float),
            "str": (str, str), "bool": (_BOOLS, bool)}


def checked_fields(config, at_least, positive=()) -> None:
    """Check each scalar field of the dataclass ``config`` against its declared
    type and store it as the plain type, so 1, 1.0 and ``np.int64(1)`` in a
    float field hash alike. A float must be finite, a field in ``at_least`` at
    least its bound there and one in ``positive`` above 0; a section field must
    hold its declared dataclass. Each refusal is a ValueError naming the field.
    The value is stored past the frozen dataclass's guard."""
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        if f.type not in _SCALARS:
            if type(value).__name__ != f.type:
                raise ValueError(f"config key {name!r} must be {f.type}, got {value!r}")
            continue
        accepted, plain = _SCALARS[f.type]
        if not isinstance(value, accepted) or isinstance(value, _BOOLS) != (f.type == "bool"):
            raise ValueError(f"config key {name!r} must be {f.type}, got {value!r}")
        try:
            value = plain(value)
        except OverflowError:  # an int too large for a float
            value = float("inf")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"config key {name!r} must be finite, got {value!r}")
        if name in positive and not value > 0:
            raise ValueError(f"config key {name!r} must be > 0, got {value!r}")
        if name in at_least and value < at_least[name]:
            raise ValueError(f"config key {name!r} must be >= {at_least[name]}, got {value!r}")
        object.__setattr__(config, name, value)


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
