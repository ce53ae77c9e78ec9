"""LDTN binary tensor files.

Layout: magic ``4C 44 54 4E`` ("LDTN"), version byte (1), dtype byte
(0 = float32, 1 = float64), ndim byte, one reserved byte, then ndim
little-endian uint64 dims, then the row-major little-endian payload.
Metadata rides in a sidecar ``<basename>.meta.json``.

This module also holds the one JSON writer and the one CSV writer, so every
artifact's bytes are decided here. Each writer creates the parent directory.
"""
from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError, TensorFormatError, TensorPayloadError

MAGIC = b"LDTN"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def _with_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_tensor(path, array: np.ndarray) -> None:
    """The header, then ``array``'s own buffer; copied only if it is not already
    C-contiguous in the file's dtype (other dtypes are written as float64)."""
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        array = array.astype(np.float64)
    code = _DTYPE_CODES[array.dtype]
    payload = np.ascontiguousarray(array, dtype=_DTYPES[code])
    with open(_with_parent(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION, code, array.ndim, 0]))
        for d in array.shape:
            fh.write(struct.pack("<Q", d))
        fh.write(payload)


def read_tensor(path) -> np.ndarray:
    """The tensor in ``path``, its payload read straight into the returned array."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError as err:
        raise MissingArtifactError(f"{path}: no such file") from err
    with fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise TensorFormatError(
                f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}"
            )
        version, code, ndim, _reserved = head[4:8]
        if version != VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        if code not in _DTYPES:
            raise TensorFormatError(f"{path}: unknown dtype byte {code}")
        dim_bytes = fh.read(8 * ndim)
        if len(dim_bytes) < 8 * ndim:
            raise TensorPayloadError(f"{path}: truncated dimension header")
        dims = struct.unpack(f"<{ndim}Q", dim_bytes)
        dtype = _DTYPES[code]
        expected = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        length = os.fstat(fh.fileno()).st_size - fh.tell()
        if length != expected:
            raise TensorPayloadError(
                f"{path}: payload length {length} does not match "
                f"dims {dims} ({expected} bytes expected)"
            )
        arr = np.empty(dims, dtype=dtype)
        if fh.readinto(arr) != expected:
            raise TensorPayloadError(f"{path}: payload shrank while it was read")
    return arr


def write_json(path, obj) -> None:
    """``obj`` as UTF-8 JSON with sorted keys, a two-space indent and no trailing newline."""
    _with_parent(path).write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """The ``header`` row, then ``rows``, UTF-8 in the csv module's default dialect
    (``\\r\\n`` row ends). Callers format their own values."""
    with open(_with_parent(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_meta(basename, meta: dict) -> None:
    write_json(str(basename) + ".meta.json", meta)


def read_meta(basename, keys=()) -> dict:
    """The sidecar ``<basename>.meta.json``. A missing file raises MissingArtifactError; one
    that is not UTF-8 JSON of an object, or lacks one of ``keys``, raises TensorFormatError."""
    path = Path(str(basename) + ".meta.json")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise MissingArtifactError(f"{path}: no such file") from err
    except UnicodeDecodeError as err:
        raise TensorFormatError(f"{path}: metadata is not UTF-8") from err
    except json.JSONDecodeError as err:
        raise TensorFormatError(f"{path}: metadata is not valid JSON ({err})") from err
    if not isinstance(meta, dict):
        raise TensorFormatError(f"{path}: metadata is not a JSON object")
    missing = [key for key in keys if key not in meta]
    if missing:
        raise TensorFormatError(f"{path}: metadata has no {missing[0]!r} key")
    return meta


def read_fields(cls, entry, where):
    """``cls(**entry)`` for a sidecar object ``entry`` that spells out exactly the dataclass
    ``cls``'s fields with values it accepts; else TensorFormatError naming ``where``."""
    if type(entry) is not dict:
        raise TensorFormatError(f"{where} is not an object")
    wrong = sorted(set(entry) ^ {f.name for f in fields(cls)})
    if wrong:
        state = "unknown" if wrong[0] in entry else "missing"
        raise TensorFormatError(f"{where} has {state} field {wrong[0]!r}")
    try:
        return cls(**entry)
    except (TypeError, ValueError) as err:  # ConfigError is a ValueError
        raise TensorFormatError(f"{where} is unusable ({err})") from err
