"""Versioned model container (format srr-model-v2).

Layout, byte for byte:

    magic line      b"srr-model-v2\\n"
    header length   8-byte little-endian unsigned integer
    header          canonical JSON (sorted keys, compact separators, UTF-8):
                    {"kind", "hyper",
                     "tensors": [{"name", "rows", "cols", "vector"}, ...]}
                    (deserialize ignores any other key)
    payload         each tensor's C-order float64 little-endian bytes,
                    in header order

Every numeric parameter lives in a named tensor; forest trees are packed as
(tree nodes x 7) tables (see baselines). Serialization round-trips
bit-exactly: deserialize(serialize(s)) compares equal array by array.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ..config import MODEL_KINDS
from ..errors import DataError

MODEL_FORMAT = "srr-model-v2"
NOT_WEIGHTS = ("feature_importance",)  # tensors that parameter_count leaves out

__all__ = ["ModelState", "MODEL_FORMAT", "serialize", "deserialize", "parameter_count"]


@dataclass
class ModelState:
    """A trained (or freshly initialized) model of any supported kind."""

    kind: str
    params: dict[str, np.ndarray]
    hyper: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        self.params = {
            name: np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            for name, arr in self.params.items()
        }


def parameter_count(state: ModelState) -> int:
    """Number of trainable scalar parameters (the tensors of NOT_WEIGHTS excluded)."""
    return int(sum(v.size for k, v in state.params.items() if k not in NOT_WEIGHTS))


def serialize(state: ModelState) -> bytes:
    names = sorted(state.params)
    tensors = []
    payload = bytearray()
    for name in names:
        arr = state.params[name]
        mat = arr.reshape(1, -1) if arr.ndim == 1 else arr
        if mat.ndim != 2:
            raise DataError(f"tensor {name} has rank {arr.ndim}; only 1-D/2-D supported")
        tensors.append({"name": name, "rows": int(mat.shape[0]), "cols": int(mat.shape[1]),
                        "vector": arr.ndim == 1})
        payload.extend(np.ascontiguousarray(mat, dtype="<f8").tobytes())
    header = {
        "kind": state.kind,
        "hyper": state.hyper,
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out.extend(MODEL_FORMAT.encode("ascii") + b"\n")
    out.extend(struct.pack("<Q", len(head)))
    out.extend(head)
    out.extend(payload)
    return bytes(out)


def _check_header(header) -> None:
    """Raise ValueError unless ``header`` is an object with each key that
    deserialize reads, of the type it reads."""
    if not isinstance(header, dict):
        raise ValueError(f"a JSON {type(header).__name__}, not an object")
    for key, kind in (("kind", str), ("hyper", dict), ("tensors", list)):
        if not isinstance(header.get(key), kind):
            raise ValueError(f"{key!r} is missing or not a {kind.__name__}")
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and all(
                type(entry.get(dim)) is int and entry[dim] >= 0 for dim in ("rows", "cols"))):
            raise ValueError(f"tensor entry {entry!r} lacks a name or non-negative "
                             "integer rows and cols")


def deserialize(blob: bytes) -> ModelState:
    magic = MODEL_FORMAT.encode("ascii") + b"\n"
    if not blob.startswith(magic):
        raise DataError(f"not an {MODEL_FORMAT} container (bad magic)")
    off = len(magic)
    if len(blob) < off + 8:
        raise DataError("truncated model container (no header length)")
    (head_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) < off + head_len:
        raise DataError("truncated model container (header)")
    try:
        header = json.loads(blob[off:off + head_len].decode("utf-8"))
        _check_header(header)
    except ValueError as exc:  # bad UTF-8, bad JSON, or a header of the wrong shape
        raise DataError(f"corrupted model container (header: {exc})") from None
    off += head_len
    params = {}
    for entry in header["tensors"]:
        rows, cols = entry["rows"], entry["cols"]
        nbytes = rows * cols * 8
        if len(blob) < off + nbytes:
            raise DataError(f"truncated model container (tensor {entry['name']})")
        arr = np.frombuffer(blob[off:off + nbytes], dtype="<f8").astype(np.float64).reshape(rows, cols)
        if entry.get("vector"):
            arr = arr.reshape(-1)
        params[entry["name"]] = arr
        off += nbytes
    if off != len(blob):
        raise DataError("trailing bytes after the last tensor")
    return ModelState(kind=header["kind"], params=params, hyper=header["hyper"])
