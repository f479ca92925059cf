"""Checkpoint container: named parameter arrays in a JSON file.

Arrays are stored as base64-encoded little-endian bytes alongside shape and
dtype, so save -> load -> save round-trips bit-exactly. Every file carries a
format version, arbitrary metadata (resolved run config, model config) and a
content hash over the parameter payload.
"""

import base64
import hashlib

import numpy as np

from .config import canonical_json, check_choice, read_json

FORMAT_VERSION = 1


def _le_bytes(arr):
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr.tobytes()


def params_hash(named_arrays):
    """Content hash over parameter names, shapes, dtypes and raw bytes."""
    h = hashlib.sha256()
    for name in sorted(named_arrays):
        arr = named_arrays[name]
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(_le_bytes(arr))
    return "sha256:" + h.hexdigest()


def save(path, named_arrays, meta=None):
    """Write parameters plus metadata; returns the content hash."""
    payload = {}
    for name, arr in named_arrays.items():
        arr = np.asarray(arr)
        payload[name] = {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "data": base64.b64encode(_le_bytes(arr)).decode("ascii"),
        }
    content_hash = params_hash(named_arrays)
    doc = {
        "format_version": FORMAT_VERSION,
        "content_hash": content_hash,
        "meta": meta or {},
        "params": payload,
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(doc) + "\n")
    return content_hash


def load(path):
    """Read a checkpoint; returns (name -> ndarray, meta dict).

    Arrays come back in their stored dtype; the caller decides whether to
    cast. The payload is verified against the stored content hash.
    """
    doc = read_json(path, "checkpoint")
    check_choice(f"{path}: format_version", doc.get("format_version"), (FORMAT_VERSION,))
    params, meta = doc.get("params"), doc.get("meta", {})
    if not (isinstance(params, dict) and isinstance(meta, dict)):
        raise ValueError(f"{path}: params and meta must be objects")
    named = {}
    for name, entry in params.items():
        try:
            raw = base64.b64decode(entry["data"])
            dtype = np.dtype(entry["dtype"])
            if dtype.byteorder == ">":
                dtype = dtype.newbyteorder("<")
            named[name] = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).copy()
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: parameter {name!r} is malformed "
                             f"({type(e).__name__}: {e})") from None
    if params_hash(named) != doc.get("content_hash"):
        raise ValueError(f"{path}: content hash mismatch, file is corrupt")
    return named, meta
