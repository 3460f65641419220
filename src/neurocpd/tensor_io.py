"""On-disk tensor formats and the sidecar metadata record.

Text format::

    line 1:  order N
    line 2:  N dimension sizes
    rest:    whitespace-separated values, first index fastest

Binary format: 8-byte magic ``NCPDTNSR``, then order and dimensions as
little-endian u64, then the payload as little-endian f64 in the same
first-index-fastest order.

Sidecar metadata is ``key = value`` per line, written next to a generated
tensor as ``<path>.meta``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"NCPDTNSR"


def _validate_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ValueError(f"invalid tensor dimensions {dims}")
    return dims


def save_tensor_txt(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    flat = t.ravel(order="F")
    with open(path, "w") as fh:
        fh.write(f"{t.ndim}\n")
        fh.write(" ".join(str(d) for d in t.shape) + "\n")
        for start in range(0, flat.size, 8):
            fh.write(" ".join(repr(float(v)) for v in flat[start : start + 8]) + "\n")


def load_tensor_txt(path) -> np.ndarray:
    try:  # undecodable bytes, or a token that is not a number
        tokens = Path(path).read_text().split()
        if not tokens:
            raise ValueError("empty tensor file")
        order = int(tokens[0])
        dims = _validate_dims(tokens[1 : 1 + order])
        values = np.array([float(v) for v in tokens[1 + order :]], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(dims) != order:
        raise ValueError(f"{path}: expected {order} dimensions")
    return _payload(path, values, dims)


def save_tensor_bin(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(t.ravel(order="F").astype("<f8").tobytes())


def load_tensor_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a tensor file")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated header, no tensor order")
    (order,) = struct.unpack_from("<Q", raw, 8)
    header = 16 + 8 * order
    if len(raw) < header:
        raise ValueError(f"{path}: truncated header, expected {order} dimensions")
    dims = _validate_dims(struct.unpack_from(f"<{order}Q", raw, 16))
    return _payload(path, np.frombuffer(raw, dtype="<f8", offset=header), dims)


def _payload(path, values: np.ndarray, dims) -> np.ndarray:
    """Checked float64 tensor from first-index-fastest values, copied into
    row-major order, the layout the kernels contract without a copy."""
    expected = int(np.prod(dims))
    if values.size != expected:
        raise ValueError(f"{path}: expected {expected} values, found {values.size}")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: tensor contains non-finite values")
    if (values < 0).any():
        raise ValueError(f"{path}: tensor contains negative values")
    return np.array(values.reshape(dims, order="F"), dtype=np.float64, order="C")


def save_tensor(path, t: np.ndarray) -> None:
    """Dispatch on suffix: ``.bin`` is binary, anything else is text."""
    if str(path).endswith(".bin"):
        save_tensor_bin(path, t)
    else:
        save_tensor_txt(path, t)


def load_tensor(path) -> np.ndarray:
    if str(path).endswith(".bin"):
        return load_tensor_bin(path)
    return load_tensor_txt(path)


def write_metadata(path, entries: dict) -> None:
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def read_metadata(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
