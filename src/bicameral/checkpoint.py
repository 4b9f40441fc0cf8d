"""Binary checkpoint format for named parameter tensors.

Layout (all integers little-endian):

    magic "BCAM" | u32 format version | u32 config length | config JSON
    u32 record count
    per record: u16 name length | name utf-8 | u8 rank | u32 dim per axis
                | row-major float64 payload
    u64 checksum of all payload bytes, in record order

The checksum is the first eight bytes of the SHA-256 of the concatenated
payloads; the same digest doubles as the parameter checksum used to
assert that a frozen model never changes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"BCAM"
FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def _payload(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def parameter_checksum(named: list[tuple[str, Tensor | np.ndarray]]) -> int:
    """64-bit digest over the payload bytes of ``named`` parameters, in order."""
    h = hashlib.sha256()
    for _, value in named:
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        h.update(_payload(arr))
    return int.from_bytes(h.digest()[:8], "little")


def save_checkpoint(path: str | Path, config: dict,
                    named: list[tuple[str, Tensor | np.ndarray]]) -> None:
    config_bytes = json.dumps(config, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(config_bytes))
    out += config_bytes
    out += struct.pack("<I", len(named))
    for name, value in named:
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        out += struct.pack("<H", len(name_bytes))
        out += name_bytes
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        payload = _payload(arr)
        digest.update(payload)
        out += payload
    out += digest.digest()[:8]
    Path(path).write_bytes(bytes(out))


def load_named(named: list[tuple[str, Tensor]], values: dict[str, np.ndarray],
               prefix: str = "") -> None:
    """Copy ``values[prefix + name]`` into each named parameter, in place.

    A missing record, one whose shape differs from the parameter's, or one
    holding a NaN or an infinity makes the checkpoint unusable for the
    model it is loaded into.
    """
    for name, param in named:
        key = prefix + name
        if key not in values:
            raise CheckpointError(f"checkpoint is missing parameter {key!r}")
        arr = values[key]
        if arr.shape != param.shape:
            raise CheckpointError(f"parameter {key!r} has shape {arr.shape}, "
                                  f"expected {param.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {key!r} holds non-finite values")
        param.data = arr.astype(np.float64).copy()


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    checksum: int


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint file")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint {what} is not UTF-8: {exc}") from exc

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} is not "
                              f"supported (expected {FORMAT_VERSION})")
    try:
        config = json.loads(reader.text(reader.u32(), "config block"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: config block is not JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config block is not a JSON object")
    count = reader.u32()
    digest = hashlib.sha256()
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.text(reader.u16(), "record name")
        rank = reader.u8()
        shape = tuple(reader.u32() for _ in range(rank))
        n_bytes = int(np.prod(shape, dtype=np.int64)) * 8
        payload = reader.take(n_bytes)
        digest.update(payload)
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    stored = int.from_bytes(reader.take(8), "little")
    actual = int.from_bytes(digest.digest()[:8], "little")
    if stored != actual:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    return Checkpoint(config=config, params=params, checksum=actual)
