"""Bounds-checked little-endian reader shared by the RSDB, RSDE and RSCK
loaders, and the named-block codec of RSDE and RSCK. Every fault raises
FormatError naming what was being read and the byte offset where it starts,
so a loader never lets a `struct.error` or an oversized allocation out of a
short or corrupted file. The saver refuses, with DomainError, a block that
its loader would reject. Every artifact and JSON output is written by
`replace_file`, so a failed write leaves the previous file whole.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(f"truncated payload reading {what} at byte {self.offset}")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def header(self, magic: bytes, version: int) -> None:
        """Magic at byte 0, then a u16 format version."""
        got = bytes(self.take(len(magic), "magic"))  # so that a bytearray's magic prints as bytes
        if got != magic:
            raise FormatError(f"bad magic {got!r} at byte 0, expected {magic!r}")
        found = self.u16("version")
        if found != version:
            raise FormatError(f"unsupported {magic.decode()} version {found} at byte {len(magic)}")

    def need(self, n: int, what: str) -> None:
        """Fail unless at least n bytes remain; called before allocating for them."""
        have = len(self.data) - self.offset
        if have < n:
            raise FormatError(
                f"truncated payload: {what} need {n} bytes at byte {self.offset}, {have} remain"
            )

    def end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(f"trailing {len(self.data) - self.offset} bytes at byte {self.offset}")

    def f32_block(self, shape: tuple, what: str) -> np.ndarray:
        """A float32 parameter block widened to float64; rejects NaN and Inf,
        which no saver writes."""
        start = self.offset
        count = int(np.prod(shape))
        block = np.frombuffer(self.take(4 * count, what), dtype="<f4").astype(np.float64)
        finite = np.isfinite(block)
        if not finite.all():
            bad = start + 4 * int(np.argmin(finite))
            raise FormatError(f"non-finite value in {what} at byte {bad}")
        return block.reshape(shape)


def write_blocks(path, header: bytes, named) -> None:
    """`header`, then each (name, tensor) block as little-endian float32, in
    order. A value that is not finite as float32 (NaN, infinity, or beyond
    float32's range) raises DomainError naming its block before the file is
    opened, since `f32_block` would reject it."""
    blocks = []
    with np.errstate(over="ignore"):
        for name, tensor in named:
            block = tensor.value.astype("<f4")
            if not np.isfinite(block).all():
                raise DomainError(f"parameter block {name} holds a value that is not finite as float32")
            blocks.append(block.tobytes())
    replace_file(path, header + b"".join(blocks))


def replace_file(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`: a write that fails (a full disk, a crash) leaves the previous
    file as it was, and the temporary file is removed. A symlink keeps
    naming its file; a pipe or device (`/dev/stdout`) is written in place,
    as renaming over it would replace the device itself."""
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def fill_blocks(reader: Reader, named) -> None:
    """Read the rest of the payload into the (name, tensor) blocks in order,
    each at its tensor's shape. The bytes of every block are checked to be
    there before any is allocated, and none may trail the last."""
    reader.need(4 * sum(math.prod(t.value.shape) for _, t in named), "parameter blocks")
    for name, tensor in named:
        tensor.value = reader.f32_block(tensor.value.shape, name)
    reader.end()
