"""Binary tensor and checkpoint files.

Single-tensor format: magic b"PCFT", rank as uint8, one little-endian uint32
per extent, then the row-major float32 payload (little-endian).

Checkpoints (version 2) hold a metadata object and a sequence of named
tensors: magic b"PCFC", uint8 version, a uint32 length and that many bytes
of UTF-8 JSON holding one object, a uint32 entry count, then per entry a
uint16 name length, the UTF-8 name, and a PCFT block. Version 1 files lack
the metadata length and JSON; they are still read, with metadata None.

Each reader reads its file once and parses the bytes in memory: it reads
and checks the 4-byte magic first, so a file of another kind is refused
before the rest of it is read, and then reads the rest in place into one
writable buffer. read_tensor returns its payload as a view of that buffer;
read_checkpoint copies each entry out of it. Readers reject short reads,
payloads or metadata longer than the bytes left in the file, bytes after
the last block, repeated entry names and metadata that is not a UTF-8 JSON
object with FormatError. Checkpoints, and the package's text artifacts
(write_lines), are written to a temp file that then replaces the target.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from .autograd import MAX_RANK, Tensor

TENSOR_MAGIC = b"PCFT"
CHECKPOINT_MAGIC = b"PCFC"
CHECKPOINT_VERSION = 2

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Malformed tensor or checkpoint file."""


def _coerce(array) -> np.ndarray:
    if isinstance(array, Tensor):
        array = array.data
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim > MAX_RANK:
        raise FormatError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
    return arr


class _Reader:
    """A cursor over a file's bytes, read once. The file's magic, which names
    its kind (what), is read and checked before the rest is read. Every size
    is checked against the bytes left before it is sliced, so a corrupt size
    cannot make the reader allocate."""

    def __init__(self, path: PathLike, magic: bytes, what: str):
        with open(path, "rb", buffering=0) as f:
            self.view, self.pos = memoryview(f.read(len(magic))), 0
            self.expect(magic, what)
            # The rest, as large as the file was when opened, is read in
            # place into a writable uint8 array, so a block's payload can be
            # handed out as a view of it rather than copied. (A bytearray
            # would do, but numpy holds a view of one through a memoryview,
            # which costs a small tensor about 250 bytes more.) Unbuffered,
            # so no read-ahead is copied in; a raw read may return short.
            # The rest starts 3 bytes into the array, which puts a tensor
            # file's payload (5 + 4·rank bytes into the file) on a 4-byte
            # boundary, so float32 ops on the view run aligned.
            size = os.fstat(f.fileno()).st_size - len(magic)
            rest = np.empty(3 + max(size, 0), np.uint8)[3:]
            n = 0
            while n < len(rest) and (got := f.readinto(rest[n:])):
                n += got
            self.view, self.pos = rest[:n], 0

    def expect(self, magic: bytes, what: str) -> None:
        got = bytes(self.take(len(magic), f"{what} magic"))
        if got != magic:
            raise FormatError(f"bad {what} magic {got!r}")

    def take(self, n: int, what: str) -> np.ndarray:
        left = len(self.view) - self.pos
        if n > left:
            raise FormatError(f"truncated {what}: needs {n} bytes, {left} left")
        self.pos += n
        return self.view[self.pos - n : self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def end(self) -> None:
        if self.pos != len(self.view):
            raise FormatError("trailing bytes after the last block")


def _encode(array) -> tuple[bytes, np.ndarray]:
    """A PCFT block as its header bytes and its little-endian float32 payload."""
    arr = _coerce(array)
    header = struct.pack(f"<4sB{arr.ndim}I", TENSOR_MAGIC, arr.ndim, *arr.shape)
    return header, np.ascontiguousarray(arr, dtype="<f4")


def _parse(r: _Reader) -> np.ndarray:
    """The PCFT block at the reader's position, after its checked magic, as
    a writable view of the reader's buffer."""
    (rank,) = r.unpack("<B", "tensor rank")
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds maximum {MAX_RANK}")
    shape = r.unpack(f"<{rank}I", "tensor shape")
    payload = r.take(4 * math.prod(shape), f"payload of shape {shape}")
    try:
        return payload.view("<f4").reshape(shape)
    except ValueError as err:
        # A zero extent passes the size check even when the other extents
        # multiply past what numpy can index.
        raise FormatError(f"tensor shape {shape} is not representable ({err})") from None


def write_tensor(path: PathLike, array) -> None:
    blocks = _encode(array)
    with open(path, "wb") as f:
        f.writelines(blocks)


def read_tensor(path: PathLike) -> np.ndarray:
    r = _Reader(path, TENSOR_MAGIC, "tensor")
    arr = _parse(r)
    r.end()
    return arr


def tensor_bytes(array) -> bytes:
    return b"".join(_encode(array))


@contextlib.contextmanager
def atomic_writer(path: PathLike) -> Iterator[BinaryIO]:
    """Open a binary temp file beside path that replaces path once fully written.

    A write that raises leaves path as it was and removes the temp file, so a
    crash never leaves a truncated file under the final name.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(path: PathLike, lines: Iterable[str]) -> None:
    """Write lines as UTF-8 text, each ended by a newline, through atomic_writer."""
    with atomic_writer(path) as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def write_checkpoint(
    path: PathLike, entries: Mapping[str, object], meta: Mapping[str, object]
) -> None:
    """Write a version-2 checkpoint: the JSON object meta, then the entries."""
    blob = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    head = CHECKPOINT_MAGIC + struct.pack("<BI", CHECKPOINT_VERSION, len(blob))
    with atomic_writer(path) as f:
        f.writelines((head, blob, struct.pack("<I", len(entries))))
        for name, array in entries.items():
            encoded = name.encode("utf-8")
            f.writelines((struct.pack("<H", len(encoded)), encoded, *_encode(array)))


def _parse_meta(r: _Reader) -> dict:
    (size,) = r.unpack("<I", "metadata length")
    raw = r.take(size, "metadata")
    try:
        meta = json.loads(str(raw, "utf-8"))
    except UnicodeDecodeError as err:
        raise FormatError(f"metadata is not UTF-8 ({err})") from None
    except ValueError as err:
        raise FormatError(f"metadata is not valid JSON ({err})") from None
    if not isinstance(meta, dict):
        raise FormatError(f"metadata is a JSON {type(meta).__name__}, not an object")
    return meta


def read_checkpoint(
    path: PathLike,
) -> tuple[dict[str, np.ndarray], Optional[dict]]:
    """The named entries and the metadata object (None for a version-1 file)."""
    r = _Reader(path, CHECKPOINT_MAGIC, "checkpoint")
    (version,) = r.unpack("<B", "checkpoint version")
    if version not in (1, CHECKPOINT_VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")
    meta = _parse_meta(r) if version == CHECKPOINT_VERSION else None
    (count,) = r.unpack("<I", "entry count")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "entry name length")
        try:
            name = str(r.take(name_len, "entry name"), "utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"entry name is not UTF-8 ({err})") from None
        if name in entries:
            raise FormatError(f"duplicate entry name {name!r}")
        r.expect(TENSOR_MAGIC, "tensor")
        # A copy, so that no entry keeps the whole file's buffer alive.
        entries[name] = _parse(r).copy()
    r.end()
    return entries, meta
