"""Binary tensor and checkpoint files.

Single-tensor format: magic b"PCFT", rank as uint8, one little-endian uint32
per extent, then the row-major float32 payload (little-endian).

Checkpoints (version 2) hold a metadata object and a sequence of named
tensors: magic b"PCFC", uint8 version, a uint32 length and that many bytes
of UTF-8 JSON holding one object, a uint32 entry count, then per entry a
uint16 name length, the UTF-8 name, and a PCFT block. Version 1 files lack
the metadata length and JSON; they are still read, with metadata None.

Readers reject short reads, payloads or metadata longer than the bytes left
in the file, bytes after the last block, repeated entry names and metadata
that is not a UTF-8 JSON object with FormatError. Checkpoints, and the
package's text artifacts (write_lines), are written to a temp file that
then replaces the target.
"""

from __future__ import annotations

import contextlib
import io
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


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated {what}: expected {n} bytes, got {len(data)}")
    return data


def _unpack(f: BinaryIO, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def _bytes_left(f: BinaryIO) -> int:
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_sized(f: BinaryIO, size: int, what: str) -> bytes:
    # Checked before reading, so a corrupt size cannot make the reader
    # allocate it.
    left = _bytes_left(f)
    if size > left:
        raise FormatError(f"truncated {what}: needs {size} bytes, {left} left")
    return _read_exact(f, size, what)


def _check_end(f: BinaryIO) -> None:
    if f.read(1):
        raise FormatError("trailing bytes after the last block")


def write_tensor_stream(f: BinaryIO, array) -> None:
    arr = _coerce(array)
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<B", arr.ndim))
    for extent in arr.shape:
        f.write(struct.pack("<I", extent))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_tensor_stream(f: BinaryIO) -> np.ndarray:
    magic = f.read(4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    (rank,) = _unpack(f, "<B", "tensor rank")
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds maximum {MAX_RANK}")
    shape = _unpack(f, f"<{rank}I", "tensor shape")
    payload = _read_sized(f, 4 * math.prod(shape), f"payload of shape {shape}")
    try:
        return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    except ValueError as err:
        # A zero extent passes the size check even when the other extents
        # multiply past what numpy can index.
        raise FormatError(f"tensor shape {shape} is not representable ({err})") from None


def write_tensor(path: PathLike, array) -> None:
    with open(path, "wb") as f:
        write_tensor_stream(f, array)


def read_tensor(path: PathLike) -> np.ndarray:
    with open(path, "rb") as f:
        arr = read_tensor_stream(f)
        _check_end(f)
        return arr


def tensor_bytes(array) -> bytes:
    buf = io.BytesIO()
    write_tensor_stream(buf, array)
    return buf.getvalue()


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
    with atomic_writer(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BI", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(entries)))
        for name, array in entries.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            write_tensor_stream(f, array)


def _read_meta(f: BinaryIO) -> dict:
    (size,) = _unpack(f, "<I", "metadata length")
    raw = _read_sized(f, size, "metadata")
    try:
        meta = json.loads(raw.decode("utf-8"))
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
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (version,) = _unpack(f, "<B", "checkpoint version")
        if version not in (1, CHECKPOINT_VERSION):
            raise FormatError(f"unsupported checkpoint version {version}")
        meta = _read_meta(f) if version == CHECKPOINT_VERSION else None
        (count,) = _unpack(f, "<I", "entry count")
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = _unpack(f, "<H", "entry name length")
            raw_name = _read_exact(f, name_len, "entry name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as err:
                raise FormatError(f"entry name is not UTF-8 ({err})") from None
            if name in entries:
                raise FormatError(f"duplicate entry name {name!r}")
            entries[name] = read_tensor_stream(f)
        _check_end(f)
        return entries, meta
