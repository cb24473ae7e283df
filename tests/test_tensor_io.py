"""Binary tensor / checkpoint format tests: layout bytes, round trips, errors."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfusion.autograd import MAX_RANK, Tensor
from factfusion.tensor_io import (
    CHECKPOINT_MAGIC,
    TENSOR_MAGIC,
    FormatError,
    atomic_writer,
    read_checkpoint,
    read_tensor,
    tensor_bytes,
    write_checkpoint,
    write_tensor,
)


META = {"config": {"d": 4, "out_dir": "runs/é"}, "best_epoch": 2, "best_f1": 0.5}


def huge_header(shape) -> bytes:
    """A PCFT header declaring `shape`, without its payload."""
    return TENSOR_MAGIC + struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def v1_blob(*entries: bytes) -> bytes:
    """A version-1 checkpoint (no metadata block) holding the given entries."""
    return CHECKPOINT_MAGIC + struct.pack("<BI", 1, len(entries)) + b"".join(entries)


def v2_blob(meta_bytes: bytes) -> bytes:
    """A version-2 checkpoint with the given metadata bytes and no entries."""
    return (
        CHECKPOINT_MAGIC + struct.pack("<BI", 2, len(meta_bytes)) + meta_bytes
        + struct.pack("<I", 0)
    )


def named(name: bytes, array) -> bytes:
    return struct.pack("<H", len(name)) + name + tensor_bytes(array)


# Metadata for the fuzz tests: always some non-ASCII text, plus a few
# arbitrary string keys and values.
fuzz_meta = st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2).map(
    lambda extra: {**extra, "tag": "ü✓"}
)


class TestTensorLayout:
    def test_exact_bytes_for_2x2(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        blob = tensor_bytes(arr)
        expected = (
            b"PCFT"
            + struct.pack("<B", 2)
            + struct.pack("<I", 2)
            + struct.pack("<I", 2)
            + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        )
        assert blob == expected

    def test_row_major_payload_order(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        blob = tensor_bytes(arr)
        payload = np.frombuffer(blob[4 + 1 + 8 :], dtype="<f4")
        np.testing.assert_array_equal(payload, [0, 1, 2, 3, 4, 5])

    def test_scalar_rank_zero(self):
        blob = tensor_bytes(np.float32(7.5))
        assert blob == b"PCFT" + struct.pack("<B", 0) + struct.pack("<f", 7.5)

    def test_accepts_tensor_objects(self):
        t = Tensor.constant([1.0, 2.0])
        blob = tensor_bytes(t)
        assert blob[:4] == TENSOR_MAGIC

    def test_float64_downcast_to_f4(self):
        arr = np.array([1.5], dtype=np.float64)
        blob = tensor_bytes(arr)
        assert len(blob) == 4 + 1 + 4 + 4


class TestTensorRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.array(3.25, dtype=np.float32),
            np.array([1.0, -2.5, 1e-6], dtype=np.float32),
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.arange(24, dtype=np.float32).reshape(2, 3, 4),
            np.zeros((0,), dtype=np.float32),
            np.zeros((2, 0), dtype=np.float32),
        ],
    )
    def test_round_trip(self, tmp_path, arr):
        path = tmp_path / "t.pcft"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == arr.shape
        assert back.flags.aligned and back.flags.writeable
        np.testing.assert_array_equal(back, arr)

    def test_round_trip_preserves_special_values(self, tmp_path):
        arr = np.array(
            [np.inf, -np.inf, 0.0, -0.0, np.finfo(np.float32).tiny],
            dtype=np.float32,
        )
        path = tmp_path / "t.pcft"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_random_shapes(self, tmp_path_factory, shape, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path_factory.mktemp("rt") / "t.pcft"
        write_tensor(path, arr)
        assert path.read_bytes() == tensor_bytes(arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_rank_limit_enforced_on_write(self, tmp_path):
        with pytest.raises(FormatError, match="rank"):
            write_tensor(tmp_path / "bad.pcft", np.zeros((1, 1, 1, 1)))

    def test_read_holds_one_payload(self, tmp_path):
        arr = np.random.default_rng(17).standard_normal((1024, 4096)).astype(np.float32)
        path = tmp_path / "big.pcft"
        write_tensor(path, arr)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * arr.nbytes
        np.testing.assert_array_equal(back, arr)

    def test_checkpoint_entries_do_not_share_the_file_buffer(self, tmp_path):
        path = tmp_path / "c.pcfc"
        write_checkpoint(path, {"a": np.ones((2, 3)), "b": np.zeros(4)}, META)
        entries, _ = read_checkpoint(path)
        for name, value in entries.items():
            assert value.flags.owndata and value.flags.writeable, name


class TestTensorErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcft"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.arange(8, dtype=np.float32)
        full = tensor_bytes(arr)
        path = tmp_path / "trunc.pcft"
        path.write_bytes(full[:-5])
        with pytest.raises(FormatError, match="truncated"):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.pcft"
        path.write_bytes(tensor_bytes(np.ones(2)) + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_tensor(path)

    @pytest.mark.parametrize("shape", [(2**31,), (2**32 - 1,) * 3])
    def test_oversized_extent_rejected_before_reading(self, tmp_path, shape):
        path = tmp_path / "huge.pcft"
        path.write_bytes(huge_header(shape) + b"\x00" * 16)
        with pytest.raises(FormatError, match="truncated payload"):
            read_tensor(path)

    def test_unrepresentable_zero_size_shape_rejected(self, tmp_path):
        path = tmp_path / "zero.pcft"
        path.write_bytes(huge_header((0, 2**32 - 1, 2**32 - 1)))
        with pytest.raises(FormatError, match="not representable"):
            read_tensor(path)

    def test_excessive_rank_in_header(self, tmp_path):
        path = tmp_path / "rank.pcft"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<B", 9))
        with pytest.raises(FormatError, match="rank 9"):
            read_tensor(path)


class TestForeignFiles:
    """A file of another kind is refused after its magic, unread beyond it."""

    READERS = [(read_tensor, "tensor"), (read_checkpoint, "checkpoint")]

    @pytest.mark.parametrize("reader, what", READERS)
    def test_refused_before_the_rest_is_read(self, tmp_path, reader, what):
        path = tmp_path / "foreign.bin"
        blob = np.random.default_rng(16).bytes(16 * 2**20)
        assert blob[:4] not in (TENSOR_MAGIC, CHECKPOINT_MAGIC)
        path.write_bytes(blob)
        del blob
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"bad {what} magic"):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("reader, what", READERS)
    def test_file_shorter_than_its_magic(self, tmp_path, reader, what):
        path = tmp_path / "short.bin"
        path.write_bytes(b"PC")
        with pytest.raises(FormatError) as err:
            reader(path)
        assert str(err.value) == f"truncated {what} magic: needs 4 bytes, 2 left"


class TestCheckpoint:
    def test_round_trip_preserves_names_and_order(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {
            "embed.CT.W": rng.standard_normal((4, 3)).astype(np.float32),
            "embed.CT.b": np.zeros(3, dtype=np.float32),
            "head.Wz2": rng.standard_normal((3, 5)).astype(np.float32),
        }
        path = tmp_path / "ckpt.pcfc"
        write_checkpoint(path, entries, META)
        back, meta = read_checkpoint(path)
        assert list(back.keys()) == list(entries.keys())
        for name, arr in entries.items():
            np.testing.assert_array_equal(back[name], arr)
        assert meta == META

    def test_accepts_tensor_values(self, tmp_path):
        path = tmp_path / "ckpt.pcfc"
        write_checkpoint(path, {"w": Tensor.param([[1.0, 2.0]])}, {})
        back, _ = read_checkpoint(path)
        np.testing.assert_array_equal(back["w"], [[1.0, 2.0]])

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.pcfc"
        write_checkpoint(path, {}, {})
        assert read_checkpoint(path) == ({}, {})

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.pcfc"
        write_checkpoint(path, {"ab": np.zeros(1, dtype=np.float32)}, {"é": 1})
        blob = path.read_bytes()
        meta = '{"é": 1}'.encode("utf-8")
        assert blob[:4] == CHECKPOINT_MAGIC
        assert blob[4] == 2  # version
        assert struct.unpack("<I", blob[5:9])[0] == len(meta) == 9
        assert blob[9:18] == meta
        assert struct.unpack("<I", blob[18:22])[0] == 1  # entry count
        assert struct.unpack("<H", blob[22:24])[0] == 2  # name length
        assert blob[24:26] == b"ab"
        assert blob[26:] == tensor_bytes(np.zeros(1, dtype=np.float32))

    def test_reads_version_1_without_metadata(self, tmp_path):
        path = tmp_path / "v1.pcfc"
        path.write_bytes(v1_blob(named(b"w", np.ones(2)), named(b"b", np.zeros(1))))
        entries, meta = read_checkpoint(path)
        assert meta is None
        assert list(entries) == ["w", "b"]
        np.testing.assert_array_equal(entries["w"], np.ones(2))

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "u.pcfc"
        write_checkpoint(path, {"pé": np.ones(2, dtype=np.float32)}, {})
        assert "pé" in read_checkpoint(path)[0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcfc"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v3.pcfc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<BI", 3, 0))
        with pytest.raises(FormatError, match="version 3"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pcfc"
        write_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, META)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(path)

    def test_duplicate_entry_name_rejected(self, tmp_path):
        entry = named(b"w", np.ones(1))
        path = tmp_path / "dup.pcfc"
        path.write_bytes(v1_blob(entry, entry))
        with pytest.raises(FormatError, match="duplicate"):
            read_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2**31,), (2**32 - 1,) * 3])
    def test_oversized_extent_rejected_before_reading(self, tmp_path, shape):
        path = tmp_path / "huge.pcfc"
        path.write_bytes(
            v1_blob(struct.pack("<H", 1) + b"w" + huge_header(shape) + b"\x00" * 16)
        )
        with pytest.raises(FormatError, match="truncated payload"):
            read_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "name.pcfc"
        path.write_bytes(v1_blob(named(b"\xff", np.ones(1))))
        with pytest.raises(FormatError, match="UTF-8"):
            read_checkpoint(path)


class TestCheckpointMetadata:
    def test_non_ascii_round_trip(self, tmp_path):
        meta = {"config": {"out_dir": "runs/naïve ✓"}, "ключ": ["日本", 1.5, None]}
        path = tmp_path / "m.pcfc"
        write_checkpoint(path, {}, meta)
        assert read_checkpoint(path)[1] == meta

    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "m.pcfc"
        write_checkpoint(path, {}, {"best_f1": 0.27999999999999997})
        assert read_checkpoint(path)[1]["best_f1"] == 0.27999999999999997

    def test_oversized_length_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.pcfc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<BI", 2, 2**32 - 1) + b"{}")
        with pytest.raises(FormatError, match="truncated metadata: needs 4294967295"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b'{"a": "\xff"}', "not UTF-8"),
            (b'{"a": ', "not valid JSON"),
            (b"", "not valid JSON"),
            (b"[1, 2]", "JSON list, not an object"),
            (b'"text"', "JSON str, not an object"),
            (b"null", "JSON NoneType, not an object"),
        ],
    )
    def test_malformed_metadata_rejected(self, tmp_path, raw, match):
        path = tmp_path / "bad.pcfc"
        path.write_bytes(v2_blob(raw))
        with pytest.raises(FormatError, match=match):
            read_checkpoint(path)


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_previous(self, tmp_path):
        path = tmp_path / "best.pcfc"
        write_checkpoint(path, {"a": np.ones((2, 2))}, {"epoch": 1})
        # The second entry is rejected after the first has been written.
        with pytest.raises(FormatError, match="rank"):
            write_checkpoint(
                path,
                {"a": np.zeros((2, 2)), "b": np.zeros((1,) * (MAX_RANK + 1))},
                {"epoch": 2},
            )
        entries, meta = read_checkpoint(path)
        np.testing.assert_array_equal(entries["a"], np.ones((2, 2)))
        assert meta == {"epoch": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["best.pcfc"]

    def test_interrupted_writer_keeps_previous(self, tmp_path):
        path = tmp_path / "best.pcfc"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as f:
                f.write(b"half")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestCheckpointTruncation:
    @settings(max_examples=20, deadline=None)
    @given(
        shapes=st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3),
        meta=st.one_of(st.none(), fuzz_meta),
    )
    def test_every_truncation_raises_format_error(self, tmp_path_factory, shapes, meta):
        names = ("embed.W", "pé", "head.b")
        entries = {
            name: np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            for name, shape in zip(names, shapes)
        }
        path = tmp_path_factory.mktemp("cut") / "ckpt.pcfc"
        if meta is None:
            path.write_bytes(v1_blob(*(named(n.encode(), a) for n, a in entries.items())))
        else:
            write_checkpoint(path, entries, meta)
        blob = path.read_bytes()
        back, back_meta = read_checkpoint(path)
        assert list(back) == list(entries) and back_meta == meta
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_checkpoint(path)


class TestTensorTruncation:
    @settings(max_examples=30, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), max_size=MAX_RANK))
    def test_every_truncation_raises_format_error(self, tmp_path_factory, shape):
        arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        path = tmp_path_factory.mktemp("cut") / "t.pcft"
        write_tensor(path, arr)
        blob = path.read_bytes()
        np.testing.assert_array_equal(read_tensor(path), arr)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_tensor(path)


class TestCheckpointBitFlips:
    @settings(max_examples=10, deadline=None)
    @given(
        shapes=st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=2),
        meta=fuzz_meta,
    )
    def test_every_bit_flip_loads_or_raises_format_error(
        self, tmp_path_factory, shapes, meta
    ):
        entries = {
            name: np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            for name, shape in zip(("embed.W", "pé"), shapes)
        }
        path = tmp_path_factory.mktemp("flip") / "ckpt.pcfc"
        write_checkpoint(path, entries, meta)
        blob = bytearray(path.read_bytes())
        for offset in range(len(blob)):
            for bit in range(8):
                blob[offset] ^= 1 << bit
                path.write_bytes(blob)
                blob[offset] ^= 1 << bit
                try:
                    read_checkpoint(path)
                except FormatError:
                    pass
