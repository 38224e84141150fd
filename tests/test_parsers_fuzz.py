"""Property tests of the two binary parsers: a corrupted checkpoint or SDSH
file either loads, with every value finite, or raises FormatError at an
offset inside the file, never another exception."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samb.tensor as T
from samb.data import Dataset
from samb.errors import FormatError

# fixed examples, so tier-1 stays deterministic; no example database on disk
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)

# values that sit on a parser's edges: empty, one, numpy's rank limits, and
# the largest u32
EDGE_WORDS = [0, 1, 2, 32, 33, 64, 65, 1200, 0x7FFFFFFF, 0xFFFFFFFF]

# f32 bit patterns of a quiet NaN, both infinities, a signalling NaN and a
# negative NaN
NONFINITE_F32 = [0x7FC00000, 0x7F800000, 0xFF800000, 0x7F800001, 0xFFC00000]


def checkpoint_blob() -> tuple[bytes, list[int]]:
    """A checkpoint of rank-0 to rank-3 records, and the offsets of its
    version, name-length, rank and dims words.  The 2400-byte record leaves
    room for a rank word overwritten with a value in the hundreds."""
    rng = np.random.default_rng(0)
    params = {"scalar": T.Tensor(1.5), "b": T.Tensor(rng.standard_normal(7)),
              "block0.w": T.Tensor(rng.standard_normal((20, 15))),
              "t": T.Tensor(rng.standard_normal((2, 3, 4)))}
    blob = b"SAMB" + struct.pack("<I", 1)
    words = [4]
    for name, t in params.items():
        nb = name.encode()
        words.append(len(blob))
        blob += struct.pack("<I", len(nb)) + nb
        words += [len(blob) + 4 * i for i in range(1 + t.ndim)]
        blob += struct.pack(f"<{1 + t.ndim}I", t.ndim, *t.shape)
        blob += t.data.astype("<f8").tobytes()
    return blob, words


def dataset_blob(tmp_path_factory) -> tuple[bytes, list[int], list[int]]:
    """A 3-sample SDSH file, the offsets of its header and label words, and
    those of its pixel words."""
    rng = np.random.default_rng(1)
    images = rng.random((3, 2, 3, 4)).astype(np.float32)
    path = tmp_path_factory.mktemp("fuzz") / "seed.sdsh"
    Dataset(images=images, labels=np.array([0, 2, -1]), domain="source",
            num_classes=3).save(path)
    sample_bytes = 4 + 4 * 2 * 3 * 4
    return (path.read_bytes(),
            [4, 8, 12, 16, 20, 24] + [28 + i * sample_bytes for i in range(3)],
            [28 + i * sample_bytes + 4 + 4 * j for i in range(3) for j in range(24)])


@st.composite
def corrupted(draw, blob: bytes, words: list[int], pixels: list[int] = ()) -> bytes:
    """``blob`` truncated, with bits flipped, with a u32 word overwritten, or
    with one of the f32 ``pixels`` overwritten by a non-finite value."""
    kind = draw(st.sampled_from(["truncate", "flip", "word"] + ["pixel"] * bool(pixels)))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    if kind == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=8)):
            data[bit // 8] ^= 1 << (bit % 8)
    elif kind == "word":
        value = draw(st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2000),
                               st.integers(0, 0xFFFFFFFF)))
        struct.pack_into("<I", data, draw(st.sampled_from(words)), value)
    else:
        struct.pack_into("<I", data, draw(st.sampled_from(pixels)),
                         draw(st.sampled_from(NONFINITE_F32)))
    return bytes(data)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "blob"


def loads_or_reports_offset(load, path, blob: bytes, values):
    """``values`` lists the float arrays of what ``load`` returned."""
    path.write_bytes(blob)
    try:
        loaded = load(path)
    except FormatError as e:
        assert 0 <= e.offset <= len(blob), (e, len(blob))
    else:
        assert all(np.isfinite(v).all() for v in values(loaded))


CHECKPOINT, CHECKPOINT_WORDS = checkpoint_blob()


@FUZZ
@given(blob=corrupted(CHECKPOINT, CHECKPOINT_WORDS))
def test_checkpoint_loads_or_raises_format_error(path, blob):
    loads_or_reports_offset(T.load_checkpoint, path, blob,
                            lambda params: [t.data for t in params.values()])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return dataset_blob(tmp_path_factory)


@FUZZ
@given(data=st.data())
def test_dataset_loads_or_raises_format_error(path, dataset, data):
    blob = data.draw(corrupted(*dataset))
    loads_or_reports_offset(Dataset.load, path, blob, lambda ds: [ds.images])
