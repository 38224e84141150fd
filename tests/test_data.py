import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from samb.data import (Dataset, SyntheticSpec, batch_iter, generate)
from samb.errors import ConfigError, FormatError


def tiny_spec(**kw):
    defaults = dict(num_classes=4, train_per_class=5, eval_per_class=3,
                    image_size=16, seed=7)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestGenerate:
    def test_shapes_and_labels(self):
        splits = generate(tiny_spec())
        assert set(splits) == {"source_train", "source_eval",
                               "target_train", "target_eval"}
        st = splits["source_train"]
        assert st.images.shape == (20, 3, 16, 16)
        assert st.images.dtype == np.float32
        assert np.bincount(st.labels, minlength=4).tolist() == [5, 5, 5, 5]
        assert splits["target_eval"].images.shape == (12, 3, 16, 16)

    def test_pixels_in_unit_range(self):
        for ds in generate(tiny_spec()).values():
            assert ds.images.min() >= 0.0
            assert ds.images.max() <= 1.0

    def test_byte_identical_determinism(self):
        a = generate(tiny_spec())
        b = generate(tiny_spec())
        for key in a:
            assert a[key].images.tobytes() == b[key].images.tobytes()
            assert np.array_equal(a[key].labels, b[key].labels)

    def test_seed_changes_pixels(self):
        a = generate(tiny_spec(seed=1))["source_train"]
        b = generate(tiny_spec(seed=2))["source_train"]
        assert a.images.tobytes() != b.images.tobytes()

    def test_domains_differ_and_zero_shift_statistics(self):
        shifted = generate(tiny_spec())
        assert (shifted["source_train"].images.tobytes()
                != shifted["target_train"].images.tobytes())
        # with every shift knob at zero the two domains draw from the same
        # distribution, so per-class pixel means must agree closely
        flat = generate(tiny_spec(brightness_delta=0.0, texture_id=0,
                                  noise_sigma=0.0, hue_rotation=0.0,
                                  train_per_class=40))
        src, tgt = flat["source_train"], flat["target_train"]
        for k in range(4):
            ms = src.images[src.labels == k].mean()
            mt = tgt.images[tgt.labels == k].mean()
            assert abs(ms - mt) < 0.02

    def test_class_conditional_means_differ(self):
        # different glyphs must leave different footprints
        ds = generate(tiny_spec(train_per_class=20))["source_train"]
        means = [ds.images[ds.labels == k].mean(axis=0) for k in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(means[a] - means[b]).max() > 0.05

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            tiny_spec(num_classes=9)


class TestSdshFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate(tiny_spec())["target_train"]
        path = tmp_path / "d.sdsh"
        ds.save(path)
        loaded = Dataset.load(path, domain="target")
        assert loaded.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == 4
        assert loaded.domain == "target"

    def test_unlabeled_round_trip(self, tmp_path):
        ds = generate(tiny_spec())["target_train"].without_labels()
        path = tmp_path / "u.sdsh"
        ds.save(path)
        assert Dataset.load(path).labels is None

    def test_empty_split_loads_labelled(self, tmp_path):
        ds = generate(tiny_spec())["target_eval"]
        path = tmp_path / "e.sdsh"
        Dataset(images=ds.images[:0], labels=None, domain="target",
                num_classes=4).save(path)
        loaded = Dataset.load(path, domain="target")
        assert len(loaded) == 0
        assert loaded.labels.dtype == np.int64 and loaded.labels.shape == (0,)

    def test_golden_header_layout(self, tmp_path):
        ds = generate(tiny_spec(train_per_class=1, num_classes=1))["source_train"]
        path = tmp_path / "g.sdsh"
        ds.save(path)
        blob = path.read_bytes()
        assert blob[:4] == b"SDSH"
        header = np.frombuffer(blob[4:28], dtype="<u4")
        assert header.tolist() == [1, 1, 3, 16, 16, 1]
        assert len(blob) == 28 + 1 * (4 + 4 * 3 * 16 * 16)
        first_label = int(np.frombuffer(blob[28:32], dtype="<u4")[0])
        assert first_label == 0

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.sdsh"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError) as ei:
            Dataset.load(path)
        assert ei.value.offset == 0

    def test_truncated_sample_reports_offset(self, tmp_path):
        ds = generate(tiny_spec(train_per_class=2, num_classes=2))["source_train"]
        path = tmp_path / "t.sdsh"
        ds.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="sample 3") as ei:
            Dataset.load(path)
        sample_bytes = 4 + 4 * 3 * 16 * 16
        assert ei.value.offset == 28 + 3 * sample_bytes

    def test_trailing_bytes(self, tmp_path):
        ds = generate(tiny_spec(train_per_class=1))["source_train"]
        path = tmp_path / "x.sdsh"
        ds.save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            Dataset.load(path)

    @pytest.mark.parametrize("n, side, match, offset", [
        (2 ** 31, 4096, "truncated sample 0", 28),   # ~400 PB of pixels
        (0, 2 ** 32 - 1, "too large", 12),            # no numpy shape fits
    ])
    def test_hostile_header_fails_before_allocating(self, tmp_path, n, side,
                                                   match, offset):
        path = tmp_path / "h.sdsh"
        path.write_bytes(b"SDSH" + struct.pack("<IIIIII", 1, n, 3, side, side, 4))
        with pytest.raises(FormatError, match=match) as ei:
            Dataset.load(path)
        assert ei.value.offset == offset

    @pytest.mark.parametrize("c, h, w", [(0, 16, 16), (3, 0, 16), (3, 16, 0)],
                             ids=["C", "H", "W"])
    def test_zero_image_dimension(self, tmp_path, c, h, w):
        # n records of a 4-byte label each match the file length, so only the
        # zero dimension is wrong
        path = tmp_path / "z.sdsh"
        path.write_bytes(b"SDSH" + struct.pack("<IIIIII", 1, 2, c, h, w, 4)
                         + struct.pack("<II", 0, 1))
        with pytest.raises(FormatError, match="zero dimension") as ei:
            Dataset.load(path)
        assert ei.value.offset == 12

    def test_label_out_of_range(self, tmp_path):
        ds = generate(tiny_spec(train_per_class=2, num_classes=2))["source_train"]
        path = tmp_path / "l.sdsh"
        ds.save(path)
        blob = bytearray(path.read_bytes())
        sample_bytes = 4 + 4 * 3 * 16 * 16
        offset = 28 + 2 * sample_bytes
        blob[offset:offset + 4] = struct.pack("<I", 2)     # num_classes is 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="sample 2") as ei:
            Dataset.load(path)
        assert ei.value.offset == offset

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel(self, tmp_path, value):
        ds = generate(tiny_spec(train_per_class=2, num_classes=2))["source_train"]
        path = tmp_path / "p.sdsh"
        ds.save(path)
        blob = bytearray(path.read_bytes())
        sample_bytes = 4 + 4 * 3 * 16 * 16
        offset = 28 + 3 * sample_bytes
        struct.pack_into("<f", blob, offset + 4 + 4 * 100, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="sample 3 has a non-finite pixel") as ei:
            Dataset.load(path)
        assert ei.value.offset == offset

    def test_images_view_the_records(self, tmp_path):
        # the body is read once: no second float32 copy of the pixels
        path = tmp_path / "v.sdsh"
        generate(tiny_spec())["source_train"].save(path)
        images = Dataset.load(path).images
        assert images.dtype == np.float32 and not images.flags.owndata
        assert images.strides[0] == 4 + 4 * 3 * 16 * 16

    def test_file_shrinking_after_size_check(self, tmp_path, monkeypatch):
        ds = generate(tiny_spec(train_per_class=2, num_classes=2))["source_train"]
        path = tmp_path / "s.sdsh"
        ds.save(path)
        sample_bytes = 4 + 4 * 3 * 16 * 16
        path.write_bytes(path.read_bytes()[:-sample_bytes])
        # the header's four samples match the size fstat reports, but the
        # read finds three
        size = path.stat().st_size + sample_bytes
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
            st_mode=fstat(fd).st_mode, st_size=size))
        with pytest.raises(FormatError, match="truncated sample 3") as ei:
            Dataset.load(path)
        assert ei.value.offset == 28 + 3 * sample_bytes

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_refused(self, tmp_path):
        # the header is checked against the file size, which a pipe lacks
        path = tmp_path / "d.sdsh"
        generate(tiny_spec(train_per_class=1))["source_train"].save(path)
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            with pytest.raises(FormatError, match="not a regular file") as ei:
                Dataset.load(f"/dev/fd/{r}")
            assert ei.value.offset == 0
        finally:
            os.close(r)

    def test_partially_labeled_round_trip(self, tmp_path):
        ds = generate(tiny_spec())["source_train"]
        ds.labels[[1, 4, 7]] = -1
        first, second = tmp_path / "a.sdsh", tmp_path / "b.sdsh"
        ds.save(first)
        loaded = Dataset.load(first)
        assert np.array_equal(loaded.labels, ds.labels)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()


class TestBatchIter:
    def test_epoch_covers_every_sample_once(self):
        ds = generate(tiny_spec())["source_train"]
        seen = np.concatenate([b.sample_ids
                               for b in batch_iter(ds, 6, seed=0, epoch=0)])
        assert sorted(seen.tolist()) == list(range(20))

    def test_partial_last_batch(self):
        ds = generate(tiny_spec())["source_train"]
        sizes = [len(b.sample_ids) for b in batch_iter(ds, 6, seed=0)]
        assert sizes == [6, 6, 6, 2]

    def test_same_seed_epoch_same_order(self):
        ds = generate(tiny_spec())["source_train"]
        a = np.concatenate([b.sample_ids for b in batch_iter(ds, 4, seed=3, epoch=2)])
        b = np.concatenate([b.sample_ids for b in batch_iter(ds, 4, seed=3, epoch=2)])
        assert np.array_equal(a, b)

    def test_epochs_differ(self):
        ds = generate(tiny_spec())["source_train"]
        a = np.concatenate([b.sample_ids for b in batch_iter(ds, 4, seed=3, epoch=0)])
        b = np.concatenate([b.sample_ids for b in batch_iter(ds, 4, seed=3, epoch=1)])
        assert not np.array_equal(a, b)

    def test_no_shuffle_preserves_order_and_labels(self):
        ds = generate(tiny_spec())["source_train"]
        batches = list(batch_iter(ds, 7, seed=0, shuffle=False))
        ids = np.concatenate([b.sample_ids for b in batches])
        assert np.array_equal(ids, np.arange(20))
        labels = np.concatenate([b.labels for b in batches])
        assert np.array_equal(labels, ds.labels)

    def test_images_promoted_to_f64(self):
        ds = generate(tiny_spec())["source_train"]
        batch = next(batch_iter(ds, 4, seed=0))
        assert batch.images.dtype == np.float64

    def test_unlabeled_batches(self):
        ds = generate(tiny_spec())["target_train"].without_labels()
        assert next(batch_iter(ds, 4, seed=0)).labels is None

    def test_bad_batch_size(self):
        ds = generate(tiny_spec())["source_train"]
        with pytest.raises(ConfigError):
            next(batch_iter(ds, 0, seed=0))
