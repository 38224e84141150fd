"""Synthetic two-domain image classification data with a controllable
covariate shift, plus the bit-exact SDSH on-disk format and batching.

Classes are geometric glyphs (bar, disc, cross, ring) drawn on a flat
background.  The target domain applies appearance-only shifts: brightness
offset, a background texture, channel (hue) rotation, and pixel noise.
Every sample is seeded independently so generation is order-free and
reproducible.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, FormatError

UNLABELED = 0xFFFFFFFF
_MAGIC = b"SDSH"
_VERSION = 1
_HEADER_BYTES = 28

GLYPHS = ("bar", "disc", "cross", "ring")
MAX_SPLIT_BYTES = 256 << 20     # one generated split's pixels at most: a constant, not a key


@dataclass
class SyntheticSpec:
    num_classes: int = 4
    train_per_class: int = 50
    eval_per_class: int = 25
    image_size: int = 16
    brightness_delta: float = 0.3
    texture_id: int = 3
    noise_sigma: float = 0.05
    hue_rotation: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_classes <= len(GLYPHS):
            raise ConfigError(f"num_classes must be in [1, {len(GLYPHS)}]")
        if self.image_size < 1:
            raise ConfigError(f"image_size must be >= 1, got {self.image_size}")
        for key in ("train_per_class", "eval_per_class"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        per_class = max(self.train_per_class, self.eval_per_class)
        nbytes = per_class * self.num_classes * 3 * self.image_size ** 2 * 4   # RGB float32
        if nbytes > MAX_SPLIT_BYTES:
            raise ConfigError(
                f"one split's pixels would take {nbytes} bytes, above the cap of "
                f"{MAX_SPLIT_BYTES >> 20} MiB; they follow from num_classes = "
                f"{self.num_classes}, train_per_class = {self.train_per_class}, "
                f"eval_per_class = {self.eval_per_class}, image_size = {self.image_size}")


@dataclass
class Dataset:
    images: np.ndarray              # [n, C, H, W] float32 in [0, 1]; sample i's id is i
    labels: Optional[np.ndarray]    # [n] int64, or None when withheld
    domain: str                     # "source" | "target"
    num_classes: int

    def __len__(self):
        return self.images.shape[0]

    def without_labels(self) -> "Dataset":
        """Label-free view handed to the trainer's target path."""
        return Dataset(images=self.images, labels=None, domain=self.domain,
                       num_classes=self.num_classes)

    def save(self, path):
        n, c, h, w = self.images.shape
        records = np.empty(n, dtype=_record_dtype(c, h, w))
        records["label"] = (UNLABELED if self.labels is None else
                            np.where(self.labels < 0, UNLABELED, self.labels))
        records["pixels"] = self.images
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<IIIIII", _VERSION, n, c, h, w, self.num_classes))
            f.write(records.tobytes())

    @staticmethod
    def load(path, domain: str = "source") -> "Dataset":
        """Read an SDSH file.  The header is checked against the file size
        before the body is read, and the body is read once: ``images`` is a
        strided view of the record array's ``pixels`` field."""
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):     # a pipe has no size to check
                raise FormatError("dataset is not a regular file", 0)
            size = st.st_size
            head = f.read(_HEADER_BYTES)
            if head[:4] != _MAGIC:
                raise FormatError("bad dataset magic", 0)
            if len(head) < _HEADER_BYTES:
                raise FormatError("truncated dataset header", len(head))
            version, n, c, h, w, ncls = struct.unpack_from("<IIIIII", head, 4)
            if version != _VERSION:
                raise FormatError(f"unsupported dataset version {version}", 4)
            if 0 in (c, h, w):
                raise FormatError(f"image shape {c}x{h}x{w} has a zero dimension", 12)
            sample_bytes = 4 + 4 * c * h * w
            complete = (size - _HEADER_BYTES) // sample_bytes
            if complete < n:
                raise FormatError(f"truncated sample {complete}",
                                  _HEADER_BYTES + complete * sample_bytes)
            end = _HEADER_BYTES + n * sample_bytes
            if end != size:
                raise FormatError("trailing bytes after last sample", end)
            try:
                record = _record_dtype(c, h, w)
            except ValueError:
                raise FormatError(f"image shape {c}x{h}x{w} is too large", 12) from None
            records = np.empty(n, dtype=record)
            got = f.readinto(records.view(np.uint8))
        if got != end - _HEADER_BYTES:      # the file shrank after fstat
            complete = got // sample_bytes
            raise FormatError(f"truncated sample {complete}",
                              _HEADER_BYTES + complete * sample_bytes)
        raw_labels = records["label"]
        unlabeled = raw_labels == UNLABELED
        bad = np.flatnonzero(~unlabeled & (raw_labels >= ncls))
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"sample {i} has label {int(raw_labels[i])} "
                              f"outside [0, {ncls})",
                              _HEADER_BYTES + i * sample_bytes)
        bad = np.flatnonzero(~np.isfinite(records["pixels"]).all(axis=(1, 2, 3)))
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"sample {i} has a non-finite pixel",
                              _HEADER_BYTES + i * sample_bytes)
        labels = np.where(unlabeled, -1, raw_labels.astype(np.int64))
        # an empty split loads as labelled, so it is reported as empty
        return Dataset(images=records["pixels"],
                       labels=None if n and unlabeled.all() else labels,
                       domain=domain, num_classes=ncls)


def _record_dtype(c: int, h: int, w: int) -> np.dtype:
    """One SDSH sample: a <u4 label followed by <f4[C, H, W] pixels."""
    return np.dtype([("label", "<u4"), ("pixels", "<f4", (c, h, w))])


@dataclass
class DomainBatch:
    images: np.ndarray              # [B, C, H, W] f64
    labels: Optional[np.ndarray]
    sample_ids: np.ndarray          # [B] positions of the batch's samples in its split


# ---------------------------------------------------------------------------
# rendering

def _draw_glyph(img: np.ndarray, label: int, rng: np.random.Generator):
    h, w = img.shape[1:]
    cy = h // 2 + rng.integers(-2, 3)
    cx = w // 2 + rng.integers(-2, 3)
    color = 0.6 + 0.4 * rng.random(3)
    yy, xx = np.mgrid[0:h, 0:w]
    glyph = GLYPHS[label]
    if glyph == "bar":
        sel = np.abs(yy - cy) <= 1
    elif glyph == "disc":
        sel = (yy - cy) ** 2 + (xx - cx) ** 2 <= 4.0 ** 2
    elif glyph == "cross":
        sel = (np.abs(yy - cy) <= 1) | (np.abs(xx - cx) <= 1)
    else:  # ring
        r2 = (yy - cy) ** 2 + (xx - cx) ** 2
        sel = (r2 <= 5.5 ** 2) & (r2 >= 3.0 ** 2)
    for ch in range(3):
        img[ch][sel] = color[ch]


def _hue_rotate(img: np.ndarray, angle: float) -> np.ndarray:
    """Rotate the three channels around the gray axis by ``angle`` radians."""
    if angle == 0.0:
        return img
    c, s = np.cos(angle), np.sin(angle)
    one3 = 1.0 / 3.0
    sq3 = np.sqrt(1.0 / 3.0)
    rot = np.array([[c + (1 - c) * one3, one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s],
                    [one3 * (1 - c) + sq3 * s, c + one3 * (1 - c), one3 * (1 - c) - sq3 * s],
                    [one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s, c + one3 * (1 - c)]])
    flat = img.reshape(3, -1)
    return (rot @ flat).reshape(img.shape)


def _texture(shape, texture_id: int, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency background pattern; id selects the family."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    phase = rng.random() * 2 * np.pi
    if texture_id == 0:
        return np.zeros(shape)
    if texture_id == 1:
        return 0.15 * np.sin(2 * np.pi * xx / w * 2 + phase)
    if texture_id == 2:
        return 0.15 * np.sin(2 * np.pi * (xx + yy) / w * 3 + phase)
    return 0.15 * np.sign(np.sin(2 * np.pi * yy / h * 2 + phase))


def _render_sample(spec: SyntheticSpec, label: int, shifted: bool,
                   rng: np.random.Generator) -> np.ndarray:
    s = spec.image_size
    base = 0.1 + 0.15 * rng.random()
    img = np.full((3, s, s), base)
    _draw_glyph(img, label, rng)
    if shifted:
        img = img + _texture((s, s), spec.texture_id, rng)[None, :, :]
        img = _hue_rotate(img, spec.hue_rotation)
        img = img + spec.brightness_delta
        img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


_DOMAIN_CODE = {"source": 0, "target": 1}
_SPLIT_CODE = {"train": 0, "eval": 1}


def _make_split(spec: SyntheticSpec, domain: str, split: str) -> Dataset:
    per = spec.train_per_class if split == "train" else spec.eval_per_class
    n = per * spec.num_classes
    images = np.empty((n, 3, spec.image_size, spec.image_size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    shifted = domain == "target"
    for i in range(n):
        label = i % spec.num_classes
        ss = np.random.SeedSequence(
            [spec.seed, _DOMAIN_CODE[domain], _SPLIT_CODE[split], i])
        images[i] = _render_sample(spec, label, shifted, np.random.default_rng(ss))
        labels[i] = label
    return Dataset(images=images, labels=labels, domain=domain,
                   num_classes=spec.num_classes)


def generate(spec: SyntheticSpec) -> dict[str, Dataset]:
    """All four splits: {source,target} x {train,eval}."""
    return {f"{dom}_{split}": _make_split(spec, dom, split)
            for dom in ("source", "target") for split in ("train", "eval")}


# ---------------------------------------------------------------------------
# batching

def batch_iter(dataset: Dataset, batch_size: int, seed: int,
               shuffle: bool = True, epoch: int = 0) -> Iterator[DomainBatch]:
    """One epoch of batches; the permutation is a pure function of
    (seed, epoch).  The last partial batch is kept."""
    if batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    n = len(dataset)
    order = np.arange(n)
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        labels = None if dataset.labels is None else dataset.labels[idx]
        yield DomainBatch(images=dataset.images[idx].astype(np.float64),
                          labels=labels, sample_ids=idx)
