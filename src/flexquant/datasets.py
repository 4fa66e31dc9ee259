"""Datasets: IDX image files, CSV tables and seeded synthetic Gaussian blobs."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import ContractError, FlexquantError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class FormatError(FlexquantError, ValueError):
    """Malformed dataset file (the message carries the byte offset or row),
    or generator parameters that describe no dataset."""


@dataclass
class Dataset:
    """In-memory supervised dataset. Features are float64, labels int64."""

    features: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"{self.features.shape[0]} samples vs {self.labels.shape[0]} labels"
            )
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.classes))
        if bad.size:
            row = int(bad[0])
            raise FormatError(
                f"label {self.labels[row]} at row {row} is outside [0, {self.classes})"
            )
        # one sum answers for clean data; the row is located only on failure
        if not np.isfinite(np.sum(self.features)):
            bad = ~np.isfinite(self.features.reshape(len(self), -1)).all(axis=1)
            if bad.any():
                raise FormatError(f"non-finite feature at row {int(np.argmax(bad))}")

    def __len__(self):
        return self.features.shape[0]

    def batches(self, batch_size: int, order: np.ndarray | None = None):
        """(features, labels) slices of batch_size samples; `order` permutes
        samples first. ContractError unless batch_size is a positive integer."""
        if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
            raise ContractError(f"batch size must be a positive integer, got {batch_size!r}")
        idx = np.arange(len(self)) if order is None else np.asarray(order)
        return ((self.features[sel], self.labels[sel]) for sel in (
            idx[start : start + batch_size] for start in range(0, len(self), batch_size)))


def _read_idx(path: str, expect_magic: int, ndim: int) -> np.ndarray:
    """The uint8 payload of an IDX file with the given magic and ndim dims,
    shaped by its header; FormatError naming the byte offset otherwise."""
    with open(path, "rb") as f:
        buf = f.read()
    need = 4 * (1 + ndim)
    if len(buf) < need:
        raise FormatError(f"{path}: truncated header at byte {len(buf)} (need {need})")
    magic = struct.unpack(">I", buf[:4])[0]
    if magic != expect_magic:
        raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0 (want 0x{expect_magic:08x})")
    dims = struct.unpack(f">{ndim}I", buf[4:need])
    if len(buf) - need != math.prod(dims):
        raise FormatError(f"{path}: payload is {len(buf) - need} bytes at offset {need}, "
                          f"expected {math.prod(dims)}")
    return np.frombuffer(buf, dtype=np.uint8, offset=need).reshape(dims)


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX image file into a uint8 array of shape (n, rows, cols)."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3)


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file into an int64 array of shape (n,)."""
    return _read_idx(path, IDX_LABELS_MAGIC, 1).astype(np.int64)


def load_idx(images_path: str, labels_path: str, mean: float = 0.0,
             std: float = 1.0, classes: int | None = None) -> Dataset:
    """Pair IDX image/label files into a normalized NCHW dataset."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images.shape[0]} images in {images_path} but {labels.shape[0]} labels"
        )
    if std == 0.0:
        raise FormatError("std must be nonzero")
    feats = (images.astype(np.float64) / 255.0 - mean) / std
    feats = feats[:, None, :, :]  # add channel axis
    n_classes = classes if classes is not None else (int(labels.max()) + 1 if len(labels) else 0)
    return Dataset(feats, labels, n_classes)


def gen_synthetic_blobs(classes: int, samples: int, dim: int, spread: float,
                        seed: int, center_scale: float = 3.0,
                        split: str = "train", center_offset: float = 0.0) -> Dataset:
    """Class-balanced Gaussian clusters with seeded centers.

    Centers and noise come from separate child streams of the seed: the
    "train" and "eval" splits share identical cluster geometry but draw
    disjoint noise, and a different sample count never shifts the centers.
    center_offset shifts every cluster center by a constant, mimicking raw
    un-centered features (pixel intensities, sensor readings).
    """
    if classes < 2:
        raise FormatError(f"need at least 2 classes, got {classes}")
    if samples < classes:
        raise FormatError(f"need at least {classes} samples, got {samples}")
    if dim < 1 or spread <= 0 or center_scale < 0:
        raise FormatError(f"invalid dim={dim}, spread={spread} or center_scale={center_scale}")
    splits = ("train", "eval")
    if split not in splits:
        raise FormatError(f"split must be one of {splits}, got {split!r}")
    root = np.random.SeedSequence(seed)
    children = root.spawn(1 + len(splits))
    center_rng = np.random.default_rng(children[0])
    noise_rng = np.random.default_rng(children[1 + splits.index(split)])
    centers = center_rng.normal(center_offset, center_scale, size=(classes, dim))
    per_class = samples // classes
    extra = samples % classes
    counts = [per_class + (1 if c < extra else 0) for c in range(classes)]
    labels = np.concatenate([np.full(k, c, dtype=np.int64) for c, k in enumerate(counts)])
    feats = centers[labels] + noise_rng.normal(0.0, spread, size=(samples, dim))
    return Dataset(feats, labels, classes)


def load_csv_table(path: str, classes: int) -> Dataset:
    """Rows of comma-separated numbers: the features, then an integer label."""
    try:
        table = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as e:  # a field that is not a number, or a ragged row
        raise FormatError(f"{path}: {e}") from None
    if table.shape[0] == 0 or table.shape[1] < 2:
        raise FormatError(f"{path}: need at least one row of features and a label, "
                          f"got shape {table.shape}")
    labels = table[:, -1]
    bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.round(labels)))
    if bad.size:
        row = int(bad[0])
        raise FormatError(f"{path}: label {labels[row]} at row {row} is not an integer")
    return Dataset(table[:, :-1], labels.astype(np.int64), classes)


def load_dataset(spec) -> tuple[Dataset, Dataset]:
    """(train, eval) datasets for a DatasetSpec."""
    if spec.kind == "synthetic_blobs":
        train = gen_synthetic_blobs(spec.classes, spec.samples, spec.dim,
                                    spec.spread, spec.seed, spec.center_scale,
                                    "train", spec.center_offset)
        test = gen_synthetic_blobs(spec.classes, spec.eval_samples, spec.dim,
                                   spec.spread, spec.seed, spec.center_scale,
                                   "eval", spec.center_offset)
        return train, test
    if spec.kind == "idx_images":
        train = load_idx(spec.train_images, spec.train_labels, spec.mean, spec.std,
                         spec.classes or None)
        if spec.test_images:
            test = load_idx(spec.test_images, spec.test_labels, spec.mean, spec.std,
                            train.classes)
        else:
            test = train
        for ds, path in ((train, spec.train_images), (test, spec.test_images)):
            if len(ds) == 0:
                raise FormatError(f"{path}: the split holds no images")
        return train, test
    if spec.kind == "csv_table":
        train = load_csv_table(spec.path, spec.classes)
        test = load_csv_table(spec.eval_path, spec.classes) if spec.eval_path else train
        return train, test
    raise FormatError(f"unknown dataset kind {spec.kind!r}")
