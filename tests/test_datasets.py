"""IDX file parsing and synthetic blob generation."""

import re
import struct

import numpy as np
import pytest

from flexquant.datasets import (
    Dataset,
    FormatError,
    gen_synthetic_blobs,
    load_idx,
    load_idx_images,
    load_idx_labels,
)
from flexquant.numerics import ContractError


def write_idx_images(path, images: np.ndarray):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


class TestIdx:
    def test_crafted_file_normalization(self, tmp_path):
        img = np.array([[[0, 255], [0, 255]]], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, img)
        write_idx_labels(lp, np.array([1]))
        ds = load_idx(str(ip), str(lp), mean=0.5, std=0.5)
        np.testing.assert_allclose(ds.features.reshape(-1), [-1.0, 1.0, -1.0, 1.0],
                                   atol=1e-12)
        assert ds.features.shape == (1, 1, 2, 2)

    def test_zero_image_file_is_empty(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros((0, 4, 4), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(0))
        ds = load_idx(str(ip), str(lp))
        assert len(ds) == 0
        assert list(ds.batches(8)) == []

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_rejected_naming_the_file(self, tmp_path, empty):
        from flexquant.config import DatasetSpec
        from flexquant.datasets import load_dataset
        paths = {}
        for split in ("train", "test"):
            n = 0 if split == empty else 4
            paths[f"{split}_images"] = str(tmp_path / f"{split}-img")
            paths[f"{split}_labels"] = str(tmp_path / f"{split}-lab")
            write_idx_images(paths[f"{split}_images"], np.zeros((n, 2, 2), dtype=np.uint8))
            write_idx_labels(paths[f"{split}_labels"], np.arange(n) % 2)
        spec = DatasetSpec.from_dict({"kind": "idx_images", "classes": 2, **paths})
        message = f"{paths[empty + '_images']}: the split holds no images"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_dataset(spec)

    def test_length_mismatch_rejected(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(2))
        with pytest.raises(FormatError):
            load_idx(str(ip), str(lp))

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad"
        with open(p, "wb") as f:
            f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="byte 0"):
            load_idx_images(str(p))

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short"
        with open(p, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(FormatError, match="offset 16"):
            load_idx_images(str(p))

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "stub"
        with open(p, "wb") as f:
            f.write(b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx_labels(str(p))

    def test_label_beyond_classes_rejected(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.array([0, 1, 3]))
        with pytest.raises(FormatError, match="label 3 at row 2 "):
            load_idx(str(ip), str(lp), classes=3)

    @pytest.mark.parametrize("mean,std,row", [(0.0, 1e-320, 2), (0.0, -1e-320, 2),
                                              (float("nan"), 1.0, 0)],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_feature_rejected(self, tmp_path, mean, std, row):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        images[2, 1, 0] = 200  # divided by a subnormal std it overflows
        write_idx_images(ip, images)
        write_idx_labels(lp, np.array([0, 1, 0]))
        with np.errstate(over="ignore"), \
                pytest.raises(FormatError, match=f"non-finite feature at row {row}$"):
            load_idx(str(ip), str(lp), mean=mean, std=std)

    def test_labels_round_trip(self, tmp_path):
        p = tmp_path / "lab"
        write_idx_labels(p, np.array([3, 1, 4, 1, 5]))
        np.testing.assert_array_equal(load_idx_labels(str(p)), [3, 1, 4, 1, 5])


class TestBlobs:
    def test_exact_class_balance(self):
        ds = gen_synthetic_blobs(4, 1000, 3, 1.0, seed=0)
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [250, 250, 250, 250])

    def test_same_seed_identical(self):
        a = gen_synthetic_blobs(3, 90, 5, 0.7, seed=42)
        b = gen_synthetic_blobs(3, 90, 5, 0.7, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_splits_share_centers_but_not_noise(self):
        train = gen_synthetic_blobs(3, 300, 4, 0.5, seed=1, split="train")
        test = gen_synthetic_blobs(3, 300, 4, 0.5, seed=1, split="eval")
        # class means approximate the same centers
        for c in range(3):
            tm = train.features[train.labels == c].mean(axis=0)
            em = test.features[test.labels == c].mean(axis=0)
            np.testing.assert_allclose(tm, em, atol=0.4)
        assert np.any(train.features != test.features)

    def test_near_zero_spread_is_linearly_separable(self):
        ds = gen_synthetic_blobs(3, 300, 4, 1e-6, seed=7)
        # nearest-centroid classification is perfect at vanishing spread
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        d = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert np.all(np.argmin(d, axis=1) == ds.labels)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_blobs(1, 100, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_blobs(4, 2, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_blobs(4, 100, 3, -1.0, seed=0)

    def test_negative_center_scale_rejected(self):
        # it used to reach numpy as a bare "ValueError: scale < 0"
        with pytest.raises(FormatError, match="^invalid dim=3, spread=1.0 or center_scale=-1.0$"):
            gen_synthetic_blobs(4, 100, 3, 1.0, seed=0, center_scale=-1.0)

    def test_batches_follow_permutation(self):
        ds = gen_synthetic_blobs(2, 10, 2, 1.0, seed=3)
        order = np.arange(10)[::-1]
        xb, yb = next(ds.batches(4, order))
        np.testing.assert_array_equal(yb, ds.labels[order[:4]])
        np.testing.assert_array_equal(xb, ds.features[order[:4]])

    @pytest.mark.parametrize("size", [-5, 0, 2.5, np.float64(4.0)])
    def test_batches_reject_a_size_that_is_no_positive_integer(self, size):
        ds = gen_synthetic_blobs(2, 10, 2, 1.0, seed=3)
        with pytest.raises(ContractError, match=re.escape(f"positive integer, got {size!r}")):
            ds.batches(size)  # at the call, before the first batch

    def test_batches_cover_every_sample_once(self):
        ds = gen_synthetic_blobs(2, 10, 2, 1.0, seed=3)
        assert [len(yb) for _, yb in ds.batches(np.int64(4))] == [4, 4, 2]

    def test_dataset_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)

    @pytest.mark.parametrize("labels,row", [([0, -1, 1], 1), ([0, 1, 2, 2], 2)],
                             ids=["negative", "equal_to_classes"])
    def test_out_of_range_label_rejected(self, labels, row):
        labels = np.array(labels, dtype=np.int64)
        with pytest.raises(FormatError, match=f"label {labels[row]} at row {row} "):
            Dataset(np.zeros((len(labels), 2)), labels, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        features = np.zeros((4, 3))
        features[2, 1] = value
        with pytest.raises(FormatError, match="non-finite feature at row 2$"):
            Dataset(features, np.zeros(4, dtype=np.int64), 2)

    def test_finite_features_whose_sum_overflows_accepted(self):
        features = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            assert len(Dataset(features, np.zeros(2, dtype=np.int64), 2)) == 2
