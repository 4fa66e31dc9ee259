"""Exact cost counters as bounds: costs that repeat to the byte or to the
call between processes, so a regression of a few per cent fails here where
timing noise would hide it.

Each bound sits just above the value the current code measures. A change
that lowers a cost tightens its bound in the same diff; any change to a
bound is named with its reason in CHANGES.md.
"""

import sys
import tracemalloc

import numpy as np

from flexquant import autograd as ag
from flexquant.config import RunConfig
from flexquant.training import Trainer

from test_datasets import write_idx_images, write_idx_labels

# One cnn_coquant-shaped step (channels [16, 16, 32], 16x16 images, batch 64,
# bits 8/4/2) reads 32.40 MB; it read 38.91 MB while each train-mode batch
# norm kept its normalized input x_hat, 49.93 MB while each train-mode batch
# norm and its ReLU were two nodes, and 79.25 MB while every conv node kept
# its im2col columns.
CNN_STEP_TRACED_PEAK_BYTES = 32_700_000
# What that step's forward holds when autograd.backward starts: 23.75 MB
# (30.58 MB with x_hat kept). The peak above is set by transient buffers in
# the backward sweep (the first fused batch norm + ReLU's, 0.3 MB above a
# conv2d's), which can hide growth in what the tape keeps.
CNN_STEP_FORWARD_STATE_BYTES = 24_000_000
# Trainer.evaluate on that trainer's 512 images, in batches of its 64, reads
# 6.53 MB; it read 51.49 MB in one 512-image batch.
CNN_EVALUATE_TRACED_PEAK_BYTES = 6_700_000
# One desk step (the criterion-6 MLP 16-64-64-4, batch 200) makes 963
# Python-level calls, numpy's own Python functions included (979 while each
# KL target was a detached copy and add unbroadcast its gradients, 991 while
# forward_at looked up a bank entry per layer, 1,045 with a ReLU node of its
# own after each batch norm).
DESK_STEP_PY_CALLS = 969


def _second_step(trainer: Trainer, batch: int):
    """The first batch, stepped once to warm up; returns a call running the
    measured second step."""
    xb, yb = trainer.train_set.features[:batch], trainer.train_set.labels[:batch]
    trainer.train_step(xb, yb, 0, 0)
    return lambda: trainer.train_step(xb, yb, 0, 1)


def cnn_trainer(tmp_path) -> Trainer:
    rng = np.random.default_rng(1)
    protos = rng.uniform(0.0, 255.0, size=(4, 16, 16))
    labels = rng.permutation(np.arange(512) % 4)
    images = np.clip(0.5 * protos[labels] + rng.normal(64.0, 60.0, size=(512, 16, 16)),
                     0.0, 255.0)
    write_idx_images(tmp_path / "images", images)
    write_idx_labels(tmp_path / "labels", labels)
    return Trainer(RunConfig.from_dict({
        "schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
        "dataset": {"kind": "idx_images", "train_images": str(tmp_path / "images"),
                    "train_labels": str(tmp_path / "labels"), "mean": 0.5, "std": 0.25,
                    "classes": 4},
        "arch": {"kind": "cnn", "in_channels": 1, "image_size": 16, "classes": 4,
                 "channels": [16, 16, 32]},
        "epochs": 4, "batch_size": 64, "seed": 1,
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    }))


def desk_trainer() -> Trainer:
    return Trainer(RunConfig.from_dict({
        "schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000, "dim": 16,
                    "spread": 2.0, "seed": 11, "center_scale": 2.0, "center_offset": 10.0},
        "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
        "epochs": 30, "batch_size": 200, "seed": 1,
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    }))


def test_cnn_step_traced_peak_is_bounded(tmp_path):
    step = _second_step(cnn_trainer(tmp_path), 64)
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CNN_STEP_TRACED_PEAK_BYTES, f"traced peak {peak} bytes"


def test_cnn_forward_state_at_backward_is_bounded(tmp_path, monkeypatch):
    step = _second_step(cnn_trainer(tmp_path), 64)
    held = []
    backward = ag.backward

    def measured_backward(tape, loss):
        held.append(tracemalloc.get_traced_memory()[0])
        backward(tape, loss)

    monkeypatch.setattr(ag, "backward", measured_backward)
    tracemalloc.start()
    try:
        step()
    finally:
        tracemalloc.stop()
    assert len(held) == 1, f"{len(held)} backward sweeps in one step"
    assert held[0] <= CNN_STEP_FORWARD_STATE_BYTES, f"forward state {held[0]} bytes"


def test_cnn_evaluate_traced_peak_is_bounded(tmp_path):
    trainer = cnn_trainer(tmp_path)
    trainer.evaluate(8)  # warm up
    tracemalloc.start()
    try:
        trainer.evaluate(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CNN_EVALUATE_TRACED_PEAK_BYTES, f"traced peak {peak} bytes"


def test_desk_step_python_calls_are_bounded():
    step = _second_step(desk_trainer(), 200)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        step()
    finally:
        sys.setprofile(None)
    assert calls <= DESK_STEP_PY_CALLS, f"{calls} Python calls"
