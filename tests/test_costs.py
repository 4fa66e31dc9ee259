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
# bits 8/4/2) reads 22.32 MB; it read 25.79 MB while each quantized block's
# activation quantizer was a node of its own, whose output the conv node
# kept, 32.40 MB while the max-pool after the first batch norm and ReLU was a
# node of its own, 38.91 MB while each train-mode batch norm kept its
# normalized input x_hat, 49.93 MB while each train-mode batch norm and its
# ReLU were two nodes, and 79.25 MB while every conv node kept its im2col
# columns.
CNN_STEP_TRACED_PEAK_BYTES = 22_400_000
# What that step's forward holds when autograd.backward starts: 14.32 MB
# (17.46 MB with the quantized activations kept, 23.75 MB with the pool a
# node of its own, 30.58 MB with x_hat kept). The peak above is set by
# transient buffers in the backward sweep (the last conv2d's, 16 -> 32
# channels, at the first bit-width), which can hide growth in what the tape
# keeps.
CNN_STEP_FORWARD_STATE_BYTES = 14_400_000
# The nodes that step records, exactly: 45 (51 with a quantize_activation
# node per quantized block, 54 with the pool a node of its own).
CNN_STEP_TAPE_NODES = 45
# The largest single backward rule's transient in that step (its peak less
# what is held when it starts): 6.82 MB, the last conv2d's (g2, dcols and the
# padded dx buffer; 7.15 MB while dcols lived on beside the NCHW dx).
CNN_STEP_RULE_TRANSIENT_BYTES = 6_900_000
# Trainer.evaluate on that trainer's 512 images, in batches of its 64, reads
# 6.53 MB; it read 51.49 MB in one 512-image batch.
CNN_EVALUATE_TRACED_PEAK_BYTES = 6_700_000
# One desk step (the criterion-6 MLP 16-64-64-4, batch 200) makes 948
# Python-level calls, numpy's own Python functions included (963 while the
# quantized block's activation quantizer was a node of its own, 979 while each
# KL target was a detached copy and add unbroadcast its gradients, 991 while
# forward_at looked up a bank entry per layer, 1,045 with a ReLU node of its
# own after each batch norm).
DESK_STEP_PY_CALLS = 950


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


def traced_backward(step, monkeypatch):
    """Run step under tracemalloc with its one backward sweep probed. Returns
    the bytes held when autograd.backward starts, the tape's node count, and
    per backward rule, in sweep order, (node name, bytes held when the rule
    starts, the rule's peak above that)."""
    held, nodes, rules = [], [], []
    backward = ag.backward

    def probe(node):
        rule = node.backward_fn

        def probed(g):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = rule(g)
            rules.append((node.name, start, tracemalloc.get_traced_memory()[1] - start))
            return grads

        node.backward_fn = probed

    def measured_backward(tape, loss):
        held.append(tracemalloc.get_traced_memory()[0])
        nodes.append(len(tape.nodes))
        for node in tape.nodes:
            probe(node)
        backward(tape, loss)

    monkeypatch.setattr(ag, "backward", measured_backward)
    tracemalloc.start()
    try:
        step()
    finally:
        tracemalloc.stop()
    assert len(held) == 1, f"{len(held)} backward sweeps in one step"
    return held[0], nodes[0], rules


def test_cnn_forward_state_at_backward_is_bounded(tmp_path, monkeypatch):
    held, nodes, _ = traced_backward(_second_step(cnn_trainer(tmp_path), 64), monkeypatch)
    assert held <= CNN_STEP_FORWARD_STATE_BYTES, f"forward state {held} bytes"
    assert nodes == CNN_STEP_TAPE_NODES, f"{nodes} tape nodes"


def test_cnn_largest_backward_rule_transient_is_bounded(tmp_path, monkeypatch):
    _, _, rules = traced_backward(_second_step(cnn_trainer(tmp_path), 64), monkeypatch)
    name, _, transient = max(rules, key=lambda rule: rule[2])
    assert transient <= CNN_STEP_RULE_TRANSIENT_BYTES, f"{name} rule: {transient} bytes"


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
