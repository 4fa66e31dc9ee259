"""The benchmark's workloads: inputs made from the seed, one measured unit each,
and the checks that the unit's outputs are correct.

A unit is what a user waits for once: one training run with its four
artifacts (desk_coquant, cnn_coquant), or one evaluation pass over the eval
split at 8, 4 and 2 bits from a loaded `.aqdb` bundle (bundle_serve).
Everything is written under WORK_DIR, relative to the checkout root.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import flexquant.bundle as bundle
import flexquant.checkpoint as checkpoint
import flexquant.training as training
from flexquant.autograd import no_grad
from flexquant.config import RunConfig
from flexquant.datasets import Dataset, gen_synthetic_blobs
from flexquant.metrics import eval_summary_json
from flexquant.serialize import atomic_write_bytes

WORK_DIR = ".perfbench_work"
BITS = (8, 4, 2)

# acceptance criterion 6: every desk-scale run reaches this at 8 bits
DESK_ACCURACY_FLOOR = 8, 95.0

CNN_TRAIN_IMAGES = 512
CNN_EVAL_IMAGES = 256
CNN_CLASSES = 4
CNN_IMAGE_SIZE = 16

SERVE_SAMPLES = 32768
SERVE_BATCH = 512

ARTIFACTS = ("metrics.csv", "teacher_histogram.csv", "eval_summary.json", "checkpoint.ckpt")


def desk_config(seed: int) -> RunConfig:
    """The criterion-6 desk config (MLP 16-64-64-4 on the seed-11 blobs),
    coquant mode, with the workload seed as the run seed."""
    return RunConfig.from_dict({
        "schema_version": 1,
        "mode": "coquant",
        "bits": list(BITS),
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000,
                    "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                    "center_offset": 10.0},
        "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
        "epochs": 30,
        "batch_size": 200,
        "seed": seed,
        "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
                      "schedule": "step"},
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    })


def cnn_config(seed: int, data_dir: str) -> RunConfig:
    files = {key: os.path.join(data_dir, f"{key}.idx") for key in
             ("train_images", "train_labels", "test_images", "test_labels")}
    return RunConfig.from_dict({
        "schema_version": 1,
        "mode": "coquant",
        "bits": list(BITS),
        "dataset": {"kind": "idx_images", **files, "mean": 0.5, "std": 0.25,
                    "classes": CNN_CLASSES},
        "arch": {"kind": "cnn", "in_channels": 1, "image_size": CNN_IMAGE_SIZE,
                 "classes": CNN_CLASSES, "channels": [16, 16, 32]},
        "epochs": 4,
        "batch_size": 64,
        "seed": seed,
        "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
                      "schedule": "step"},
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    })


def write_cnn_images(seed: int, data_dir: str) -> None:
    """Seeded class-prototype images plus noise, as IDX files (uint8)."""
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    size = CNN_IMAGE_SIZE
    protos = rng.uniform(0.0, 255.0, size=(CNN_CLASSES, size, size))
    for split, n in (("train", CNN_TRAIN_IMAGES), ("test", CNN_EVAL_IMAGES)):
        labels = rng.permutation(np.arange(n) % CNN_CLASSES)
        images = 0.5 * protos[labels] + rng.normal(64.0, 60.0, size=(n, size, size))
        images = np.clip(images, 0.0, 255.0).astype(np.uint8)
        atomic_write_bytes(os.path.join(data_dir, f"{split}_images.idx"),
                      struct.pack(">IIII", 0x803, n, size, size) + images.tobytes())
        atomic_write_bytes(os.path.join(data_dir, f"{split}_labels.idx"),
                      struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())


def serve_split(seed: int) -> Dataset:
    """A large eval split of the desk blobs, in a seed-dependent order."""
    data = gen_synthetic_blobs(4, SERVE_SAMPLES, 16, 2.0, 11, 2.0, "eval", 10.0)
    order = np.random.default_rng(seed).permutation(len(data))
    return Dataset(data.features[order], data.labels[order], data.classes)


def source_digest(root: str) -> str:
    """Hash of the package and benchmark sources; keys every cache entry."""
    h = hashlib.sha256()
    for sub in ("src/flexquant", "perfbench"):
        d = os.path.join(root, sub)
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class UnitResult:
    run_s: float
    batch_s: list[float]
    samples: int
    setup_s: float | None = None
    problems: list[str] = field(default_factory=list)
    artifact_bytes: int = 0


class StepClock:
    """Times every Trainer.train_step call (tracing off or on)."""

    def __init__(self):
        self.batch_s: list[float] = []
        self.samples = 0
        self._orig = None

    def install(self) -> None:
        orig = self._orig = training.Trainer.__dict__["train_step"]
        clock = time.perf_counter

        def train_step(trainer, xb, yb, epoch, batch_index):
            t0 = clock()
            out = orig(trainer, xb, yb, epoch, batch_index)
            self.batch_s.append(clock() - t0)
            self.samples += len(xb)
            return out

        training.Trainer.train_step = train_step

    def uninstall(self) -> None:
        training.Trainer.train_step = self._orig

    def take(self) -> tuple[list[float], int]:
        out = self.batch_s, self.samples
        self.batch_s, self.samples = [], 0
        return out


class TrainingWorkload:
    """One unit = Trainer(config) (set-up) + Trainer.run() + artifact writes."""

    def __init__(self, name: str, config: RunConfig, run_dir: str, cache_dir: str,
                 seed: int, accuracy_floor: tuple[int, float] | None):
        self.name = name
        self.config = config
        self.run_dir = run_dir
        self.accuracy_floor = accuracy_floor
        self.digest_path = os.path.join(cache_dir, f"{name}-seed{seed}.json")
        self.reference: dict[str, str] | None = None
        self.clock = StepClock()
        self.clock.install()

    def close(self) -> None:
        self.clock.uninstall()

    def setup(self) -> float:
        t0 = time.perf_counter()
        training.Trainer(self.config)
        return time.perf_counter() - t0

    def unit(self, index: int, fresh_setup: bool) -> UnitResult:
        self.clock.take()
        t0 = time.perf_counter()
        trainer = training.Trainer(self.config)
        t1 = time.perf_counter()
        accuracies = trainer.run()
        out = os.path.join(self.run_dir, f"unit{index}")
        os.makedirs(out, exist_ok=True)
        log = trainer.log
        atomic_write_bytes(os.path.join(out, "metrics.csv"), log.metrics_csv_text().encode())
        atomic_write_bytes(os.path.join(out, "teacher_histogram.csv"),
                           log.histogram_csv_text().encode())
        atomic_write_bytes(os.path.join(out, "eval_summary.json"), eval_summary_json(
            accuracies, trainer.calibrated_bits, trainer.config.mode).encode())
        checkpoint.save_checkpoint(os.path.join(out, "checkpoint.ckpt"), trainer)
        t2 = time.perf_counter()
        batch_s, samples = self.clock.take()
        result = UnitResult(run_s=t2 - t1, batch_s=batch_s, samples=samples, setup_s=t1 - t0,
                            artifact_bytes=os.path.getsize(os.path.join(out, "checkpoint.ckpt")))
        digests = {a: file_digest(os.path.join(out, a)) for a in ARTIFACTS}
        shutil.rmtree(out)
        result.problems += self._check_digests(digests)
        if self.accuracy_floor is not None:
            b, floor = self.accuracy_floor
            if not accuracies[b] >= floor:
                result.problems.append(f"{b}-bit accuracy {accuracies[b]} < {floor}")
        return result

    def _check_digests(self, digests: dict[str, str]) -> list[str]:
        """Every run of one seed must write byte-identical artifacts, within
        this process and across processes on the same sources."""
        if self.reference is None:
            if os.path.exists(self.digest_path):
                with open(self.digest_path) as f:
                    self.reference = json.load(f)
            else:
                atomic_write_bytes(self.digest_path, json.dumps(digests, indent=1).encode())
                self.reference = digests
        return [f"{a} digest differs from an earlier run of the same seed"
                for a in ARTIFACTS if digests[a] != self.reference[a]]


class ServeWorkload:
    """Set-up = load_bundle + build_network; one unit = the eval split at
    every bit-width, eval mode, no_grad, batches of SERVE_BATCH."""

    def __init__(self, root: str, cache_dir: str, seed: int):
        self.split = serve_split(seed)
        self.bundle_dir = os.path.join(cache_dir, f"bundle_serve-seed{seed}")
        if not os.path.isdir(self.bundle_dir):
            # untimed preparation in a child process, so its memory does not
            # count towards this process's peak RSS
            subprocess.run([sys.executable, os.path.join(root, "perfbench", "prepare_bundle.py"),
                            "--seed", str(seed), "--out", self.bundle_dir],
                           check=True, timeout=150)
        self.model_path = os.path.join(self.bundle_dir, "model.aqdb")
        with np.load(os.path.join(self.bundle_dir, "reference.npz")) as ref:
            self.ref_preds = {b: ref[f"preds{b}"] for b in BITS}
            self.ref_accuracy = {b: float(ref[f"accuracy{b}"]) for b in BITS}
        self.net = None

    def close(self) -> None:
        pass

    def _load(self):
        return bundle.load_bundle(self.model_path).build_network()

    def setup(self) -> float:
        t0 = time.perf_counter()
        self._load()
        return time.perf_counter() - t0

    def unit(self, index: int, fresh_setup: bool) -> UnitResult:
        setup_s = None
        if fresh_setup or self.net is None:
            t0 = time.perf_counter()
            self.net = self._load()
            setup_s = time.perf_counter() - t0
        net = self.net
        clock = time.perf_counter
        batch_s: list[float] = []
        preds = {b: [] for b in BITS}
        t0 = clock()
        with no_grad():
            for b in BITS:
                for xb, _ in self.split.batches(SERVE_BATCH):
                    s = clock()
                    preds[b].append(np.argmax(net.forward_at(xb, b, mode="eval").data, axis=1))
                    batch_s.append(clock() - s)
        run_s = clock() - t0
        result = UnitResult(run_s=run_s, batch_s=batch_s, samples=len(self.split) * len(BITS),
                            setup_s=setup_s, artifact_bytes=os.path.getsize(self.model_path))
        for b in BITS:
            p = np.concatenate(preds[b])
            accuracy = 100.0 * int(np.sum(p == self.split.labels)) / len(self.split)
            if not np.array_equal(p, self.ref_preds[b]) or accuracy != self.ref_accuracy[b]:
                result.problems.append(
                    f"{b}-bit bundle predictions differ from in-memory Trainer.evaluate "
                    f"({accuracy} vs {self.ref_accuracy[b]})")
        return result


# Spans each workload must record in the traced run; a wrapper bound to a
# name the caller never resolves would otherwise report its layer as free.
_TRAIN_SPANS = (
    "autograd.matmul", "autograd.batchnorm", "autograd.relu", "autograd.softmax",
    "autograd.cross_entropy", "autograd.kl_div", "autograd.backward",
    "quantizers.quantize_weights_dorefa", "quantizers.quantize_activation",
    "quantizers.quantize_weights_at", "quantizers.weight_forward",
    "network.forward_at.train.b8", "network.forward_at.train.b4",
    "network.forward_at.train.b2", "network.forward_at.eval", "network.model_distance",
    "training.train_step", "training.loss_for_bit", "training.select_teacher",
    "training.sample_swap_mask", "training.evaluate", "optim.step", "optim.zero_grad",
    "metrics.add_batch", "metrics.end_epoch", "metrics.csv_text",
    "metrics.histogram_csv_text", "checkpoint.save", "datasets.load",
    "numerics.check_finite",
)
REQUIRED_SPANS = {
    "desk_coquant": _TRAIN_SPANS,
    "cnn_coquant": _TRAIN_SPANS + ("autograd.conv2d", "autograd.maxpool2d"),
    "bundle_serve": ("autograd.matmul", "autograd.batchnorm", "autograd.relu",
                     "quantizers.quantize_activation", "network.forward_at.eval",
                     "bundle.load", "bundle.build_network", "numerics.check_finite"),
}


def make_workload(name: str, seed: int, root: str, run_dir: str, cache_dir: str):
    if name == "desk_coquant":
        return TrainingWorkload(name, desk_config(seed), run_dir, cache_dir, seed,
                                DESK_ACCURACY_FLOOR)
    if name == "cnn_coquant":
        # a path relative to the checkout root: the config, and so every
        # artifact, embeds it, and it must not differ between processes
        data_dir = os.path.join(WORK_DIR, "inputs", f"cnn_coquant-seed{seed}")
        write_cnn_images(seed, data_dir)
        return TrainingWorkload(name, cnn_config(seed, data_dir), run_dir, cache_dir, seed, None)
    if name == "bundle_serve":
        return ServeWorkload(root, cache_dir, seed)
    raise ValueError(f"unknown workload {name!r}")
