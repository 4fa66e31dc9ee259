"""Pinned bits: the sha256 of every artifact a fixed set of small runs writes.

Same-seed runs are promised byte-identical on one platform, across versions
too: a change that is meant to leave the numbers alone must leave these
digests alone. The runs go through the CLI, as a user runs them, in a
scratch directory with every path relative, since a config (and so every
artifact) holds its dataset paths:
- all eight modes on a 3-epoch MLP over synthetic blobs: train, then export;
- one 2-epoch coquant run of a small CNN on seeded 8x8 IDX images;
- the coquant blob checkpoint calibrated at 5 and 3 bits: its checkpoint,
  its eval summary at every bit-width, and its bundle.
Each run's bundle also contributes the bytes of the logits it serves on the
run's eval split at every bit-width it holds: accuracies and the training
artifacts would miss an eval-only change of one ulp.

tests/data/digests.json also records the platform (numpy version, BLAS build,
machine) the digests were made on; the bits are promised on that platform
only. A change that moves bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_digests.py

and names the changed artifacts in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import struct
import sys
import tempfile

# one BLAS thread when run as a script, as tests/conftest.py sets for the suite
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from flexquant.autograd import no_grad  # noqa: E402
from flexquant.bundle import load_bundle  # noqa: E402
from flexquant.cli import main  # noqa: E402
from flexquant.config import RunConfig  # noqa: E402
from flexquant.datasets import load_dataset  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "digests.json")
MODES = ("coquant", "joint", "switchable_bn", "adabits", "individual:8",
         "progressive_desc", "progressive_asc", "direct:8")
ARTIFACTS = ("metrics.csv", "teacher_histogram.csv", "eval_summary.json", "checkpoint.ckpt",
             "model.aqdb")


def platform_facts() -> dict:
    """What the bits depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k)) for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def _blob_config(mode: str) -> dict:
    bits = [8] if mode == "individual:8" else [8, 4, 2]
    return {"schema_version": 1, "mode": mode, "bits": bits,
            "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 200, "dim": 8,
                        "spread": 1.0, "seed": 7},
            "arch": {"kind": "mlp", "input_dim": 8, "hidden": [16, 16], "classes": 4},
            "epochs": 3, "batch_size": 50, "seed": 3, "alpha": {"init": 1.0}}


def _cnn_config() -> dict:
    return {"schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
            "dataset": {"kind": "idx_images", "train_images": "idx/train_images.idx",
                        "train_labels": "idx/train_labels.idx",
                        "test_images": "idx/test_images.idx",
                        "test_labels": "idx/test_labels.idx",
                        "mean": 0.5, "std": 0.25, "classes": 3},
            "arch": {"kind": "cnn", "in_channels": 1, "image_size": 8, "classes": 3,
                     "channels": [4, 4, 4]},
            "epochs": 2, "batch_size": 16, "seed": 1, "alpha": {"init": 1.0}}


def _write_idx(n_train: int = 48, n_test: int = 24, size: int = 8, classes: int = 3) -> None:
    """Seeded class-prototype images plus noise under idx/, as uint8 IDX files."""
    os.makedirs("idx")
    rng = np.random.default_rng(5)
    protos = rng.integers(0, 256, size=(classes, size, size))
    for split, n in (("train", n_train), ("test", n_test)):
        labels = np.arange(n) % classes
        images = np.clip(protos[labels] // 2 + rng.integers(0, 128, size=(n, size, size)), 0, 255)
        with open(f"idx/{split}_images.idx", "wb") as f:
            f.write(struct.pack(">IIII", 0x803, n, size, size) + images.astype(np.uint8).tobytes())
        with open(f"idx/{split}_labels.idx", "wb") as f:
            f.write(struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def _served_logits(bundle_path: str, config_path: str) -> bytes:
    """The float64 logits a bundle serves on its run's eval split, at each
    bit-width it holds, in descending order."""
    _, eval_set = load_dataset(RunConfig.load(config_path).dataset)
    net = load_bundle(bundle_path).build_network()
    with no_grad():
        return b"".join(net.forward_at(eval_set.features, b, mode="eval").data.tobytes()
                        for b in sorted(net.bank.entries, reverse=True))


def compute_digests() -> dict[str, str]:
    """{run/artifact: sha256} of every pinned artifact, written under the
    current directory."""
    runs = {f"blobs-{mode.replace(':', '')}": _blob_config(mode) for mode in MODES}
    runs["cnn-coquant"] = _cnn_config()
    _write_idx()
    for name, config in runs.items():
        with open(f"{name}.json", "w") as f:
            json.dump(config, f)
        _cli("train", "--config", f"{name}.json", "--out", name)
        _cli("export", "--ckpt", f"{name}/checkpoint.ckpt", "--out", f"{name}/model.aqdb")
    os.makedirs("calibrated")
    _cli("calibrate", "--ckpt", "blobs-coquant/checkpoint.ckpt", "--bits", "5,3",
         "--out", "calibrated/checkpoint.ckpt")
    _cli("eval", "--ckpt", "calibrated/checkpoint.ckpt", "--bits", "8,5,4,3,2",
         "--out", "calibrated/eval_summary.json")
    _cli("export", "--ckpt", "calibrated/checkpoint.ckpt", "--out", "calibrated/model.aqdb")
    digests = {}
    for run in [*runs, "calibrated"]:
        for name in ARTIFACTS:
            path = f"{run}/{name}"
            if os.path.exists(path):
                with open(path, "rb") as f:
                    digests[path] = hashlib.sha256(f.read()).hexdigest()
        config = "blobs-coquant.json" if run == "calibrated" else f"{run}.json"
        logits = _served_logits(f"{run}/model.aqdb", config)
        digests[f"{run}/model.aqdb served logits"] = hashlib.sha256(logits).hexdigest()
    return digests


def test_artifacts_match_the_pinned_digests(tmp_path, monkeypatch):
    with open(DIGESTS) as f:
        pinned = json.load(f)
    here = platform_facts()
    if pinned["platform"] != here:
        pytest.fail(f"the digests were recorded on {pinned['platform']}; this platform is "
                    f"{here}, where the bits are not promised")
    monkeypatch.chdir(tmp_path)
    got = compute_digests()
    changed = sorted(path for path in pinned["sha256"] if got.get(path) != pinned["sha256"][path])
    assert set(got) == set(pinned["sha256"]) and not changed, (
        f"artifacts whose bytes changed: {changed}; if on purpose, regenerate with "
        f"'PYTHONPATH=src python tests/test_digests.py' and name them in CHANGES.md")


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        digests = compute_digests()
        os.chdir(here)
    with open(DIGESTS, "w") as f:
        json.dump({"platform": platform_facts(), "sha256": digests}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
