"""Untimed preparation for bundle_serve: train the desk_coquant model of one
seed, export it as `.aqdb`, and record the in-memory reference predictions
and Trainer.evaluate accuracies on the serve split.

    python3 perfbench/prepare_bundle.py --seed 3 --out .perfbench_work/cache/<key>/bundle_serve-seed3

Writes into a temporary directory and renames it to --out when complete.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from flexquant.autograd import no_grad  # noqa: E402
from flexquant.bundle import export_bundle  # noqa: E402
from flexquant.training import Trainer  # noqa: E402

from workloads import BITS, SERVE_BATCH, desk_config, serve_split  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    trainer = Trainer(desk_config(args.seed))
    trainer.run()
    tmp = f"{args.out}.tmp.{os.getpid()}"
    os.makedirs(tmp)
    try:
        export_bundle(os.path.join(tmp, "model.aqdb"), trainer.net)
        split = serve_split(args.seed)
        ref = {}
        with no_grad():
            for b in BITS:
                preds = np.concatenate([
                    np.argmax(trainer.net.forward_at(xb, b, mode="eval").data, axis=1)
                    for xb, _ in split.batches(SERVE_BATCH)])
                accuracy = trainer.evaluate(b, split, batch_size=SERVE_BATCH)
                if 100.0 * int(np.sum(preds == split.labels)) / len(split) != accuracy:
                    raise RuntimeError(f"{b}-bit predictions disagree with Trainer.evaluate")
                ref[f"preds{b}"] = preds
                ref[f"accuracy{b}"] = np.float64(accuracy)
        np.savez(os.path.join(tmp, "reference.npz"), **ref)
        os.replace(tmp, args.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
