# Deployment bundles: ship integer codes, not floats.
#
# The bundle stores each quantized layer once as 8-bit codes (one byte per
# weight, a quarter of float32) plus per-precision BN/clipping banks.
# Loading it rebuilds an eval-only network whose outputs match the
# in-memory network exactly, at every bit-width.

import os
import tempfile

import numpy as np

from flexquant import FlexquantError
from flexquant.autograd import no_grad
from flexquant.bundle import export_bundle, load_bundle
from flexquant.config import RunConfig
from flexquant.training import Trainer

cfg = RunConfig.from_dict({
    "schema_version": 1,
    "mode": "adabits",
    "bits": [8, 4, 2],
    "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 2000,
                "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                "center_offset": 10.0},
    "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
    "epochs": 10, "batch_size": 200, "seed": 0,
    "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
})

print("Training a small run to export...")
trainer = Trainer(cfg)
trainer.run()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.aqdb")
    size = export_bundle(path, trainer.net)

    n_coded = sum(trainer.net.weights[n].data.size for n in trainer.arch.quantized_names)
    n_total = sum(w.data.size for w in trainer.net.weights.values())
    print(f"\nwrote {path}")
    print(f"  quantized weights : {n_coded} -> {size.code_payload} bytes "
          f"({100 * size.code_payload / (4 * n_coded):.0f}% of float32)")
    print(f"  full-prec layers  : {size.fp_weight_payload} bytes (first/last, f64)")
    print(f"  BN + clip banks   : {size.bank_payload} bytes")
    print(f"  framing + CRC     : {size.framing} bytes")
    print(f"  total             : {size.total} bytes "
          f"(float32 dump of all weights would be {4 * n_total})")

    print("\nReloading and comparing against the live network:")
    net = load_bundle(path).build_network()
    x = trainer.eval_set.features[:200]
    for b in (8, 4, 2):
        with no_grad():
            live = trainer.net.forward_at(x, b, mode="eval").data
            shipped = net.forward_at(x, b, mode="eval").data
        print(f"  {b}-bit max |logit difference| = {np.max(np.abs(live - shipped)):.2e}")

    print("\nFlip one byte and the CRC catches it:")
    blob = bytearray(open(path, "rb").read())
    blob[100] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    try:
        load_bundle(path)
    except FlexquantError as e:
        print(f"  {type(e).__name__}: {e}")
