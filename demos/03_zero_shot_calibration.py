# Zero-shot bit-widths: run a precision the network never trained on.
#
# Weights need nothing new: 3-bit codes are the 8-bit codes shifted right.
# What a fresh bit-width lacks is batch-norm statistics. This script
# trains with {8, 4, 2}, then runs 3-bit inference before and after
# statistics calibration, with weights frozen throughout.

import numpy as np

from flexquant.config import RunConfig
from flexquant.training import Trainer

cfg = RunConfig.from_dict({
    "schema_version": 1,
    "mode": "coquant",
    "bits": [8, 4, 2],
    "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000,
                "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                "center_offset": 10.0},
    "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
    "epochs": 20, "batch_size": 200, "seed": 0,
    "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
})

print("Training with bit-widths {8, 4, 2}...")
trainer = Trainer(cfg)
final = trainer.run()
for b in (8, 4, 2):
    print(f"  {b}-bit accuracy: {final[b]:.2f}%")

snapshot = {n: w.data.copy() for n, w in trainer.net.weights.items()}

print("\n3-bit execution, never trained:")
trainer.bank.ensure_entry(3)  # borrow learned BN affine + clip from 4-bit
before = trainer.evaluate(3)
print(f"  uncalibrated (initial statistics): {before:.2f}%")

trainer.calibrate(3)  # forward passes only; repopulates running mean/var
after = trainer.evaluate(3)
print(f"  after statistics calibration:      {after:.2f}%")

unchanged = all(np.array_equal(trainer.net.weights[n].data, snapshot[n])
                for n in snapshot)
print(f"\nweights bitwise unchanged by calibration: {unchanged}")
print("Calibration touches running statistics only; no gradient ever flows.")

print("\nAll seven precisions from one weight set:")
for b in range(8, 1, -1):
    if not trainer.bank.has(b):
        trainer.calibrate(b)
    tag = " (zero-shot)" if b in trainer.calibrated_bits else ""
    print(f"  {b}-bit: {trainer.evaluate(b):6.2f}%{tag}")
