# Collaborative training against the baselines.
#
# One shared-weight MLP trains to run at 8, 4, and 2 bits. The
# collaborative mode picks a teacher per batch (lowest entropy +
# weight-distance score), swaps random blocks to the teacher's precision
# on a depth-weighted curriculum, and distills soft logits. The baselines
# differ only in what they share across precisions and whether they distill.

import numpy as np

from flexquant.config import RunConfig
from flexquant.training import Trainer, delta_b

BITS = [8, 4, 2]


def config(mode, bits=BITS, seed=0):
    return RunConfig.from_dict({
        "schema_version": 1,
        "mode": mode,
        "bits": bits,
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000,
                    "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                    "center_offset": 10.0},
        "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
        "epochs": 20, "batch_size": 200, "seed": seed,
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    })


print("Training one run per mode (20 epochs each, ~3s per run)...\n")
results = {}
for mode in ("coquant", "adabits", "switchable_bn", "joint"):
    trainer = Trainer(config(mode))
    results[mode] = trainer.run()
    if mode == "coquant":
        coquant_trainer = trainer

reference = {}
for b in BITS:
    t = Trainer(config(f"individual:{b}", bits=[b]))
    reference[b] = t.run()[b]

header = "mode            " + "".join(f"{b:>8}b" for b in BITS) + "   delta_B"
print(header)
print("-" * len(header))
for mode, acc in results.items():
    d = delta_b(acc, reference)
    row = "".join(f"{acc[b]:9.2f}" for b in BITS)
    print(f"{mode:15s}{row}{d:10.2f}")
row = "".join(f"{reference[b]:9.2f}" for b in BITS)
print(f"{'individual':15s}{row}{100.0:10.2f}")

print("\nTeacher selection counts for the 2-bit student (per epoch):")
by_epoch = {}
for epoch, student, teacher, count in coquant_trainer.log.histogram_rows():
    if student == 2:
        by_epoch.setdefault(epoch, {})[teacher] = count
print("epoch   8-bit   4-bit")
led = {8: [], 4: []}
for epoch in sorted(by_epoch):
    counts = by_epoch[epoch]
    print(f"{epoch:5d}{counts.get(8, 0):8d}{counts.get(4, 0):8d}")
    if counts.get(8, 0) != counts.get(4, 0):
        led[max((8, 4), key=lambda t: counts.get(t, 0))].append(epoch)

totals = {t: sum(c.get(t, 0) for c in by_epoch.values()) for t in (8, 4)}
top = max(totals, key=totals.get)
other = 4 if top == 8 else 8
print(f"\nThe {top}-bit teacher won {totals[top]} of {sum(totals.values())} batches and "
      f"led {len(led[top])} of {len(by_epoch)} epochs;")
print(f"the {other}-bit teacher led {len(led[other])}"
      + (f", the first at epoch {led[other][0]}." if led[other] else "."))
