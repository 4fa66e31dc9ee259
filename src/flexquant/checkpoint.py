"""Checkpoints capture everything a run needs to resume bitwise:
config, latent weights, every bank entry, optimizer velocities, epoch,
and the exact RNG stream states.
"""

from __future__ import annotations

import json

from .config import RunConfig
from .serialize import (ByteWriter, atomic_write_bytes, open_reader, read_bank_entry,
                        write_bank_entry)

MAGIC = b"AQCK"
VERSION = 1


def save_checkpoint(path: str, trainer) -> None:
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.text(trainer.config.to_json())
    w.u32(trainer.epoch)

    weights = trainer.net.weights
    w.u32(len(weights))
    for name in sorted(weights):
        w.text(name)
        w.f64_array(weights[name].data)

    bank = trainer.bank
    bits = sorted(bank.entries, reverse=True)
    w.u8(len(bits))
    for b in bits:
        w.u8(b)
        write_bank_entry(w, bank.entries[b], trainer.arch)

    velocity = trainer.optimizer.state()
    w.u32(len(velocity))
    for name in sorted(velocity):
        w.text(name)
        w.f64_array(velocity[name])

    w.text(json.dumps(trainer.streams.state(), sort_keys=True))

    # version-1 slot: the zero-shot bit-widths, derived from the bank
    calibrated = sorted(trainer.calibrated_bits)
    w.u8(len(calibrated))
    for b in calibrated:
        w.u8(b)

    atomic_write_bytes(path, w.finish())


def load_checkpoint(path: str):
    """Rebuild a Trainer positioned exactly where the checkpoint was saved."""
    from .training import Trainer

    r = open_reader(path, MAGIC, VERSION, "checkpoint")
    config = RunConfig.from_json(r.text())
    trainer = Trainer(config)
    trainer.epoch = r.u32()

    n_weights = r.u32()
    for _ in range(n_weights):
        name = r.text()
        trainer.net.weights[name].data = r.f64_array()
    trainer.net.after_update()

    n_bits = r.u8()
    for _ in range(n_bits):
        read_bank_entry(r, trainer.bank.ensure_entry(r.u8()), trainer.arch)

    n_vel = r.u32()
    velocity = {}
    for _ in range(n_vel):
        name = r.text()
        velocity[name] = r.f64_array()
    trainer.optimizer.load_state(velocity)

    trainer.streams.set_state(json.loads(r.text()))

    r.raw(r.u8())  # the zero-shot slot; the bank entries already say which
    r.done()
    return trainer
