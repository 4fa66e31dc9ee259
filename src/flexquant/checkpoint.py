"""Checkpoints capture everything a run needs to resume bitwise:
config, latent weights, every bank entry, optimizer velocities, epoch,
and the exact RNG stream states.
"""

from __future__ import annotations

import json

from .config import RunConfig
from .serialize import (ByteReader, ByteWriter, CorruptFileError, atomic_write_bytes,
                        read_bank_entry, read_file, write_bank_entry)

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

    calibrated = sorted(trainer.calibrated_bits)
    w.u8(len(calibrated))
    for b in calibrated:
        w.u8(b)

    atomic_write_bytes(path, w.finish())


def load_checkpoint(path: str):
    """Rebuild a Trainer positioned exactly where the checkpoint was saved."""
    from .training import Trainer

    buf = read_file(path)
    if buf[:4] != MAGIC:
        raise CorruptFileError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}")
    r = ByteReader(buf)
    r.raw(4)  # magic, already validated
    version = r.u32()
    if version != VERSION:
        raise CorruptFileError(f"unsupported checkpoint version {version}")
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
        b = r.u8()
        if not trainer.bank.has(b):
            trainer.bank.ensure_entry(b, borrow_from=trainer.bits.b1)
        read_bank_entry(r, trainer.bank.entry(b), trainer.arch)

    n_vel = r.u32()
    velocity = {}
    for _ in range(n_vel):
        name = r.text()
        velocity[name] = r.f64_array()
    trainer.optimizer.load_state(velocity)

    trainer.streams.set_state(json.loads(r.text()))

    n_cal = r.u8()
    trainer.calibrated_bits = {r.u8() for _ in range(n_cal)}
    r.done()
    return trainer
