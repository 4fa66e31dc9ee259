"""Checkpoints capture everything a run needs to resume bitwise:
config, latent weights, every bank entry, optimizer velocities, epoch,
and the exact RNG stream states.
"""

from __future__ import annotations

import json

from .config import RunConfig
from .serialize import (ByteReader, ByteWriter, CorruptFileError, atomic_write_bytes,
                        open_reader, read_array_of_shape, read_bank_entry, write_bank_entry)

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

    weights = trainer.net.weights
    stored = _read_named_arrays(r, {name: w.shape for name, w in weights.items()}, "weight")
    missing = sorted(set(weights) - set(stored))
    if missing:
        raise CorruptFileError(f"checkpoint lacks weights {missing}")
    for name, arr in stored.items():
        weights[name].data = arr

    b1 = trainer.bits.b1
    for _ in range(r.u8()):
        b = r.u8()
        if not 2 <= b <= b1:
            raise CorruptFileError(f"bank bit-width {b} outside [2, {b1}]")
        read_bank_entry(r, trainer.bank.ensure_entry(b), trainer.arch)

    params = {name: p.shape for group in trainer.optimizer.groups
              for name, p in group.params.items()}
    trainer.optimizer.load_state(_read_named_arrays(r, params, "velocity"))

    trainer.streams.set_state(json.loads(r.text()))

    r.raw(r.u8())  # the zero-shot slot; the bank entries already say which
    r.done()
    return trainer


def _read_named_arrays(r: ByteReader, shapes: dict[str, tuple], what: str) -> dict:
    """Name/array pairs as save_checkpoint wrote them: each name one of
    shapes' keys, at most once, with that shape."""
    out = {}
    for _ in range(r.u32()):
        name = r.text()
        if name not in shapes:
            raise CorruptFileError(f"checkpoint {what} {name!r} is not one this run has")
        if name in out:
            raise CorruptFileError(f"checkpoint {what} {name!r} appears twice")
        out[name] = read_array_of_shape(r, shapes[name], f"checkpoint {what} {name!r}")
    return out
