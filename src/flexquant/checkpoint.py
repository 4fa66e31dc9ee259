"""Checkpoints capture everything a run needs to resume bitwise:
config, latent weights, every bank entry, optimizer velocities, epoch,
the exact RNG stream states, and the run record so far.

Layout (version 2, little-endian, CRC32 trailer over everything before it):
  magic "AQCK" | version u32 | config JSON | epoch u32
  weights:    count u32, then name | f64 array each, sorted by name
  bank:       n_bits u8, then bit u8 | bank entry each, descending
  velocities: count u32, then name | f64 array each, sorted by name
  RNG stream states JSON
  run record: metrics.csv text | per-epoch eval accuracy JSON (metrics.py)
Version 1 ends after the RNG states with the zero-shot bit-widths
(count u8, bit u8 each) and holds no run record; it loads with an empty one.
"""

from __future__ import annotations

import json

from .config import ConfigError, RunConfig
from .datasets import FormatError
from .metrics import MetricsLog
from .serialize import (ByteReader, ByteWriter, CorruptFileError, atomic_write_bytes,
                        check_bank_values, open_reader, read_array_of_shape, read_bank_entry,
                        write_bank_entry)

MAGIC = b"AQCK"
VERSION = 2


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

    w.text(trainer.log.metrics_csv_text())
    w.text(trainer.log.eval_accuracy_json())

    atomic_write_bytes(path, w.finish())


def load_checkpoint(path: str):
    """Rebuild a Trainer positioned exactly where the checkpoint was saved."""
    from .training import Trainer

    r = open_reader(path, MAGIC, (1, VERSION), "checkpoint")
    config_json = r.text()
    try:
        config = RunConfig.from_json(config_json)
    except ConfigError as e:
        raise CorruptFileError(f"{path} config: {e}") from None
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
    stored = set()
    for _ in range(r.u8()):
        b = r.u8()
        if not 2 <= b <= b1:
            raise CorruptFileError(f"bank bit-width {b} outside [2, {b1}]")
        if b in stored:
            raise CorruptFileError(f"bank bit-width {b} appears twice")
        stored.add(b)
        read_bank_entry(r, trainer.bank.ensure_entry(b), trainer.arch)
    missing = sorted(set(trainer.bits) - stored, reverse=True)
    if missing:
        raise CorruptFileError(f"checkpoint lacks bank entries for trained bit-widths {missing}")
    check_bank_values(trainer.bank.entries, trainer.arch)

    params = {name: p.shape for group in trainer.optimizer.groups
              for name, p in group.params.items()}
    trainer.optimizer.load_state(_read_named_arrays(r, params, "velocity"))

    try:
        trainer.streams.set_state(json.loads(r.text()))
    except ValueError as e:  # JSONDecodeError included
        raise CorruptFileError(f"{path} RNG states: {e}") from None

    if r.version == 1:
        r.raw(r.u8())  # the zero-shot slot; the bank entries already say which
    else:
        trainer.log = _read_record(r, config_json, trainer.epoch, path)
    r.done()
    return trainer


def _read_record(r: ByteReader, config_json: str, epoch: int, path: str) -> MetricsLog:
    """The run record, which must carry the checkpoint's config and cover
    every epoch before its own from the record's first (0, unless the run
    was resumed from a version-1 checkpoint) on."""
    try:
        log = MetricsLog.from_record(r.text(), r.text(), f"{path} run record")
    except FormatError as e:
        raise CorruptFileError(str(e)) from None
    if log.config_json != config_json:
        raise CorruptFileError(f"{path}: the run record's config line is not the checkpoint's")
    epochs = sorted(log.eval_accuracy)
    first = epochs[0] if epochs else epoch
    # no list for a span the record cannot cover: a corrupt epoch may be huge
    covered = list(range(first, epoch)) if epoch - first == len(epochs) else None
    if epochs != covered or sorted({row.epoch for row in log.batch_rows}) != covered:
        raise CorruptFileError(f"{path}: the run record must cover consecutive epochs up to "
                               f"{epoch - 1}; its eval accuracies cover {epochs}")
    return log


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
