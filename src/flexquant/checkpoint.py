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
Each section has one codec in serialize: write/read_named_arrays (each array
a ByteWriter/ByteReader.dims header, then its f64s), the bank's
check_bank_bits and write/read_bank_entry, and ByteReader.parsed for the text
sections. The reader's done() checks every float finite; every check raises
through ByteReader.fail, so each error names the file.
"""

from __future__ import annotations

import json

from .config import RunConfig, parse_json, parse_json_object
from .metrics import MetricsLog
from .serialize import (ByteWriter, atomic_write_bytes, check_bank_bits, open_reader,
                        read_bank_entry, read_named_arrays, write_bank_entry, write_named_arrays)

MAGIC = b"AQCK"
VERSION = 2


def save_checkpoint(path: str, trainer) -> None:
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.text(trainer.config.to_json())
    w.u32(trainer.epoch)
    write_named_arrays(w, {name: t.data for name, t in trainer.net.weights.items()})
    bits = sorted(trainer.bank.entries, reverse=True)
    w.u8(len(bits))
    for b in bits:
        w.u8(b)
        write_bank_entry(w, trainer.bank.entries[b], trainer.arch)
    write_named_arrays(w, trainer.optimizer.state())
    w.text(json.dumps(trainer.streams.state(), sort_keys=True))
    w.text(trainer.log.metrics_csv_text())
    w.text(trainer.log.eval_accuracy_json())
    atomic_write_bytes(path, w.finish())


def load_checkpoint(path: str):
    """Rebuild a Trainer positioned exactly where the checkpoint was saved."""
    from .training import Trainer

    r = open_reader(path, MAGIC, (1, VERSION), "checkpoint")
    # the section is named once: by parsed, not by RunConfig.from_json
    config_json, config = r.parsed(
        lambda text: (text, RunConfig.from_dict(parse_json_object(text, "its text"))), "config")
    trainer = Trainer(config)
    trainer.epoch = r.u32()

    weights = trainer.net.weights
    stored = read_named_arrays(r, {name: w.shape for name, w in weights.items()},
                               "checkpoint weight")
    missing = sorted(set(weights) - set(stored))
    if missing:
        raise r.fail(f"checkpoint lacks weights {missing}")
    for name, arr in stored.items():
        weights[name].data = arr

    bits = []  # the bank interleaves bit-widths and entries, so each is checked as read
    for _ in range(r.u8()):
        bits.append(r.u8())
        check_bank_bits(r, bits, trainer.bits.b1)
        read_bank_entry(r, trainer.bank.ensure_entry(bits[-1]), trainer.arch, bits[-1])
    missing = sorted(set(trainer.bits) - set(bits), reverse=True)
    if missing:
        raise r.fail(f"checkpoint lacks bank entries for trained bit-widths {missing}")

    params = {name: p.shape for group in trainer.optimizer.groups
              for name, p in group.params.items()}
    trainer.optimizer.load_state(read_named_arrays(r, params, "checkpoint velocity"))
    r.parsed(lambda text: trainer.streams.set_state(parse_json(text)), "RNG states")

    if r.version == 1:
        r.raw(r.u8())  # the zero-shot slot; the bank entries already say which
    else:
        # two texts: the metrics.csv text, then the eval accuracy JSON
        log = r.parsed(lambda csv_text: MetricsLog.from_record(
            csv_text, r.text("run record eval accuracy")), "run record")
        trainer.log = _check_record(r, log, config_json, trainer.epoch)
    r.done()
    return trainer


def _check_record(r, log: MetricsLog, config_json: str, epoch: int) -> MetricsLog:
    """The run record, which must carry the checkpoint's config and cover
    every epoch before its own from the record's first (0, unless the run
    was resumed from a version-1 checkpoint) on; r's error otherwise."""
    if log.config_json != config_json:
        raise r.fail("the run record's config line is not the checkpoint's")
    epochs = sorted(log.eval_accuracy)
    rows = sorted({row.epoch for row in log.batch_rows})
    first = min(epochs[:1] + rows[:1], default=epoch)
    for what, got in (("eval accuracies", epochs), ("batch rows", rows)):
        # no list longer than got: a corrupt epoch may be huge
        if len(got) != epoch - first or got != list(range(first, epoch)):
            raise r.fail(f"the run record must cover consecutive epochs up to {epoch - 1}; "
                         f"its {what} cover {got}")
    return log
