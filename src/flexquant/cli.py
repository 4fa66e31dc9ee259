"""Command-line harness: train, eval, calibrate, export, report.

All artifact writes are atomic (temp file + rename) and contain no
timestamps, so reruns with the same seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bundle import export_bundle
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, DatasetSpec, RunConfig, parse_json_object
from .metrics import MetricsLog, eval_summary_json, read_eval_summary, report_table_csv
from .datasets import load_dataset
from .numerics import FlexquantError
from .serialize import atomic_write_bytes, read_file
from .training import Trainer, delta_b


def _parse_bits(text: str) -> list[int]:
    try:
        return [int(b) for b in text.split(",") if b]
    except ValueError:
        raise ConfigError(f"--bits expects a comma-separated list, got {text!r}") from None


def _write_run_outputs(out_dir: str, trainer: Trainer, accuracies: dict[int, float]) -> None:
    atomic_write_bytes(os.path.join(out_dir, "metrics.csv"),
                       trainer.log.metrics_csv_text().encode())
    atomic_write_bytes(os.path.join(out_dir, "teacher_histogram.csv"),
                       trainer.log.histogram_csv_text().encode())
    atomic_write_bytes(
        os.path.join(out_dir, "eval_summary.json"),
        eval_summary_json(accuracies, trainer.calibrated_bits, trainer.config.mode).encode(),
    )
    save_checkpoint(os.path.join(out_dir, "checkpoint.ckpt"), trainer)


def cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.resume:
        trainer = load_checkpoint(args.resume)
        if trainer.config.to_json() != config.to_json():
            raise ConfigError("--resume checkpoint was produced by a different config")
    else:
        trainer = Trainer(config)
    # a checkpoint after every epoch, so a crash loses at most one epoch
    os.makedirs(args.out, exist_ok=True)
    while trainer.epoch < config.epochs:
        trainer.train_epoch()
        save_checkpoint(os.path.join(args.out, "checkpoint.ckpt"), trainer)
    accuracies = trainer.run()  # the final eval, and direct mode's bank copies
    _write_run_outputs(args.out, trainer, accuracies)
    for b in sorted(accuracies, reverse=True):
        print(f"bit-width {b}: {accuracies[b]:.2f}%")
    return 0


def cmd_eval(args) -> int:
    trainer = load_checkpoint(args.ckpt)
    accuracies = {b: trainer.evaluate(b) for b in _parse_bits(args.bits)}
    text = eval_summary_json(accuracies, trainer.calibrated_bits, trainer.config.mode)
    if args.out:
        atomic_write_bytes(args.out, text.encode())
    print(text, end="")
    return 0


def _calibration_dataset(spec_arg: str | None):
    if spec_arg is None:
        return None  # trainer falls back to its own training split
    spec = DatasetSpec.from_dict(parse_json_object(read_file(spec_arg), "--data")).validate()
    train, _ = load_dataset(spec)
    return train


def cmd_calibrate(args) -> int:
    trainer = load_checkpoint(args.ckpt)
    data = _calibration_dataset(args.data)
    for b in _parse_bits(args.bits):
        trainer.calibrate(b, dataset=data)
        print(f"calibrated bit-width {b}")
    save_checkpoint(args.out or args.ckpt, trainer)
    return 0


def cmd_export(args) -> int:
    trainer = load_checkpoint(args.ckpt)
    report = export_bundle(args.out, trainer.net)
    print(f"wrote {args.out}: {report.total} bytes "
          f"(codes {report.code_payload}, fp weights {report.fp_weight_payload}, "
          f"banks {report.bank_payload}, framing {report.framing})")
    return 0


def cmd_report(args) -> int:
    log = MetricsLog.from_csv_text(read_file(args.metrics), args.metrics)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.metrics))
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_bytes(os.path.join(out_dir, "report_teacher_histogram.csv"),
                       log.histogram_csv_text().encode())

    summary_path = args.summary or os.path.join(
        os.path.dirname(os.path.abspath(args.metrics)), "eval_summary.json")
    table_rows = []
    delta = None
    if os.path.exists(summary_path):
        summary = read_eval_summary(read_file(summary_path), summary_path)
        reference = (read_eval_summary(read_file(args.reference), args.reference)
                     if args.reference else {})
        for b in sorted(summary, reverse=True):
            result = summary[b]
            ref_acc = reference[b].accuracy if b in reference else None
            ratio = 100.0 * result.accuracy / ref_acc if ref_acc else None
            table_rows.append((b, result.accuracy, result.zero_shot, ref_acc, ratio))
        # the trained bits with a ratio: a 0% reference accuracy gives none
        common = {b: acc for b, acc, zero_shot, _, ratio in table_rows
                  if ratio is not None and not zero_shot}
        if common:
            delta = delta_b(common, {b: reference[b].accuracy for b in common})
    atomic_write_bytes(os.path.join(out_dir, "report_table.csv"),
                       report_table_csv(table_rows, delta).encode())

    for row in table_rows:
        tag = " (zero-shot)" if row[2] else ""
        print(f"bit-width {row[0]}: {row[1]:.2f}%{tag}")
    if delta is not None:
        print(f"delta_b = {delta}")
    print(f"report written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexquant",
        description="Train and run a single network at multiple bit-widths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--out", default="run", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint at given bit-widths")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bits", required=True, help="comma-separated, e.g. 8,4,2")
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("calibrate", help="zero-shot BN calibration for missing bit-widths")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--data", default=None,
                   help="DatasetSpec JSON file (default: the run's own training split)")
    p.add_argument("--out", default=None, help="write the updated checkpoint here")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("export", help="write a deployment bundle")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("report", help="per-bit table and teacher histograms from metrics")
    p.add_argument("--metrics", required=True)
    p.add_argument("--summary", default=None, help="eval summary JSON (default: sibling)")
    p.add_argument("--reference", default=None,
                   help="eval summary JSON of individual-quantization runs")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FlexquantError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
