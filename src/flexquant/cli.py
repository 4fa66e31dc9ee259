"""Command-line harness: train, eval, calibrate, export, report.

All artifact writes are atomic (temp file + rename) and contain no
timestamps, so reruns with the same seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .bundle import export_bundle
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, DatasetSpec, RunConfig, parse_json_object
from .metrics import eval_summary_json, histogram_csv, read_metrics_csv, teacher_histogram
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
    os.makedirs(out_dir, exist_ok=True)
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
    accuracies = trainer.run()
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


def _calibration_dataset(trainer: Trainer, spec_arg: str | None):
    if not spec_arg or spec_arg == "train":
        return None  # trainer falls back to its own training split
    spec = DatasetSpec.from_dict(parse_json_object(read_file(spec_arg), "--data"))
    train, _ = load_dataset(spec)
    return train


def cmd_calibrate(args) -> int:
    trainer = load_checkpoint(args.ckpt)
    data = _calibration_dataset(trainer, args.data)
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


def _read_summary_bits(path: str) -> dict[str, dict]:
    """The "bits" table of an eval summary JSON: bit-width strings mapping to
    {"accuracy": number, "zero_shot": bool}; ConfigError naming the file otherwise."""
    bits = parse_json_object(read_file(path), path).get("bits")
    if not isinstance(bits, dict):
        raise ConfigError(f"{path}: \"bits\" must be an object")
    for b_str, info in bits.items():
        if not (b_str.isascii() and b_str.isdigit()):
            raise ConfigError(f"{path}: bit-width key {b_str!r} is not a number")
        if not (isinstance(info, dict) and type(info.get("accuracy")) in (int, float)
                and type(info.get("zero_shot")) is bool):
            raise ConfigError(f"{path}: bits[{b_str!r}] must be "
                              "{\"accuracy\": number, \"zero_shot\": bool}")
    return bits


def cmd_report(args) -> int:
    rows = read_metrics_csv(args.metrics)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.metrics))
    os.makedirs(out_dir, exist_ok=True)

    choices = ((int(r["epoch"]), int(r["b"]), int(r["teacher_b"]))
               for r in rows if r.get("teacher_b"))
    atomic_write_bytes(os.path.join(out_dir, "report_teacher_histogram.csv"),
                       histogram_csv(teacher_histogram(choices)).encode())

    summary_path = args.summary or os.path.join(
        os.path.dirname(os.path.abspath(args.metrics)), "eval_summary.json")
    table_rows = []
    delta = None
    if os.path.exists(summary_path):
        summary = _read_summary_bits(summary_path)
        reference = _read_summary_bits(args.reference) if args.reference else {}
        for b_str in sorted(summary, key=int, reverse=True):
            info = summary[b_str]
            ref_acc = reference.get(b_str, {}).get("accuracy")
            ratio = 100.0 * info["accuracy"] / ref_acc if ref_acc else None
            table_rows.append((b_str, info["accuracy"], info["zero_shot"], ref_acc, ratio))
        if args.reference:
            common = {
                int(b): summary[b]["accuracy"]
                for b in summary
                if b in reference and not summary[b]["zero_shot"]
            }
            if common:
                delta = delta_b(common, {b: reference[str(b)]["accuracy"] for b in common})
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(("b", "accuracy", "zero_shot", "reference_accuracy", "ratio_percent"))
    for row in table_rows:
        writer.writerow(["" if v is None else v for v in row])
    if delta is not None:
        writer.writerow(("delta_b", "", "", "", repr(delta)))
    atomic_write_bytes(os.path.join(out_dir, "report_table.csv"), table.getvalue().encode())

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
                   help="DatasetSpec JSON file, or 'train' for the run's own data")
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
