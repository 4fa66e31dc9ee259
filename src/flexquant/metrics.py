"""Run metrics: per-batch CSV stream, eval summary JSON, teacher histograms.

All writers are deterministic: float fields use repr (shortest round-trip)
and no timestamps appear anywhere, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

METRICS_COLUMNS = ("epoch", "batch", "mode", "b", "loss", "ce", "kl",
                   "teacher_b", "entropy_term", "distance_term",
                   "swap_student_fraction")

HISTOGRAM_COLUMNS = ("epoch", "student_b", "teacher_b", "count")


@dataclass
class BatchRecord:
    epoch: int
    batch: int
    mode: str
    b: int
    loss: float
    ce: float
    kl: float
    teacher_b: int | None = None
    entropy_term: float | None = None
    distance_term: float | None = None
    swap_student_fraction: float = 1.0

    def row(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [fmt(getattr(self, col)) for col in METRICS_COLUMNS]


@dataclass
class EpochRecord:
    """Aggregated view of one epoch: losses, accuracies, selection counts."""

    epoch: int
    train_loss: dict[int, float] = field(default_factory=dict)
    train_ce: dict[int, float] = field(default_factory=dict)
    train_kl: dict[int, float] = field(default_factory=dict)
    eval_accuracy: dict[int, float] = field(default_factory=dict)
    teacher_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    swap_student_fraction: dict[int, float] = field(default_factory=dict)


class MetricsLog:
    def __init__(self, config_json: str, mode: str):
        self.config_json = config_json
        self.mode = mode
        self.batch_rows: list[BatchRecord] = []
        self.epochs: list[EpochRecord] = []
        self._epoch_start = 0  # index of the current epoch's first batch row

    def add_batch(self, record: BatchRecord) -> None:
        self.batch_rows.append(record)

    def end_epoch(self, epoch: int, eval_accuracy: dict[int, float]) -> EpochRecord:
        """Aggregate the rows added since the previous end_epoch."""
        rows = self.batch_rows[self._epoch_start:]
        self._epoch_start = len(self.batch_rows)
        rec = EpochRecord(epoch=epoch, eval_accuracy=dict(eval_accuracy))
        bits = sorted({r.b for r in rows}, reverse=True)
        for b in bits:
            sub = [r for r in rows if r.b == b]
            n = len(sub)
            rec.train_loss[b] = sum(r.loss for r in sub) / n
            rec.train_ce[b] = sum(r.ce for r in sub) / n
            rec.train_kl[b] = sum(r.kl for r in sub) / n
            rec.swap_student_fraction[b] = sum(r.swap_student_fraction for r in sub) / n
            for r in sub:
                if r.teacher_b is not None:
                    key = (r.b, r.teacher_b)
                    rec.teacher_counts[key] = rec.teacher_counts.get(key, 0) + 1
        self.epochs.append(rec)
        return rec

    # -- serialization --------------------------------------------------------

    def metrics_csv_text(self) -> str:
        out = io.StringIO()
        out.write(f"# flexquant-metrics v1 config={self.config_json}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for r in self.batch_rows:
            writer.writerow(r.row())
        return out.getvalue()

    def histogram_rows(self) -> list[tuple[int, int, int, int]]:
        rows = []
        for rec in self.epochs:
            for (student_b, teacher_b), count in sorted(rec.teacher_counts.items()):
                rows.append((rec.epoch, student_b, teacher_b, count))
        return rows

    def histogram_csv_text(self) -> str:
        return histogram_csv(self.histogram_rows())


def histogram_csv(rows) -> str:
    """(epoch, student_b, teacher_b, count) rows as CSV text with a header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HISTOGRAM_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


def eval_summary_json(accuracies: dict[int, float], zero_shot_bits=(), mode: str = "") -> str:
    body = {
        "mode": mode,
        "bits": {
            str(b): {"accuracy": accuracies[b], "zero_shot": b in set(zero_shot_bits)}
            for b in sorted(accuracies, reverse=True)
        },
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def read_metrics_csv(path: str) -> tuple[dict, list[dict]]:
    """Parse a metrics CSV back into (embedded config, row dicts)."""
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        config = {}
        if first.startswith("#"):
            marker = "config="
            at = first.find(marker)
            if at >= 0:
                config = json.loads(first[at + len(marker):])
            header_line = f.readline()
        else:
            header_line = first
        header = next(csv.reader([header_line]))
        rows = []
        for parts in csv.reader(f):
            if not parts:
                continue
            rows.append(dict(zip(header, parts)))
    return config, rows


def histogram_from_metrics(rows: list[dict]) -> list[tuple[int, int, int, int]]:
    """Rebuild (epoch, student_b, teacher_b, count) from raw metrics rows."""
    counts: dict[tuple[int, int, int], int] = {}
    for r in rows:
        if r.get("teacher_b"):
            key = (int(r["epoch"]), int(r["b"]), int(r["teacher_b"]))
            counts[key] = counts.get(key, 0) + 1
    return [(e, s, t, c) for (e, s, t), c in sorted(counts.items())]
