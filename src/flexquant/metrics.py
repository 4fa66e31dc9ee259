"""Run metrics: per-batch CSV stream, eval summary JSON, teacher histograms.

All writers are deterministic: float fields use repr (shortest round-trip)
and no timestamps appear anywhere, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

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


class MetricsLog:
    """The run record: one BatchRecord per batch and bit-width, plus the
    per-epoch eval accuracies, the one fact the rows do not hold. The
    teacher histogram and any per-epoch view derive from the rows."""

    def __init__(self, config_json: str):
        self.config_json = config_json
        self.batch_rows: list[BatchRecord] = []
        self.eval_accuracy: dict[int, dict[int, float]] = {}  # epoch -> b -> %

    def add_batch(self, record: BatchRecord) -> None:
        self.batch_rows.append(record)

    def end_epoch(self, epoch: int, eval_accuracy: dict[int, float]) -> None:
        self.eval_accuracy[epoch] = dict(eval_accuracy)

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
        return teacher_histogram((r.epoch, r.b, r.teacher_b)
                                 for r in self.batch_rows if r.teacher_b is not None)

    def histogram_csv_text(self) -> str:
        return histogram_csv(self.histogram_rows())


def teacher_histogram(choices) -> list[tuple[int, int, int, int]]:
    """Count (epoch, student_b, teacher_b) choices into sorted
    (epoch, student_b, teacher_b, count) rows."""
    return [(*choice, n) for choice, n in sorted(Counter(choices).items())]


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


def read_metrics_csv(path: str) -> list[dict]:
    """Row dicts of a metrics CSV; '#' lines (the embedded config) are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))
