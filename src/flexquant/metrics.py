"""The run record and its file formats, both ways: the per-batch CSV stream,
the per-epoch eval accuracies, the teacher histogram, the eval summary
JSON and report's per-bit table.

All writers are deterministic: float fields use repr (shortest round-trip)
and no timestamps appear anywhere, so identical runs produce identical
bytes. Each reader accepts exactly what its writer writes (up to the
optional config line of metrics.csv) and raises an error naming the file
and line otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

from .config import ConfigError, parse_json_object
from .datasets import FormatError

CONFIG_LINE_PREFIX = "# flexquant-metrics v1 config="

HISTOGRAM_COLUMNS = ("epoch", "student_b", "teacher_b", "count")

REPORT_TABLE_COLUMNS = ("b", "accuracy", "zero_shot", "reference_accuracy", "ratio_percent")


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

    @classmethod
    def from_row(cls, row: list[str]) -> "BatchRecord":
        """The record row() wrote; FormatError naming the first bad field."""
        if len(row) != len(METRICS_COLUMNS):
            raise FormatError(f"{len(row)} fields, expected {len(METRICS_COLUMNS)}")
        values = {}
        for f, text in zip(fields(cls), row):
            kind, _, optional = f.type.partition(" | ")
            if optional and text == "":
                values[f.name] = None
                continue
            try:
                values[f.name] = _FIELD_PARSERS[kind](text)
            except ValueError:
                raise FormatError(f"{f.name} {text!r} is not {_FIELD_KINDS[kind]}") from None
        return cls(**values)


METRICS_COLUMNS = tuple(f.name for f in fields(BatchRecord))
_FIELD_PARSERS = {"int": int, "float": float, "str": str}
_FIELD_KINDS = {"int": "an integer", "float": "a number", "str": "text"}


class MetricsLog:
    """The run record: one BatchRecord per batch and bit-width, plus the
    per-epoch eval accuracies, the one fact the rows do not hold. The
    teacher histogram and any per-epoch view derive from the rows."""

    def __init__(self, config_json: str | None):
        self.config_json = config_json  # None for a log read without its config line
        self.batch_rows: list[BatchRecord] = []
        self.eval_accuracy: dict[int, dict[int, float]] = {}  # epoch -> b -> %

    def add_batch(self, record: BatchRecord) -> None:
        self.batch_rows.append(record)

    def end_epoch(self, epoch: int, eval_accuracy: dict[int, float]) -> None:
        self.eval_accuracy[epoch] = dict(eval_accuracy)

    # -- serialization --------------------------------------------------------

    def metrics_csv_text(self) -> str:
        out = io.StringIO()
        if self.config_json is not None:
            out.write(f"{CONFIG_LINE_PREFIX}{self.config_json}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for r in self.batch_rows:
            writer.writerow(r.row())
        return out.getvalue()

    def eval_accuracy_json(self) -> str:
        """The per-epoch eval accuracies, epochs and bit-widths in the order
        they were recorded."""
        return json.dumps(self.eval_accuracy)  # int keys become strings

    def histogram_rows(self) -> list[tuple[int, int, int, int]]:
        return teacher_histogram((r.epoch, r.b, r.teacher_b)
                                 for r in self.batch_rows if r.teacher_b is not None)

    def histogram_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(HISTOGRAM_COLUMNS)
        writer.writerows(self.histogram_rows())
        return out.getvalue()

    # -- parsing --------------------------------------------------------------

    @classmethod
    def from_csv_text(cls, text: str | bytes, source: str) -> "MetricsLog":
        """The log metrics_csv_text() wrote, with or without its config line;
        FormatError naming source and the line otherwise."""
        text = _decode(text, source)
        config_json, body, skipped = None, text, 0
        if text.startswith("#"):
            first, _, body = text.partition("\n")
            if not first.startswith(CONFIG_LINE_PREFIX):
                raise FormatError(f"{source} line 1: expected {CONFIG_LINE_PREFIX!r}")
            config_json, skipped = first[len(CONFIG_LINE_PREFIX):], 1
        log = cls(config_json)
        reader = csv.reader(io.StringIO(body, newline=""))
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{source}: no header line")
            if tuple(header) != METRICS_COLUMNS:
                raise FormatError(f"{source} line {skipped + reader.line_num}: header "
                                  f"{','.join(header)!r}, expected {','.join(METRICS_COLUMNS)!r}")
            for row in reader:
                try:
                    log.batch_rows.append(BatchRecord.from_row(row))
                except FormatError as e:
                    raise FormatError(f"{source} line {skipped + reader.line_num}: {e}") from None
        except csv.Error as e:
            raise FormatError(f"{source} line {skipped + reader.line_num}: {e}") from None
        return log

    @classmethod
    def from_record(cls, csv_text: str, accuracy_json: str, source: str) -> "MetricsLog":
        """The log whose metrics_csv_text() and eval_accuracy_json() these are."""
        log = cls.from_csv_text(csv_text, source)
        try:
            table = json.loads(accuracy_json)
        except ValueError as e:
            raise FormatError(f"{source} eval accuracy is not valid JSON: {e}") from None
        if not isinstance(table, dict):
            raise FormatError(f"{source} eval accuracy must be a JSON object")
        for e, accs in table.items():
            if not (_is_number_key(e) and isinstance(accs, dict)
                    and all(_is_number_key(b) and _is_number(a) for b, a in accs.items())):
                raise FormatError(f"{source} eval accuracy of epoch {e!r} must map "
                                  "bit-widths to numbers")
            log.eval_accuracy[int(e)] = {int(b): a for b, a in accs.items()}
        return log


def teacher_histogram(choices) -> list[tuple[int, int, int, int]]:
    """Count (epoch, student_b, teacher_b) choices into sorted
    (epoch, student_b, teacher_b, count) rows."""
    return [(*choice, n) for choice, n in sorted(Counter(choices).items())]


class BitResult(NamedTuple):
    """One bit-width of an eval summary."""
    accuracy: float
    zero_shot: bool


def eval_summary_json(accuracies: dict[int, float], zero_shot_bits=(), mode: str = "") -> str:
    body = {
        "mode": mode,
        "bits": {
            str(b): {"accuracy": accuracies[b], "zero_shot": b in set(zero_shot_bits)}
            for b in sorted(accuracies, reverse=True)
        },
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def read_eval_summary(text: str | bytes, source: str) -> dict[int, BitResult]:
    """The per-bit results of an eval_summary_json() text; ConfigError naming
    source otherwise."""
    bits = parse_json_object(text, source).get("bits")
    if not isinstance(bits, dict):
        raise ConfigError(f"{source}: \"bits\" must be an object")
    out = {}
    for b_str, info in bits.items():
        if not _is_number_key(b_str):
            raise ConfigError(f"{source}: bit-width key {b_str!r} is not a number")
        if not (isinstance(info, dict) and _is_number(info.get("accuracy"))
                and type(info.get("zero_shot")) is bool):
            raise ConfigError(f"{source}: bits[{b_str!r}] must be "
                              "{\"accuracy\": number, \"zero_shot\": bool}")
        out[int(b_str)] = BitResult(info["accuracy"], info["zero_shot"])
    return out


def report_table_csv(rows, delta: float | None) -> str:
    """report's per-bit table: (b, accuracy, zero_shot, reference accuracy,
    ratio percent) rows, None for a missing value, then delta_b if known."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_TABLE_COLUMNS)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    if delta is not None:
        writer.writerow(("delta_b", "", "", "", repr(delta)))
    return out.getvalue()


def _decode(text: str | bytes, source: str) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{source} is not UTF-8: {e}") from None


def _is_number_key(key: str) -> bool:
    return key.isascii() and key.isdigit()


def _is_number(value) -> bool:
    return type(value) in (int, float)
