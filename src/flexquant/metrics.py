"""The run record and its file formats, both ways: the per-batch CSV stream,
the per-epoch eval accuracies, the teacher histogram, the eval summary
JSON and report's per-bit table.

All writers are deterministic: float fields use repr (shortest round-trip)
and no timestamps appear anywhere, so identical runs produce identical
bytes. One function, csv_line, writes every CSV line, and the run record
keeps its rows as the lines it wrote.

The run record and the eval summary have one text form each: their
readers accept exactly what their writers write (up to the optional config
line of metrics.csv), so what they accept writes back to the same bytes,
and they raise an error naming the file (and line) otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

from .config import ConfigError, parse_json_object
from .datasets import FormatError

CONFIG_LINE_PREFIX = "# flexquant-metrics v1 config="

HISTOGRAM_COLUMNS = ("epoch", "student_b", "teacher_b", "count")

REPORT_TABLE_COLUMNS = ("b", "accuracy", "zero_shot", "reference_accuracy", "ratio_percent")


def csv_line(values) -> str:
    """One CSV line, line end included: None as an empty field, every other
    value as str writes it (repr, for a float). No field is quoted; the
    writers here hold no comma, quote or line break in a field."""
    return ",".join("" if v is None else str(v) for v in values) + "\n"


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

    def row(self) -> str:
        """This record's metrics.csv line."""
        return csv_line([getattr(self, col) for col in METRICS_COLUMNS])

    @classmethod
    def from_row(cls, row: list[str]) -> "BatchRecord":
        """The record these field texts parse to; FormatError naming the
        first bad field. int and float take more forms than row() writes,
        so a reader of outside text also compares row() with its input."""
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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise FormatError(text)
    return value


def _unquoted(text: str) -> str:
    if '"' in text:
        raise FormatError(text)
    return text


METRICS_COLUMNS = tuple(f.name for f in fields(BatchRecord))
METRICS_HEADER = csv_line(METRICS_COLUMNS)
_FIELD_PARSERS = {"int": int, "float": _finite_float, "str": _unquoted}
_FIELD_KINDS = {"int": "an integer", "float": "a finite number", "str": "unquoted text"}


class MetricsLog:
    """The run record: one metrics.csv row per batch and bit-width, kept as
    the line it is written as, plus the per-epoch eval accuracies, the one
    fact the rows do not hold. The teacher histogram and any per-epoch view
    derive from the rows."""

    def __init__(self, config_json: str | None):
        self.config_json = config_json  # None for a log read without its config line
        self.lines: list[str] = []  # the rows as BatchRecord.row() wrote them
        self.eval_accuracy: dict[int, dict[int, float]] = {}  # epoch -> b -> %

    def add_batch(self, record: BatchRecord) -> None:
        self.lines.append(record.row())

    def end_epoch(self, epoch: int, eval_accuracy: dict[int, float]) -> None:
        self.eval_accuracy[epoch] = dict(eval_accuracy)

    @property
    def batch_rows(self) -> list[BatchRecord]:
        """The rows as records, parsed from their lines on each call."""
        return list(self._records())

    def _records(self):
        """The rows as records, parsed one line at a time."""
        return (BatchRecord.from_row(line[:-1].split(",")) for line in self.lines)

    # -- serialization --------------------------------------------------------

    def metrics_csv_text(self) -> str:
        config = "" if self.config_json is None else f"{CONFIG_LINE_PREFIX}{self.config_json}\n"
        return config + METRICS_HEADER + "".join(self.lines)

    def eval_accuracy_json(self) -> str:
        """The per-epoch eval accuracies, epochs and bit-widths in the order
        they were recorded."""
        return json.dumps(self.eval_accuracy)  # int keys become strings

    def histogram_rows(self) -> list[tuple[int, int, int, int]]:
        return teacher_histogram((r.epoch, r.b, r.teacher_b)
                                 for r in self._records() if r.teacher_b is not None)

    def histogram_csv_text(self) -> str:
        return csv_line(HISTOGRAM_COLUMNS) + "".join(map(csv_line, self.histogram_rows()))

    # -- parsing --------------------------------------------------------------

    @classmethod
    def from_csv_text(cls, text: str | bytes, source: str) -> "MetricsLog":
        """The log whose metrics_csv_text() is text, with or without its
        config line; FormatError naming source and the first line that is
        not as that method writes it."""
        lines = _decode(text, source).split("\n")
        if lines.pop() != "":
            raise FormatError(f"{source} line {len(lines) + 1}: no line end")
        config_json = None
        if lines and lines[0].startswith("#"):
            if not lines[0].startswith(CONFIG_LINE_PREFIX):
                raise FormatError(f"{source} line 1: expected {CONFIG_LINE_PREFIX!r}")
            config_json = lines[0][len(CONFIG_LINE_PREFIX):]
        log = cls(config_json)
        at = int(config_json is not None)  # the header's index
        if len(lines) == at:
            raise FormatError(f"{source}: no header line")
        if lines[at] + "\n" != METRICS_HEADER:
            raise FormatError(f"{source} line {at + 1}: header {lines[at]!r}, "
                              f"expected {METRICS_HEADER[:-1]!r}")
        for n, line in enumerate(lines[at + 1:], at + 2):
            try:
                written = BatchRecord.from_row(line.split(",")).row()
            except FormatError as e:
                raise FormatError(f"{source} line {n}: {e}") from None
            if written != line + "\n":
                raise FormatError(f"{source} line {n}: {line!r} is not as written, "
                                  f"{written[:-1]!r}")
            log.lines.append(written)
        return log

    @classmethod
    def from_record(cls, csv_text: str, accuracy_json: str) -> "MetricsLog":
        """The log whose metrics_csv_text() and eval_accuracy_json() these
        texts are, exactly; FormatError, or ConfigError for text that is not
        a JSON object, naming the text ("metrics.csv" or "eval accuracy") but
        not the record, which the caller names."""
        log = cls.from_csv_text(csv_text, "metrics.csv")
        table = parse_json_object(accuracy_json, "eval accuracy")
        for e, accs in table.items():
            if not (_is_number_key(e) and isinstance(accs, dict)
                    and all(_is_number_key(b) and _is_number(a) for b, a in accs.items())):
                raise FormatError(f"eval accuracy of epoch {e!r} must map bit-widths to numbers")
            log.eval_accuracy[int(e)] = {int(b): a for b, a in accs.items()}
        if log.eval_accuracy_json() != accuracy_json:
            raise FormatError(f"eval accuracy is not as written, {log.eval_accuracy_json()!r}")
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
    """The per-bit results of an eval_summary_json() text, which must be
    exactly what that function writes for them; ConfigError naming source
    otherwise."""
    body = parse_json_object(text, source)
    bits, mode = body.get("bits"), body.get("mode")
    if not isinstance(bits, dict):
        raise ConfigError(f"{source}: \"bits\" must be an object")
    if not isinstance(mode, str):
        raise ConfigError(f"{source}: \"mode\" must be a string")
    out = {}
    for b_str, info in bits.items():
        if not _is_number_key(b_str):
            raise ConfigError(f"{source}: bit-width key {b_str!r} is not a number")
        if not (isinstance(info, dict) and _is_number(info.get("accuracy"))
                and 0 <= info["accuracy"] <= 100 and type(info.get("zero_shot")) is bool):
            raise ConfigError(f"{source}: bits[{b_str!r}] must be "
                              "{\"accuracy\": number in [0, 100], \"zero_shot\": bool}")
        out[int(b_str)] = BitResult(float(info["accuracy"]), info["zero_shot"])
    written = eval_summary_json({b: r.accuracy for b, r in out.items()},
                                {b for b, r in out.items() if r.zero_shot}, mode)
    if (written if isinstance(text, str) else written.encode()) != text:
        raise ConfigError(f"{source}: not as eval_summary_json writes it, {written!r}")
    return out


def report_table_csv(rows, delta: float | None) -> str:
    """report's per-bit table: (b, accuracy, zero_shot, reference accuracy,
    ratio percent) rows, None for a missing value, then delta_b if known."""
    if delta is not None:
        rows = [*rows, ("delta_b", None, None, None, delta)]
    return csv_line(REPORT_TABLE_COLUMNS) + "".join(map(csv_line, rows))


def _decode(text: str | bytes, source: str) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{source} is not UTF-8: {e}") from None


def _is_number_key(key: str) -> bool:
    """Whether key is the decimal text of an epoch (u32) or a bit-width: at
    most 10 digits, so int() never meets its limit on digits."""
    return key.isascii() and key.isdigit() and len(key) <= 10


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)
