"""Run configuration: one JSON file defines an experiment completely.

Unknown keys are hard errors. A typo in a hyperparameter name must fail
loudly instead of silently running with a default.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields

from .network import ArchSpec, BitWidthSet, ContractError, mlp, small_cnn
from .numerics import FlexquantError
from .quantizers import BitWidthError

SCHEMA_VERSION = 1

MODES = ("coquant", "joint", "switchable_bn", "adabits",
         "individual", "progressive_desc", "progressive_asc", "direct")


class ConfigError(FlexquantError, ValueError):
    pass


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


# What a JSON value must be for a field annotated with each type; an int
# passes for a float (and is kept as given), and a float must be finite.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "list": list, "dict": dict}


def _check_type(value, type_name: str, where: str) -> None:
    want = _JSON_TYPES[type_name]
    if isinstance(value, bool) or not isinstance(value, want):
        raise ConfigError(f"{where} must be {type_name}, got {value!r}")
    # false for NaN, the infinities and an int too large for a float
    if type_name == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_field_types(settings, where: str) -> None:
    for f in fields(settings):
        _check_type(getattr(settings, f.name), f.type, f"{where}.{f.name}")


def _parse_settings(cls, d, where: str):
    """cls from the JSON object d; ConfigError for another value or an unknown key."""
    _check_type(d, "dict", where)
    _require_keys(d, {f.name for f in fields(cls)}, set(), where)
    return cls(**d)


def parse_json(text: str | bytes):
    """The JSON value in text (the package's one JSON parse); ConfigError with
    the parser's message for bad UTF-8 or JSON, a huge integer or deep nesting."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ConfigError(str(e)) from None


def parse_json_object(text: str | bytes, where: str) -> dict:
    """The JSON object in text; ConfigError naming where for bad UTF-8, bad
    JSON or a non-object."""
    try:
        data = parse_json(text)
    except ConfigError as e:
        raise ConfigError(f"{where} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return data


@dataclass
class OptimizerSettings:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: str = "step"  # "step": x0.1 at 50% and 75% of epochs; or "constant"

    def validate(self) -> None:
        _check_field_types(self, "optimizer")
        if self.lr <= 0:
            raise ConfigError(f"optimizer.lr must be positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"optimizer.momentum must be in [0, 1), got {self.momentum}")
        if self.schedule not in ("step", "constant"):
            raise ConfigError(
                f"optimizer.schedule must be 'step' or 'constant', got {self.schedule!r}")


@dataclass
class AlphaSettings:
    init: float = 6.0
    lr: float = 0.01
    weight_decay: float = 0.0

    def validate(self) -> None:
        _check_field_types(self, "alpha")
        if self.init <= 0 or self.lr <= 0:
            raise ConfigError("alpha.init and alpha.lr must be positive")


# Per dataset kind: the keys it reads and writes (besides "kind"), and the
# subset a config must give.
_DATASET_KEYS = {
    "synthetic_blobs": (("classes", "samples", "dim", "spread", "seed", "center_scale",
                         "center_offset", "eval_samples"), {"classes", "samples", "dim"}),
    "idx_images": (("train_images", "train_labels", "test_images", "test_labels",
                    "mean", "std", "classes"), {"train_images", "train_labels"}),
    "csv_table": (("path", "eval_path", "classes"), {"path", "classes"}),
}


@dataclass
class DatasetSpec:
    kind: str
    # synthetic_blobs
    classes: int = 0
    samples: int = 0
    dim: int = 0
    spread: float = 1.0
    seed: int = 0
    center_scale: float = 3.0
    center_offset: float = 0.0
    eval_samples: int = 0
    # idx_images
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    mean: float = 0.0
    std: float = 1.0
    # csv_table
    path: str = ""
    eval_path: str = ""

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        _check_type(d, "dict", "dataset")
        keys, required = _dataset_keys(d.get("kind"))
        _require_keys(d, {"kind", *keys}, {"kind", *required}, "dataset")
        return DatasetSpec(**d)

    def validate(self) -> "DatasetSpec":
        """Check the values, and give synthetic blobs their default eval split."""
        _dataset_keys(self.kind)
        _check_field_types(self, "dataset")
        if self.seed < 0:
            raise ConfigError(f"dataset.seed must be non-negative, got {self.seed}")
        if self.kind == "synthetic_blobs" and self.eval_samples <= 0:
            self.eval_samples = max(self.classes, self.samples // 4)
        return self

    def to_dict(self) -> dict:
        keys, _ = _DATASET_KEYS[self.kind]
        return {"kind": self.kind, **{key: getattr(self, key) for key in keys}}


def _dataset_keys(kind) -> tuple:
    """(keys, required keys) of a dataset kind; ConfigError for any other value."""
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {', '.join(_DATASET_KEYS)}; "
                          f"got {kind!r}")
    return _DATASET_KEYS[kind]


# Per arch kind: the type of each key it takes besides "kind"; all but the
# cnn's "channels" are required.
_ARCH_KEYS = {"mlp": {"input_dim": "int", "hidden": "list", "classes": "int"},
              "cnn": {"in_channels": "int", "image_size": "int", "classes": "int",
                      "channels": "list"},
              "layers": {"layers": "list"}}

# JSON key -> (RunConfig attribute, cast) for the optional scalar settings;
# a key the config leaves out keeps the dataclass default.
_SCALARS = {"lambda": ("lam", float), "p1_initial": ("p1_initial", float),
            "epochs": ("epochs", int), "batch_size": ("batch_size", int),
            "seed": ("seed", int), "bn_momentum": ("bn_momentum", float)}


@dataclass
class RunConfig:
    mode: str
    bits: list[int]
    dataset: DatasetSpec
    arch: dict
    lam: float = 0.1
    p1_initial: float = 0.5
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    bn_momentum: float = 0.1
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    alpha: AlphaSettings = field(default_factory=AlphaSettings)

    # -- mode helpers --------------------------------------------------------

    @property
    def mode_kind(self) -> str:
        return self.mode.split(":", 1)[0]

    @property
    def mode_bit(self) -> int | None:
        """The b in individual:b / direct:b, else None."""
        if ":" in self.mode:
            return int(self.mode.split(":", 1)[1])
        return None

    def build_arch(self) -> ArchSpec:
        arch = self.arch
        kind = arch.get("kind")
        if not isinstance(kind, str) or kind not in _ARCH_KEYS:
            raise ConfigError(f"arch.kind must be mlp, cnn or layers; got {kind!r}")
        types = _ARCH_KEYS[kind]
        _require_keys(arch, {"kind", *types}, {"kind", *types} - {"channels"}, "arch")
        for key in arch.keys() - {"kind"}:
            _check_type(arch[key], types[key], f"arch.{key}")
        try:
            if kind == "mlp":
                return mlp(arch["input_dim"], list(arch["hidden"]), arch["classes"])
            if kind == "cnn":
                return small_cnn(arch["in_channels"], arch["image_size"], arch["classes"],
                                 arch.get("channels"))
            return ArchSpec.from_json(arch["layers"])
        except ContractError as e:
            raise ConfigError(f"arch: {e}") from None

    # -- validation / serialization ------------------------------------------

    def validate(self) -> tuple[BitWidthSet, ArchSpec]:
        """Check every value, parsed or set in code; cast int-valued float
        scalars. Returns the bit-width set and architecture it built."""
        for key, (attr, cast) in _SCALARS.items():
            _check_type(getattr(self, attr), cast.__name__, key)
            setattr(self, attr, cast(getattr(self, attr)))
        self.dataset.validate()
        self.optimizer.validate()
        self.alpha.validate()
        _check_type(self.mode, "str", "mode")
        kind = self.mode_kind
        if kind not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        suffix = self.mode.partition(":")[2]  # a bit-width is at most 16, so 2 digits
        if ":" in self.mode and not (suffix.isdigit() and len(suffix) <= 2):
            raise ConfigError(f"mode {self.mode!r}: the suffix must be a bit-width")
        _check_type(self.bits, "list", "bits")
        for b in self.bits:
            _check_type(b, "int", "bits")
        try:
            bits = BitWidthSet(self.bits)
        except BitWidthError as e:
            raise ConfigError(f"bits: {e}") from None
        if kind in ("individual", "direct"):
            if self.mode_bit is None:
                raise ConfigError(f"mode {kind!r} needs a bit-width suffix, e.g. '{kind}:8'")
            if kind == "individual" and self.bits != [self.mode_bit]:
                raise ConfigError(
                    f"individual:{self.mode_bit} requires bits == [{self.mode_bit}], got {self.bits}"
                )
            if kind == "direct" and self.mode_bit not in bits:
                raise ConfigError(f"direct source bit {self.mode_bit} must be in bits {self.bits}")
        elif ":" in self.mode:
            raise ConfigError(f"mode {kind!r} takes no bit-width suffix, got {self.mode!r}")
        if not 0.0 < self.p1_initial <= 1.0:
            raise ConfigError(f"p1_initial must be in (0, 1], got {self.p1_initial}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ConfigError(f"bn_momentum must be in (0, 1], got {self.bn_momentum}")
        return bits, self.build_arch()

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        # "deterministic" is a legacy v1 key: accepted and ignored, since runs
        # are always deterministic
        allowed = {"schema_version", "mode", "bits", "dataset", "arch", "deterministic",
                   "optimizer", "alpha", *_SCALARS}
        required = {"schema_version", "mode", "bits", "dataset", "arch"}
        _require_keys(d, allowed, required, "config")
        version = d["schema_version"]
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version {version} unsupported (expected {SCHEMA_VERSION})")
        _check_type(d["arch"], "dict", "arch")
        cfg = RunConfig(
            mode=d["mode"],
            bits=d["bits"],
            dataset=DatasetSpec.from_dict(d["dataset"]),
            arch=dict(d["arch"]),
            optimizer=_parse_settings(OptimizerSettings, d.get("optimizer", {}), "optimizer"),
            alpha=_parse_settings(AlphaSettings, d.get("alpha", {}), "alpha"),
            **{attr: d[key] for key, (attr, _) in _SCALARS.items() if key in d},
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "bits": list(self.bits),
            "dataset": self.dataset.to_dict(),
            "arch": dict(self.arch),
            **{key: getattr(self, attr) for key, (attr, _) in _SCALARS.items()},
            "optimizer": asdict(self.optimizer),
            "alpha": asdict(self.alpha),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str | bytes) -> "RunConfig":
        return RunConfig.from_dict(parse_json_object(text, "config"))

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path, "rb") as f:
            return RunConfig.from_json(f.read())
