"""RunConfig parsing: strict keys, mode rules, canonical serialization."""

import json
import re

import pytest

from flexquant.config import ConfigError, RunConfig

from conftest import blob_config


class TestValidation:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(blob_config())
        again = RunConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()

    def test_unknown_top_level_key_is_hard_error(self):
        d = blob_config()
        d["lamda"] = 0.2  # classic typo must not pass silently
        with pytest.raises(ConfigError, match="lamda"):
            RunConfig.from_dict(d)

    def test_unknown_nested_key_is_hard_error(self):
        d = blob_config()
        d["optimizer"] = {"lr": 0.1, "momentum": 0.9, "decay": 1e-4}
        with pytest.raises(ConfigError, match="decay"):
            RunConfig.from_dict(d)

    def test_unknown_dataset_key_is_hard_error(self):
        d = blob_config()
        d["dataset"]["sigma"] = 1.0
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig.from_dict(d)

    def test_schema_version_checked(self):
        d = blob_config()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            RunConfig.from_dict(d)

    def test_missing_required_keys(self):
        d = blob_config()
        del d["dataset"]
        with pytest.raises(ConfigError, match="dataset"):
            RunConfig.from_dict(d)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            RunConfig.from_dict(blob_config(mode="fancy"))

    def test_individual_requires_exactly_one_bit(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob_config(mode="individual:8", bits=(8, 4)))
        RunConfig.from_dict(blob_config(mode="individual:8", bits=(8,)))

    def test_individual_requires_suffix(self):
        with pytest.raises(ConfigError, match="suffix"):
            RunConfig.from_dict(blob_config(mode="individual", bits=(8,)))

    def test_direct_source_must_be_in_bits(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob_config(mode="direct:6", bits=(8, 4, 2)))
        cfg = RunConfig.from_dict(blob_config(mode="direct:8", bits=(8, 4, 2)))
        assert cfg.mode_bit == 8

    def test_p1_range_enforced(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob_config(p1_initial=0.0))
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob_config(p1_initial=1.5))

    def test_negative_lambda_rejected(self):
        d = blob_config()
        d["lambda"] = -0.5
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)

    def test_bit_range_enforced(self):
        for bits in [(32, 8), (), (8, 8)]:
            with pytest.raises(ConfigError, match="^bits: "):
                RunConfig.from_dict(blob_config(bits=bits))

    def test_arch_must_be_buildable(self):
        d = blob_config()
        d["arch"] = {"kind": "transformer"}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("path, value, match", [
        (("epochs",), "x", "epochs must be int"),
        (("lambda",), True, "lambda must be float"),
        (("bits",), 8, "bits must be list"),
        (("bits",), [8, "4"], "bits must be int"),
        (("mode",), 3, "mode must be str"),
        (("mode",), "individual:x", "suffix"),
        (("optimizer", "lr"), "0.1", "optimizer.lr must be float"),
        (("dataset",), [], "dataset must be dict"),
        (("dataset", "classes"), 4.0, "dataset.classes must be int"),
        (("arch",), "mlp", "arch must be dict"),
        (("arch", "hidden"), 32, "arch.hidden must be list"),
        (("arch", "hidden"), [32, 0], "out_features must be an integer >= 1"),
        (("arch", "input_dim"), None, "arch.input_dim must be int"),
        (("arch", "dropout"), 0.5, "unknown keys"),
    ], ids=["epochs_str", "lambda_bool", "bits_int", "bits_str_entry", "mode_int",
            "mode_suffix", "optimizer_lr_str", "dataset_list", "dataset_classes_float",
            "arch_str", "arch_hidden_int", "arch_hidden_zero", "arch_input_dim_null",
            "arch_unknown_key"])
    def test_wrong_value_rejected(self, path, value, match):
        d = blob_config()
        target = d
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("layer, match", [
        ({"kind": "relx"}, "unknown kind"),
        ({"kind": "dense", "in_features": 8}, "out_features"),
        ({"kind": "dense", "in_features": 8, "out_features": 4, "bias": True}, "bias"),
        ("dense", "unknown kind"),
    ], ids=["unknown_kind", "missing_key", "unknown_key", "not_an_object"])
    def test_layers_arch_checked_layer_by_layer(self, layer, match):
        d = blob_config()
        d["arch"] = {"kind": "layers", "layers": [
            {"kind": "dense", "in_features": 8, "out_features": 8}, layer]}
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(d)

    def test_defaults_applied(self):
        cfg = RunConfig.from_dict(blob_config())
        assert cfg.lam == 0.1
        assert cfg.p1_initial == 0.5
        assert cfg.alpha.init == 6.0

    def test_legacy_deterministic_key_accepted_and_ignored(self):
        legacy = blob_config()
        legacy["deterministic"] = True
        cfg = RunConfig.from_dict(legacy)
        assert cfg.to_json() == RunConfig.from_dict(blob_config()).to_json()
        assert "deterministic" not in cfg.to_dict()

    @pytest.mark.parametrize("overrides, expected", [
        ({}, '{"alpha": {"init": 6.0, "lr": 0.01, "weight_decay": 0.0}, '
             '"arch": {"classes": 3, "hidden": [8], "input_dim": 4, "kind": "mlp"}, '
             '"batch_size": 128, "bits": [8, 2], "bn_momentum": 0.1, '
             '"dataset": {"classes": 3, "eval_path": "", "kind": "csv_table", "path": "t.csv"}, '
             '"epochs": 30, "lambda": 0.1, "mode": "coquant", '
             '"optimizer": {"lr": 0.1, "momentum": 0.9, "schedule": "step", '
             '"weight_decay": 0.0001}, "p1_initial": 0.5, "schema_version": 1, "seed": 0}'),
        # int-valued overrides: top-level floats are cast, nested values kept as given;
        # the legacy "deterministic" key leaves no trace
        ({"lambda": 1, "p1_initial": 1, "epochs": 2, "batch_size": 16, "seed": 3,
          "bn_momentum": 1, "deterministic": True,
          "optimizer": {"lr": 1, "momentum": 0, "weight_decay": 0, "schedule": "constant"},
          "alpha": {"init": 2, "lr": 1, "weight_decay": 0}},
         '{"alpha": {"init": 2, "lr": 1, "weight_decay": 0}, '
         '"arch": {"classes": 3, "hidden": [8], "input_dim": 4, "kind": "mlp"}, '
         '"batch_size": 16, "bits": [8, 2], "bn_momentum": 1.0, '
         '"dataset": {"classes": 3, "eval_path": "", "kind": "csv_table", "path": "t.csv"}, '
         '"epochs": 2, "lambda": 1.0, "mode": "coquant", '
         '"optimizer": {"lr": 1, "momentum": 0, "schedule": "constant", "weight_decay": 0}, '
         '"p1_initial": 1.0, "schema_version": 1, "seed": 3}'),
    ], ids=["minimal", "int_overrides"])
    def test_config_json_bytes(self, overrides, expected):
        minimal = {"schema_version": 1, "mode": "coquant", "bits": [8, 2],
                   "dataset": {"kind": "csv_table", "path": "t.csv", "classes": 3},
                   "arch": {"kind": "mlp", "input_dim": 4, "hidden": [8], "classes": 3}}
        assert RunConfig.from_dict({**minimal, **overrides}).to_json() == expected

    def test_canonical_json_is_stable(self):
        a = RunConfig.from_dict(blob_config()).to_json()
        b = RunConfig.from_dict(blob_config()).to_json()
        assert a == b

    @pytest.mark.parametrize("dataset, expected", [
        ({"kind": "synthetic_blobs", "classes": 4, "samples": 600, "dim": 8, "seed": 7},
         '{"center_offset": 0.0, "center_scale": 3.0, "classes": 4, "dim": 8, '
         '"eval_samples": 150, "kind": "synthetic_blobs", "samples": 600, "seed": 7, '
         '"spread": 1.0}'),
        ({"kind": "idx_images", "train_images": "tr.idx", "train_labels": "trl.idx",
          "mean": 0.5, "classes": 4},
         '{"classes": 4, "kind": "idx_images", "mean": 0.5, "std": 1.0, "test_images": "", '
         '"test_labels": "", "train_images": "tr.idx", "train_labels": "trl.idx"}'),
        ({"kind": "csv_table", "path": "t.csv", "classes": 3},
         '{"classes": 3, "eval_path": "", "kind": "csv_table", "path": "t.csv"}'),
    ], ids=["synthetic_blobs", "idx_images", "csv_table"])
    def test_dataset_json_bytes_per_kind(self, dataset, expected):
        # every key of the kind, defaults included, and no other kind's keys
        text = RunConfig.from_dict(blob_config(dataset=dataset)).to_json()
        assert f'"dataset": {expected}, ' in text

    def test_non_string_dataset_kind_rejected(self):
        with pytest.raises(ConfigError, match="dataset.kind"):
            RunConfig.from_dict(blob_config(dataset={"kind": ["csv_table"]}))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path, where", [
        (("lambda",), "lambda"), (("optimizer", "lr"), "optimizer.lr"),
        (("alpha", "init"), "alpha.init"), (("dataset", "spread"), "dataset.spread"),
    ], ids=["lambda", "optimizer_lr", "alpha_init", "dataset_spread"])
    def test_non_finite_float_rejected(self, path, where, literal):
        d = blob_config()
        target = d
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = "PLACEHOLDER"
        text = json.dumps(d).replace('"PLACEHOLDER"', literal)
        with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a finite number, "
                                              f"got -?(nan|inf)$"):
            RunConfig.from_json(text)

    def test_float_too_large_for_a_float_rejected(self):
        d = blob_config()
        d["lambda"] = 10**400
        with pytest.raises(ConfigError, match="^lambda must be a finite number"):
            RunConfig.from_dict(d)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            RunConfig.from_dict(blob_config(seed=-1))
        cfg = RunConfig.from_dict(blob_config())
        cfg.seed = -1  # as train's --seed override sets it; Trainer() validates
        with pytest.raises(ConfigError, match="^seed must be non-negative"):
            cfg.validate()

    def test_negative_dataset_seed_rejected(self):
        with pytest.raises(ConfigError, match="^dataset.seed must be non-negative, got -2$"):
            RunConfig.from_dict(blob_config(data_seed=-2))

    @pytest.mark.parametrize("mode", ["coquant:8", "joint:4", "adabits:2", "progressive_desc:8"])
    def test_suffix_on_a_mode_that_takes_none_rejected(self, mode):
        kind = mode.split(":")[0]
        with pytest.raises(ConfigError, match=f"^mode '{kind}' takes no bit-width suffix, "
                                              f"got '{mode}'$"):
            RunConfig.from_dict(blob_config(mode=mode))

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json("epochs: 12")
