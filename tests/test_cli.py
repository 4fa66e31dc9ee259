"""Command-line surface: subcommand flows, exit codes, artifact stability."""

import importlib
import inspect
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import flexquant
from flexquant import FlexquantError
from flexquant.cli import main
from flexquant.metrics import METRICS_COLUMNS, MetricsLog, eval_summary_json

from conftest import blob_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(blob_config(mode="coquant", epochs=3)))
    return str(path)


def run_dir(tmp_path, name="run"):
    return str(tmp_path / name)


class TestTrain:
    def test_train_writes_all_artifacts(self, config_path, tmp_path, capsys):
        out = run_dir(tmp_path)
        assert main(["train", "--config", config_path, "--out", out]) == 0
        for artifact in ("metrics.csv", "eval_summary.json",
                         "teacher_histogram.csv", "checkpoint.ckpt"):
            assert os.path.exists(os.path.join(out, artifact))
        printed = capsys.readouterr().out
        assert "bit-width 8" in printed

    def test_metrics_header_embeds_config(self, config_path, tmp_path):
        out = run_dir(tmp_path)
        main(["train", "--config", config_path, "--out", out])
        first = open(os.path.join(out, "metrics.csv")).readline()
        assert first.startswith("#")
        embedded = json.loads(first[first.find("config=") + len("config="):])
        assert embedded["mode"] == "coquant"

    def test_same_seed_identical_artifacts(self, config_path, tmp_path):
        a, b = run_dir(tmp_path, "a"), run_dir(tmp_path, "b")
        main(["train", "--config", config_path, "--out", a])
        main(["train", "--config", config_path, "--out", b])
        for artifact in ("metrics.csv", "eval_summary.json", "checkpoint.ckpt"):
            assert (open(os.path.join(a, artifact), "rb").read()
                    == open(os.path.join(b, artifact), "rb").read()), artifact

    def test_seed_override_changes_run(self, config_path, tmp_path):
        a, b = run_dir(tmp_path, "a"), run_dir(tmp_path, "b")
        main(["train", "--config", config_path, "--out", a])
        main(["train", "--seed", "123", "--config", config_path, "--out", b])
        assert (open(os.path.join(a, "checkpoint.ckpt"), "rb").read()
                != open(os.path.join(b, "checkpoint.ckpt"), "rb").read())

    def test_negative_seed_override_is_one_error_line(self, config_path, tmp_path, capsys):
        out = run_dir(tmp_path)
        assert main(["train", "--seed", "-1", "--config", config_path, "--out", out]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not os.path.exists(out)

    def test_seed_rejected_outside_train(self, tmp_path):
        # only train reads a seed; eval must not accept one it would ignore
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--seed", "1", "--ckpt", str(tmp_path / "x.ckpt"), "--bits", "8"])
        assert exc.value.code == 2

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = blob_config()
        cfg["lamda"] = 1.0
        bad.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(bad), "--out", run_dir(tmp_path)])
        assert rc == 1
        assert "lamda" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run_dir(tmp_path), "metrics.csv"))

    def test_unknown_flag_exits_two(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", config_path, "--frobnicate"])
        assert exc.value.code == 2

    def test_resume_from_checkpoint(self, tmp_path, capsys):
        cfg = blob_config(mode="coquant", epochs=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1 = run_dir(tmp_path, "phase1")
        main(["train", "--config", str(path), "--out", out1])
        # same config trains nothing further (epoch budget reached) but succeeds
        rc = main(["train", "--config", str(path),
                   "--resume", os.path.join(out1, "checkpoint.ckpt"),
                   "--out", run_dir(tmp_path, "phase2")])
        assert rc == 0

    def test_resume_config_mismatch_rejected(self, config_path, tmp_path, capsys):
        out = run_dir(tmp_path)
        main(["train", "--config", config_path, "--out", out])
        other = tmp_path / "other.json"
        other.write_text(json.dumps(blob_config(mode="coquant", epochs=3, seed=9)))
        rc = main(["train", "--config", str(other),
                   "--resume", os.path.join(out, "checkpoint.ckpt"),
                   "--out", run_dir(tmp_path, "x")])
        assert rc == 1
        assert "different config" in capsys.readouterr().err


ARTIFACTS = ("metrics.csv", "teacher_histogram.csv", "eval_summary.json", "checkpoint.ckpt")


def read_artifacts(out):
    return {name: open(os.path.join(out, name), "rb").read() for name in ARTIFACTS}


@pytest.mark.parametrize("mode", ["coquant", "progressive_desc"])
def test_resume_after_every_epoch_is_the_uninterrupted_run(mode, tmp_path):
    from flexquant.checkpoint import save_checkpoint
    from flexquant.config import RunConfig
    from flexquant.training import Trainer

    cfg = blob_config(mode=mode, epochs=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    full = run_dir(tmp_path, "full")
    assert main(["train", "--config", str(path), "--out", full]) == 0
    expected = read_artifacts(full)
    trainer = Trainer(RunConfig.from_dict(cfg))
    for k in (1, 2, 3):  # k = 3 resumes a finished run
        trainer.train_epoch()
        ckpt = str(tmp_path / f"after{k}.ckpt")
        save_checkpoint(ckpt, trainer)
        out = run_dir(tmp_path, f"resumed{k}")
        assert main(["train", "--config", str(path), "--resume", ckpt, "--out", out]) == 0
        assert read_artifacts(out) == expected, k


def _cli_env(threads="1"):
    """The environment for a flexquant subprocess: this checkout's sources,
    BLAS on the given number of threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_killed_run_resumes_from_its_last_epoch(tmp_path):
    from flexquant.checkpoint import load_checkpoint

    epochs = 30
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(blob_config(mode="coquant", epochs=epochs)))
    out = run_dir(tmp_path, "killed")
    ckpt = os.path.join(out, "checkpoint.ckpt")
    proc = subprocess.Popen(
        [sys.executable, "-m", "flexquant.cli", "train", "--config", str(path), "--out", out],
        cwd=tmp_path, env=_cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(ckpt) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert 1 <= load_checkpoint(ckpt).epoch < epochs
    assert not os.path.exists(os.path.join(out, "eval_summary.json"))

    assert main(["train", "--config", str(path), "--resume", ckpt, "--out", out]) == 0
    full = run_dir(tmp_path, "full")
    assert main(["train", "--config", str(path), "--out", full]) == 0
    assert read_artifacts(out) == read_artifacts(full)


def _checkpoints_under_blas_threads(tmp_path, config) -> list[bytes]:
    """The checkpoint bytes of one training run of config under 1 and 2 BLAS threads."""
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "flexquant.cli", "train", "--config", str(config_file),
             "--out", str(out)],
            cwd=tmp_path, env=_cli_env(threads), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        checkpoints.append((out / "checkpoint.ckpt").read_bytes())
    return checkpoints


def test_checkpoint_bitwise_identical_across_blas_threads(tmp_path):
    """The desk config (criterion 6, cut to 3 epochs) under 1 and 2 BLAS threads."""
    config = {
        "schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000,
                    "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                    "center_offset": 10.0},
        "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
        "epochs": 3, "batch_size": 200, "seed": 0,
        "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4, "schedule": "step"},
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    }
    first, second = _checkpoints_under_blas_threads(tmp_path, config)
    assert first == second


def test_cnn_checkpoint_bitwise_identical_across_blas_threads(tmp_path):
    """A cnn shaped like the benchmark's, one epoch of 128 16x16 images in
    batches of 64: its conv gemms (4096x144 by 144x32, for one) are large
    enough for the BLAS to split across threads."""
    from test_datasets import write_idx_images, write_idx_labels
    rng = np.random.default_rng(5)
    write_idx_images(tmp_path / "imgs", rng.integers(0, 256, size=(128, 16, 16)))
    write_idx_labels(tmp_path / "labs", np.arange(128) % 4)
    config = {
        "schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
        "dataset": {"kind": "idx_images", "train_images": str(tmp_path / "imgs"),
                    "train_labels": str(tmp_path / "labs"), "mean": 0.5, "std": 0.25,
                    "classes": 4},
        "arch": {"kind": "cnn", "in_channels": 1, "image_size": 16, "classes": 4,
                 "channels": [16, 16, 32]},
        "epochs": 1, "batch_size": 64, "seed": 0,
    }
    first, second = _checkpoints_under_blas_threads(tmp_path, config)
    assert first == second


class TestEvalCalibrateExport:
    @pytest.fixture
    def trained_run(self, config_path, tmp_path):
        out = run_dir(tmp_path)
        main(["train", "--config", config_path, "--out", out])
        return out

    def test_eval_round_trip_matches_summary(self, trained_run, tmp_path, capsys):
        summary = json.load(open(os.path.join(trained_run, "eval_summary.json")))
        out_file = str(tmp_path / "eval.json")
        rc = main(["eval", "--ckpt", os.path.join(trained_run, "checkpoint.ckpt"),
                   "--bits", "8,4,2", "--out", out_file])
        assert rc == 0
        again = json.load(open(out_file))
        assert again["bits"] == summary["bits"]

    def test_eval_missing_bank_names_the_bit(self, trained_run, capsys):
        rc = main(["eval", "--ckpt", os.path.join(trained_run, "checkpoint.ckpt"),
                   "--bits", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bit-width 5" in err and "calibration" in err

    def test_eval_above_b1_exits_one(self, trained_run, capsys):
        rc = main(["eval", "--ckpt", os.path.join(trained_run, "checkpoint.ckpt"),
                   "--bits", "16"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: cannot run bit-width 16" in err and "[2, 8]" in err
        assert "calibration" not in err

    def test_bundle_serves_calibrated_bits(self, trained_run, tmp_path):
        from flexquant.autograd import no_grad
        from flexquant.bundle import load_bundle
        from flexquant.checkpoint import load_checkpoint
        cal, path = str(tmp_path / "cal.ckpt"), str(tmp_path / "model.aqdb")
        ckpt = os.path.join(trained_run, "checkpoint.ckpt")
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3,5", "--out", cal]) == 0
        assert main(["export", "--ckpt", cal, "--out", path]) == 0
        trainer, net = load_checkpoint(cal), load_bundle(path).build_network()
        assert sorted(net.bank.entries) == [2, 3, 4, 5, 8]
        x = trainer.eval_set.features
        for b in (3, 5):
            with no_grad():
                served = net.forward_at(x, b, mode="eval").data
                in_memory = trainer.net.forward_at(x, b, mode="eval").data
            np.testing.assert_array_equal(served, in_memory)

    def test_calibrate_then_eval(self, trained_run, tmp_path, capsys):
        ckpt = os.path.join(trained_run, "checkpoint.ckpt")
        cal = str(tmp_path / "cal.ckpt")
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3,5", "--out", cal]) == 0
        assert main(["eval", "--ckpt", cal, "--bits", "3,5"]) == 0
        summary = json.loads(capsys.readouterr().out.split("calibrated")[-1]
                             .split("\n", 1)[-1])
        assert summary["bits"]["3"]["zero_shot"] is True

    def test_calibration_order_does_not_matter(self, tmp_path):
        # with bits {8, 2}, 5 ties between 8 and 2; a calibrated 3 must not lend to it
        path = tmp_path / "cfg82.json"
        path.write_text(json.dumps(blob_config(mode="coquant", bits=(8, 2), epochs=1)))
        out = run_dir(tmp_path, "run82")
        main(["train", "--config", str(path), "--out", out])
        ckpt = os.path.join(out, "checkpoint.ckpt")
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3,5", "--out", a]) == 0
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "5,3", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_calibrate_data_runs_the_dataset_rules(self, trained_run, tmp_path, capsys):
        ckpt, out = os.path.join(trained_run, "checkpoint.ckpt"), str(tmp_path / "cal.ckpt")
        spec = tmp_path / "data.json"
        spec.write_text(json.dumps({**blob_config()["dataset"], "seed": -1}))
        args = ["calibrate", "--ckpt", ckpt, "--bits", "3", "--data", str(spec), "--out", out]
        assert main(args) == 1
        assert "error: dataset.seed must be non-negative, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)
        spec.write_text(json.dumps(blob_config()["dataset"]))
        assert main(args) == 0

    def test_calibrate_data_reads_a_spec_file_named_train(self, trained_run, tmp_path,
                                                          monkeypatch):
        ckpt = os.path.join(trained_run, "checkpoint.ckpt")
        other = json.dumps({**blob_config()["dataset"], "seed": 99})
        (tmp_path / "train").write_text(other)
        (tmp_path / "other.json").write_text(other)
        monkeypatch.chdir(tmp_path)
        for data, out in (("train", "a.ckpt"), ("other.json", "b.ckpt")):
            assert main(["calibrate", "--ckpt", ckpt, "--bits", "3", "--data", data,
                         "--out", out]) == 0
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3", "--out", "own.ckpt"]) == 0
        a, b, own = (open(n, "rb").read() for n in ("a.ckpt", "b.ckpt", "own.ckpt"))
        assert a == b != own

    def test_calibrate_without_data_uses_the_runs_training_split(self, trained_run, tmp_path):
        ckpt = os.path.join(trained_run, "checkpoint.ckpt")
        spec = tmp_path / "own.json"
        spec.write_text(json.dumps(blob_config()["dataset"]))  # the run's own dataset
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3", "--out", a]) == 0
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3", "--data", str(spec),
                     "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_calibrate_above_b1_exits_one(self, trained_run, tmp_path, capsys):
        out = str(tmp_path / "cal.ckpt")
        rc = main(["calibrate", "--ckpt", os.path.join(trained_run, "checkpoint.ckpt"),
                   "--bits", "16", "--out", out])
        assert rc == 1
        assert "error: cannot run bit-width 16" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_export_and_report(self, trained_run, tmp_path, capsys):
        ckpt = os.path.join(trained_run, "checkpoint.ckpt")
        bundle = str(tmp_path / "model.aqdb")
        assert main(["export", "--ckpt", ckpt, "--out", bundle]) == 0
        assert os.path.getsize(bundle) > 0

        report_dir = str(tmp_path / "report")
        rc = main(["report", "--metrics", os.path.join(trained_run, "metrics.csv"),
                   "--out", report_dir])
        assert rc == 0
        assert os.path.exists(os.path.join(report_dir, "report_table.csv"))
        assert os.path.exists(os.path.join(report_dir, "report_teacher_histogram.csv"))

    def test_report_against_itself_prints_delta_100(self, trained_run, tmp_path, capsys):
        rc = main(["report", "--metrics", os.path.join(trained_run, "metrics.csv"),
                   "--reference", os.path.join(trained_run, "eval_summary.json"),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delta_b = 100.0" in out

    def test_report_histogram_matches_train_histogram(self, trained_run, tmp_path):
        report_dir = str(tmp_path / "rep")
        main(["report", "--metrics", os.path.join(trained_run, "metrics.csv"),
              "--out", report_dir])
        train_hist = open(os.path.join(trained_run, "teacher_histogram.csv")).read()
        report_hist = open(os.path.join(report_dir, "report_teacher_histogram.csv")).read()
        assert report_hist == train_hist

    def test_report_reads_metrics_without_config_line(self, trained_run, tmp_path):
        lines = open(os.path.join(trained_run, "metrics.csv")).read().splitlines(True)
        assert lines[0].startswith("#")
        bare = tmp_path / "bare" / "metrics.csv"
        bare.parent.mkdir()
        bare.write_text("".join(lines[1:]))
        report_dir = str(tmp_path / "rep")
        assert main(["report", "--metrics", str(bare), "--out", report_dir]) == 0
        train_hist = open(os.path.join(trained_run, "teacher_histogram.csv")).read()
        report_hist = open(os.path.join(report_dir, "report_teacher_histogram.csv")).read()
        assert report_hist == train_hist
        assert report_hist.count("\n") > 1


# Each library error keeps the builtin base its callers may already catch.
BUILTIN_BASES = {
    "GraphError": RuntimeError, "DimensionError": ValueError, "StepError": RuntimeError,
    "BitWidthError": ValueError, "MissingBankError": KeyError, "ContractError": ValueError,
    "NonFiniteError": ArithmeticError, "TrainingError": RuntimeError,
    "CorruptFileError": ValueError, "FormatError": ValueError, "ConfigError": ValueError,
}


def test_every_library_error_derives_from_the_root():
    found = {}
    for info in pkgutil.iter_modules(flexquant.__path__):
        module = importlib.import_module(f"flexquant.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[name] = cls
    assert found.pop("FlexquantError") is FlexquantError
    assert set(BUILTIN_BASES) <= set(found)
    for name, cls in found.items():
        assert issubclass(cls, FlexquantError), name
        if name in BUILTIN_BASES:
            assert issubclass(cls, BUILTIN_BASES[name]), name


def _train_argv(tmp_path, csv_rows=None, **overrides):
    """flexquant train on blob_config(**overrides), or on a 4-feature, 3-class
    CSV table holding csv_rows."""
    if csv_rows is None:
        cfg = blob_config(epochs=1)
    else:
        data = tmp_path / "data.csv"
        data.write_text(csv_rows)
        cfg = blob_config(epochs=1, dim=4, classes=3,
                          dataset={"kind": "csv_table", "path": str(data), "classes": 3})
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["train", "--config", str(path), "--out", run_dir(tmp_path)]


def _config_text_argv(tmp_path, text):
    """flexquant train on a config file holding text."""
    (tmp_path / "cfg.json").write_text(text)
    return ["train", "--config", str(tmp_path / "cfg.json"), "--out", run_dir(tmp_path)]


def _eval_argv(tmp_path, mutate):
    """flexquant eval on a one-epoch run's checkpoint, saved after mutate(trainer)
    edited it, so the file is CRC-valid."""
    from flexquant.checkpoint import save_checkpoint
    from flexquant.config import RunConfig
    from flexquant.training import Trainer

    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1)))
    trainer.run()
    mutate(trainer)
    path = str(tmp_path / "bad.ckpt")
    save_checkpoint(path, trainer)
    return ["eval", "--ckpt", path, "--bits", "8"]


def _rename(d, old, new):
    d[new] = d.pop(old)


GOOD_SUMMARY = eval_summary_json({8: 98.5}, (), "coquant")


def _report_argv(tmp_path, summary, reference=None):
    """flexquant report on an empty metrics log beside the given summary text,
    against a reference summary text when one is given."""
    (tmp_path / "metrics.csv").write_text(",".join(METRICS_COLUMNS) + "\n")
    (tmp_path / "eval_summary.json").write_text(summary)
    argv = ["report", "--metrics", str(tmp_path / "metrics.csv"), "--out", run_dir(tmp_path)]
    if reference is not None:
        (tmp_path / "reference.json").write_text(reference)
        argv += ["--reference", str(tmp_path / "reference.json")]
    return argv


# a metrics.csv as train writes it: config line, header, one coquant row
GOOD_METRICS = ("# flexquant-metrics v1 config={}\n" + ",".join(METRICS_COLUMNS) + "\n"
                "0,0,coquant,4,1.5,1.25,0.25,8,0.5,0.1,1.0\n")


def _metrics_argv(tmp_path, column, value):
    """flexquant report on GOOD_METRICS with column's value in its row replaced
    by value, or the column dropped from header and row when value is None."""
    lines = GOOD_METRICS.splitlines(True)
    header, row = lines[1].rstrip("\n").split(","), lines[2].rstrip("\n").split(",")
    i = header.index(column)
    if value is None:
        del header[i], row[i]
    else:
        row[i] = value
    text = lines[0] + ",".join(header) + "\n" + ",".join(row) + "\n"
    (tmp_path / "metrics.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
    return ["report", "--metrics", str(tmp_path / "metrics.csv"), "--out", run_dir(tmp_path)]


@pytest.mark.parametrize("column, value, where", [
    ("teacher_b", "x", "line 3: teacher_b 'x' is not an integer"),
    ("teacher_b", None, "line 2: header"),
    # values Python's int and float take, in a form the writer never writes
    pytest.param("b", " 8", "line 3: '0,0,coquant, 8,1.5,", id="int_padded"),
    pytest.param("batch", "1_0", "line 3: '0,1_0,", id="int_underscore"),
    pytest.param("b", "08", "line 3: '0,0,coquant,08,", id="int_leading_zero"),
    pytest.param("loss", "1e0", "line 3: '0,0,coquant,4,1e0,", id="float_exponent"),
    pytest.param("ce", "nan", "line 3: ce 'nan' is not a finite number", id="float_nan"),
    pytest.param("mode", '"coquant"', "line 3: mode '\"coquant\"' is not unquoted text",
                 id="quoted"),
    pytest.param("swap_student_fraction", "1.0\r",
                 "line 3: '0,0,coquant,4,1.5,1.25,0.25,8,0.5,0.1,1.0\\r' is not as written",
                 id="crlf"),
])
def test_bad_metrics_error_names_file_and_line(column, value, where, tmp_path, capsys):
    assert main(_metrics_argv(tmp_path, column, value)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'metrics.csv'} {where}"), err
    assert len(err.splitlines()) == 1, err


def test_metrics_without_final_line_end_names_the_line(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text(GOOD_METRICS[:-1])
    assert main(["report", "--metrics", str(tmp_path / "metrics.csv"),
                 "--out", run_dir(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'metrics.csv'} line 3: no line end\n"


@pytest.mark.parametrize("mode", ["coquant", "joint", "switchable_bn", "adabits", "individual:4",
                                  "progressive_desc", "progressive_asc", "direct:8"])
def test_metrics_csv_reads_back_to_its_text(mode, tmp_path):
    cfg = blob_config(mode=mode, epochs=2, bits=[4] if mode == "individual:4" else [8, 4, 2])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", run_dir(tmp_path)]) == 0
    text = open(os.path.join(run_dir(tmp_path), "metrics.csv")).read()
    bare = text.split("\n", 1)[1]  # without the config line
    for written in (text, bare):
        assert MetricsLog.from_csv_text(written, "metrics.csv").metrics_csv_text() == written


GOOD_ROWS = "0,0,0,0,0\n1,1,1,1,1\n2,2,2,2,2\n"

BAD_INPUTS = {
    "csv_label_out_of_range": lambda tmp: _train_argv(tmp, GOOD_ROWS + "1,1,1,1,3\n"),
    "csv_row_not_numeric": lambda tmp: _train_argv(tmp, GOOD_ROWS + "1,x,1,1,1\n"),
    "csv_label_not_integer": lambda tmp: _train_argv(tmp, GOOD_ROWS + "1,1,1,1,1.5\n"),
    "epochs_not_int": lambda tmp: _train_argv(tmp, epochs="x"),
    "mode_suffix_huge": lambda tmp: _train_argv(tmp, mode="individual:" + "8" * 5000),
    "bits_not_list": lambda tmp: _train_argv(tmp, bits=8),
    "layers_unknown_kind": lambda tmp: _train_argv(tmp, arch={"kind": "layers", "layers": [
        {"kind": "dense", "in_features": 8, "out_features": 4}, {"kind": "relx"}]}),
    "mlp_without_input_dim": lambda tmp: _train_argv(
        tmp, arch={"kind": "mlp", "hidden": [8], "classes": 4}),
    "mlp_input_dim_mismatch": lambda tmp: _train_argv(tmp, GOOD_ROWS, arch={
        "kind": "mlp", "input_dim": 5, "hidden": [8, 8], "classes": 3}),
    "config_is_directory": lambda tmp: ["train", "--config", str(tmp), "--out",
                                        run_dir(tmp)],
    "config_nested_too_deep": lambda tmp: _config_text_argv(tmp, "[" * 200_000),
    "ckpt_weight_renamed": lambda tmp: _eval_argv(
        tmp, lambda t: _rename(t.net.weights, "dense3", "dense9")),
    "ckpt_velocity_renamed": lambda tmp: _eval_argv(
        tmp, lambda t: _rename(t.optimizer.velocity, "weights.dense3", "weights.dense9")),
    "ckpt_weight_wrong_shape": lambda tmp: _eval_argv(
        tmp, lambda t: setattr(t.net.weights["dense3"], "data", np.zeros((3, 5)))),
    "ckpt_rng_without_streams": lambda tmp: _eval_argv(
        tmp, lambda t: setattr(t.streams, "state", lambda: {"seed": 0})),
    "summary_truncated": lambda tmp: _report_argv(tmp, GOOD_SUMMARY[:20]),
    "summary_empty_object": lambda tmp: _report_argv(tmp, "{}"),
    "summary_list": lambda tmp: _report_argv(tmp, "[]"),
    "summary_string_accuracy": lambda tmp: _report_argv(
        tmp, GOOD_SUMMARY.replace("98.5", '"98.5"')),
    "summary_bit_not_a_number": lambda tmp: _report_argv(
        tmp, GOOD_SUMMARY.replace('"8"', '"eight"')),
    "summary_bit_key_huge": lambda tmp: _report_argv(
        tmp, GOOD_SUMMARY.replace('"8"', '"' + "8" * 5000 + '"')),
    "reference_truncated": lambda tmp: _report_argv(tmp, GOOD_SUMMARY, GOOD_SUMMARY[:20]),
    "reference_accuracy_negative": lambda tmp: _report_argv(
        tmp, GOOD_SUMMARY, GOOD_SUMMARY.replace("98.5", "-1.0")),
    "reference_zero_shot_missing": lambda tmp: _report_argv(
        tmp, GOOD_SUMMARY, GOOD_SUMMARY.replace(',\n      "zero_shot": false', "")),
    # the same values in a layout eval_summary_json never writes
    "summary_reordered_layout": lambda tmp: _report_argv(
        tmp, '{"mode": "coquant", "bits": {"8": {"zero_shot": false, "accuracy": 98.5}}}'),
    "metrics_teacher_b_not_int": lambda tmp: _metrics_argv(tmp, "teacher_b", "x"),
    "metrics_without_teacher_b": lambda tmp: _metrics_argv(tmp, "teacher_b", None),
    "metrics_not_utf8": lambda tmp: _metrics_argv(tmp, "mode", "\udcff"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_error_line(case, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("bad_reference", [False, True])
def test_bad_summary_error_names_the_file(bad_reference, tmp_path, capsys):
    if bad_reference:
        argv, name = _report_argv(tmp_path, GOOD_SUMMARY, "[]"), "reference.json"
    else:
        argv, name = _report_argv(tmp_path, "{}"), "eval_summary.json"
    assert main(argv) == 1
    assert str(tmp_path / name) in capsys.readouterr().err


def test_report_accepts_a_good_summary(tmp_path, capsys):
    assert main(_report_argv(tmp_path, GOOD_SUMMARY, GOOD_SUMMARY)) == 0
    assert "delta_b = 100.0" in capsys.readouterr().out


def test_report_leaves_a_zero_reference_out_of_delta_b(tmp_path, capsys):
    summary = eval_summary_json({8: 90.0, 4: 40.0}, (), "coquant")
    reference = eval_summary_json({8: 0.0, 4: 50.0}, (), "individual")
    assert main(_report_argv(tmp_path, summary, reference)) == 0
    assert "delta_b = 80.0" in capsys.readouterr().out
    table = open(os.path.join(run_dir(tmp_path), "report_table.csv")).read()
    assert table.splitlines()[1:] == ["8,90.0,False,0.0,", "4,40.0,False,50.0,80.0",
                                      "delta_b,,,,80.0"]
