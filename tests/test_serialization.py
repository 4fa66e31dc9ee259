"""Deployment bundles and checkpoints: round trips, checksums, resume."""

import ast
import json
import os
import re
import struct
import zlib

import numpy as np
import pytest

from flexquant.autograd import no_grad
from flexquant.bundle import export_bundle, load_bundle
from flexquant.checkpoint import load_checkpoint, save_checkpoint
from flexquant.cli import main
from flexquant.config import RunConfig
from flexquant.metrics import METRICS_COLUMNS, BatchRecord
from flexquant.network import ContractError
from flexquant.numerics import FlexquantError
from flexquant.serialize import ByteReader, ByteWriter, CorruptFileError, atomic_write_bytes
from flexquant.training import Trainer

from conftest import blob_config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    trainer = Trainer(RunConfig.from_dict(blob_config(mode="coquant", epochs=3)))
    trainer.run()
    return trainer


class TestFraming:
    def test_writer_reader_round_trip(self):
        w = ByteWriter()
        w.u8(7)
        w.u32(1234567)
        w.f64(3.5)
        w.text("hello")
        w.f64_array(np.arange(6.0).reshape(2, 3))
        data = w.finish()
        r = ByteReader(data, "t.bin")
        assert r.u8() == 7
        assert r.u32() == 1234567
        assert r.f64("x") == 3.5
        assert r.text() == "hello"
        np.testing.assert_array_equal(r.f64_array((2, 3), "a"), np.arange(6.0).reshape(2, 3))
        r.done()

    def test_array_rank_bounded(self):
        w = ByteWriter()
        w.u8(200)
        w.raw(bytes(800))  # 200 zero dims: an empty array numpy cannot shape
        with pytest.raises(CorruptFileError, match="^t.bin: array at byte 0 has 200 dims"):
            ByteReader(w.finish(), "t.bin").f64_array((), "a")

    def test_crc_detects_corruption(self):
        w = ByteWriter()
        w.text("payload")
        data = bytearray(w.finish())
        data[3] ^= 0xFF
        with pytest.raises(CorruptFileError, match="^t.bin: CRC mismatch: computed 0x"):
            ByteReader(bytes(data), "t.bin")

    def test_shorter_than_checksum(self):
        with pytest.raises(CorruptFileError, match="^t.bin: file shorter than its checksum$"):
            ByteReader(b"abc", "t.bin")

    def test_truncation_detected(self):
        w = ByteWriter()
        w.u32(99)
        data = w.finish()
        r = ByteReader(data, "t.bin")
        r.u32()
        with pytest.raises(CorruptFileError, match=r"^t.bin: truncated at byte 4 \(need 4 more\)$"):
            r.u32()  # nothing left

    def test_text_must_be_utf8(self):
        w = ByteWriter()
        w.blob(b"\xff\xfe")
        w.blob(b"\xff\xfe")
        r = ByteReader(w.finish(), "t.bin")
        with pytest.raises(CorruptFileError, match="^t.bin: text at byte 0 is not UTF-8: "):
            r.text()
        with pytest.raises(CorruptFileError, match="^t.bin: config at byte 6 is not UTF-8: "):
            r.parsed(json.loads, "config")

    def test_huge_array_dims_rejected_before_reading(self):
        w = ByteWriter()
        w.u8(2)
        w.u32(2**32 - 1)
        w.u32(2**32 - 1)
        w.raw(bytes(64))
        expect = r"^t.bin: a has shape \(4294967295, 4294967295\), expected \(2, 2\)$"
        with pytest.raises(CorruptFileError, match=expect):
            ByteReader(w.finish(), "t.bin").f64_array((2, 2), "a")


class TestBundle:
    def test_codes_round_trip_bitwise(self, trained, tmp_path):
        from flexquant.quantizers import quantize_weights_dorefa
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        bundle = load_bundle(path)
        for name in trained.arch.quantized_names:
            expect = quantize_weights_dorefa(trained.net.weights[name].data, 8)
            np.testing.assert_array_equal(bundle.views[name].codes, expect.codes)
            assert bundle.views[name].mean_b1 == expect.mean_b1

    def test_eval_equality_every_bit(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        net = load_bundle(path).build_network()
        x = trained.eval_set.features[:100]
        for b in trained.bits:
            with no_grad():
                a = trained.net.forward_at(x, b, mode="eval").data
                c = net.forward_at(x, b, mode="eval").data
            np.testing.assert_array_equal(a, c)

    def test_threads_serve_one_loaded_network(self, trained, tmp_path):
        """Each thread opens its own no_grad blocks: none pops another's
        block or reads its memo, and each gets the serial logits."""
        import sys
        import threading

        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        net = load_bundle(path).build_network()
        x = trained.eval_set.features[:20]
        bits = (8, 4, 2, 8)  # more threads than cores
        with no_grad():
            serial = {b: net.forward_at(x, b, mode="eval").data for b in bits}
        errors, results = [], [[] for _ in bits]

        def serve(b, outs):
            try:
                for _ in range(300):
                    with no_grad():
                        outs.append(net.forward_at(x, b, mode="eval").data)
            except Exception as e:  # noqa: BLE001 - reported below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-block included
        try:
            threads = [threading.Thread(target=serve, args=args) for args in zip(bits, results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        for b, outs in zip(bits, results):
            assert len(outs) == 300
            for out in outs:
                np.testing.assert_array_equal(out, serial[b])

    def test_loaded_bundle_re_exports_the_same_bytes(self, trained, tmp_path):
        path, again = str(tmp_path / "m.aqdb"), str(tmp_path / "again.aqdb")
        report = export_bundle(path, trained.net)
        assert export_bundle(again, load_bundle(path).build_network()) == report
        assert open(again, "rb").read() == open(path, "rb").read()

    def test_bundle_accuracy_matches(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        net = load_bundle(path).build_network()
        x, y = trained.eval_set.features, trained.eval_set.labels
        with no_grad():
            pred = np.argmax(net.forward_at(x, 2, mode="eval").data, axis=1)
        direct = trained.evaluate(2)
        assert 100.0 * np.mean(pred == y) == pytest.approx(direct, abs=1e-9)

    def test_code_payload_at_most_quarter_of_fp32(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        report = export_bundle(path, trained.net)
        n_coded = sum(trained.net.weights[n].data.size
                      for n in trained.arch.quantized_names)
        assert report.code_payload <= 0.25 * (4 * n_coded)

    def test_corrupt_bundle_rejected(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        blob = bytearray(open(path, "rb").read())
        blob[50] ^= 0x01
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptFileError):
            load_bundle(path)

    def test_unknown_layer_kind_with_valid_crc(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        body = open(path, "rb").read()[:-4].replace(b'"relu"', b'"relx"', 1)
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptFileError, match="relx"):
            load_bundle(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk")
        open(path, "wb").write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptFileError, match="magic"):
            load_bundle(path)

    def test_loaded_bank_equals_source_every_bit(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        bank = load_bundle(path).build_network().bank
        for b in trained.bits:
            src, got = trained.bank.entry(b), bank.entry(b)
            for name, st in src.bn.items():
                for field in ("gamma", "beta"):
                    np.testing.assert_array_equal(getattr(got.bn[name], field).data,
                                                  getattr(st, field).data)
                np.testing.assert_array_equal(got.bn[name].running_mean, st.running_mean)
                np.testing.assert_array_equal(got.bn[name].running_var, st.running_var)
            for name, a in src.alpha.items():
                np.testing.assert_array_equal(got.alpha[name].data, a.data)

    def test_loaded_network_is_eval_only(self, trained, tmp_path):
        path = str(tmp_path / "m.aqdb")
        export_bundle(path, trained.net)
        net = load_bundle(path).build_network()
        with pytest.raises(ContractError):
            net.forward_at(trained.eval_set.features[:4], 8, mode="train")


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")

    def replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        atomic_write_bytes(str(path), b"new")
    assert os.listdir(tmp_path) == ["out.bin"]
    assert path.read_bytes() == b"previous"


@pytest.mark.parametrize("kind", ["checkpoint", "bundle"])
class TestHeaders:
    def save(self, kind, trainer, tmp_path):
        path = str(tmp_path / kind)
        if kind == "checkpoint":
            save_checkpoint(path, trainer)
            return path, load_checkpoint
        export_bundle(path, trainer.net)
        return path, load_bundle

    def test_magic_checked_before_crc(self, kind, trained, tmp_path):
        path, load = self.save(kind, trained, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"  # the CRC no longer matches either
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: bad magic b'NOPE'"):
            load(path)

    def test_unsupported_version_with_valid_crc(self, kind, trained, tmp_path):
        path, load = self.save(kind, trained, tmp_path)
        body = bytearray(open(path, "rb").read()[:-4])
        body[4:8] = struct.pack("<I", 3)
        open(path, "wb").write(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CorruptFileError,
                           match=f"^{re.escape(path)}: unsupported {kind} version 3$"):
            load(path)

    def test_truncated_file_named(self, kind, trained, tmp_path):
        path, load = self.save(kind, trained, tmp_path)
        body = open(path, "rb").read()[:-12]  # the last 8 bytes go; the CRC is re-sealed
        open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
        expect = rf"^{re.escape(path)}: truncated at byte \d+ \(need \d+ more\)$"
        with pytest.raises(CorruptFileError, match=expect):
            load(path)

    def test_bad_crc_named(self, kind, trained, tmp_path):
        path, load = self.save(kind, trained, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # the stored CRC
        open(path, "wb").write(bytes(blob))
        expect = f"^{re.escape(path)}: CRC mismatch: computed 0x[0-9a-f]{{8}}, stored 0x"
        with pytest.raises(CorruptFileError, match=expect):
            load(path)


class TestRngStreams:
    def test_state_round_trip_continues_identically(self):
        from flexquant.rng import RngStreams
        a = RngStreams(7)
        a["shuffle"].random(13)
        a["swap"].random(5)
        state = a.state()
        expect = a["shuffle"].random(8)
        b = RngStreams(0)
        b.set_state(state)
        np.testing.assert_array_equal(b["shuffle"].random(8), expect)

    def test_streams_are_independent(self):
        from flexquant.rng import RngStreams
        a = RngStreams(7)
        b = RngStreams(7)
        a["swap"].random(1000)  # extra draws on one stream
        np.testing.assert_array_equal(a["shuffle"].random(16),
                                      b["shuffle"].random(16))


class TestCheckpoint:
    def test_state_round_trip_bitwise(self, trained, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, trained)
        again = load_checkpoint(path)
        assert again.epoch == trained.epoch
        for name in trained.net.weights:
            np.testing.assert_array_equal(again.net.weights[name].data,
                                          trained.net.weights[name].data)
        for b in trained.bits:
            for name, st in trained.bank.entry(b).bn.items():
                st2 = again.bank.entry(b).bn[name]
                np.testing.assert_array_equal(st2.running_mean, st.running_mean)
                np.testing.assert_array_equal(st2.gamma.data, st.gamma.data)
            for name, a in trained.bank.entry(b).alpha.items():
                np.testing.assert_array_equal(again.bank.entry(b).alpha[name].data, a.data)
        assert again.streams.state() == trained.streams.state()

    def test_resume_equals_straight_through(self, tmp_path):
        full = Trainer(RunConfig.from_dict(blob_config(mode="coquant", epochs=4)))
        for _ in range(4):
            full.train_epoch()

        half = Trainer(RunConfig.from_dict(blob_config(mode="coquant", epochs=4)))
        for _ in range(2):
            half.train_epoch()
        path = str(tmp_path / "half.ckpt")
        save_checkpoint(path, half)
        resumed = load_checkpoint(path)
        while resumed.epoch < 4:
            resumed.train_epoch()

        for name in full.net.weights:
            np.testing.assert_array_equal(resumed.net.weights[name].data,
                                          full.net.weights[name].data)
        assert resumed.log.metrics_csv_text() == full.log.metrics_csv_text()
        assert resumed.log.eval_accuracy_json() == full.log.eval_accuracy_json()

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        a = Trainer(RunConfig.from_dict(blob_config(mode="adabits", epochs=2)))
        a.run()
        b = Trainer(RunConfig.from_dict(blob_config(mode="adabits", epochs=2)))
        b.run()
        pa, pb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(pa, a)
        save_checkpoint(pb, b)
        assert open(pa, "rb").read() == open(pb, "rb").read()

    @pytest.mark.parametrize("mode", ["coquant", "joint"])
    def test_save_load_save_identical_bytes(self, mode, tmp_path):
        trainer = Trainer(RunConfig.from_dict(blob_config(mode=mode, epochs=1)))
        trainer.run()
        trainer.calibrate(3)  # an entry beyond the configured bits
        first, second = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(first, trainer)
        save_checkpoint(second, load_checkpoint(first))
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_calibrated_entries_survive(self, trained, tmp_path):
        path = str(tmp_path / "cal.ckpt")
        trained.calibrate(3)
        save_checkpoint(path, trained)
        again = load_checkpoint(path)
        assert again.bank.has(3)
        assert 3 in again.calibrated_bits
        assert again.evaluate(3) == trained.evaluate(3)

    def test_corrupt_checkpoint_rejected(self, trained, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, trained)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptFileError):
            load_checkpoint(path)


def _rename(d, old, new):
    d[new] = d.pop(old)


def _set_running_mean(trainer, b, value):
    trainer.bank.entry(b).bn["bn4"].running_mean = value


def _set_bank_value(trainer, b, field, value):
    """Write value over the first element of bank entry b's bn4 field, or over
    its dense3 alpha."""
    entry = trainer.bank.entry(b)
    if field == "alpha":
        entry.alpha["dense3"].data = np.asarray(value)
        return
    st = entry.bn["bn4"]
    arr = getattr(st, field)
    arr = arr.data if field in ("gamma", "beta") else arr
    arr[0] = value


# (field, value, how the loader names it) for every bank value a file holds
BAD_BANK_VALUES = {
    "gamma_nan": ("gamma", np.nan, "bn4 gamma is not finite"),
    "beta_inf": ("beta", np.inf, "bn4 beta is not finite"),
    "running_mean_nan": ("running_mean", np.nan, "bn4 running mean is not finite"),
    "running_var_negative": ("running_var", -0.5, "bn4 running var is negative"),
    "running_var_inf": ("running_var", np.inf, "bn4 running var is not finite"),
    "alpha_nan": ("alpha", np.nan, "dense3 alpha is not finite"),
}


def _set_field(trainer, index, column, text):
    """Write text over one field of the run record's stored row line."""
    fields = trainer.log.lines[index][:-1].split(",")
    fields[METRICS_COLUMNS.index(column)] = text
    trainer.log.lines[index] = ",".join(fields) + "\n"


class _ListsFourTwice(dict):
    """Bank entries whose iteration lists bit-width 4 twice."""

    def __iter__(self):
        return iter([*super().__iter__(), 4])


# each edits a one-epoch run before it is saved, so the file is CRC-valid
BAD_CHECKPOINTS = {
    "weight_renamed": (lambda t: _rename(t.net.weights, "dense3", "dense9"),
                       "checkpoint weight 'dense9' is not one this run has$"),
    "velocity_renamed": (lambda t: _rename(t.optimizer.velocity, "weights.dense3",
                                           "weights.dense9"),
                         "checkpoint velocity 'weights.dense9' is not one this run has$"),
    "weight_wrong_shape": (lambda t: setattr(t.net.weights["dense3"], "data", np.zeros((3, 5))),
                           r"checkpoint weight 'dense3' has shape \(3, 5\), expected \(32, 32\)$"),
    "velocity_wrong_shape": (lambda t: t.optimizer.velocity.update(
        {"bank8.dense3.alpha": np.zeros(2)}),
        r"checkpoint velocity 'bank8.dense3.alpha' has shape \(2,\), expected \(\)$"),
    "weight_missing": (lambda t: t.net.weights.pop("dense6"),
                       r"checkpoint lacks weights \['dense6'\]$"),
    "bank_bit_above_b1": (lambda t: t.bank.entries.update({9: t.bank.entries[8]}),
                          r"bank bit-width 9 outside \[2, 8\]: bit-widths \[9\] must be"),
    "bank_bit_below_2": (lambda t: t.bank.entries.update({1: t.bank.entries[2]}),
                         r"bank bit-width 1 outside \[2, 8\]: bit-widths \[8, 4, 2, 1\]"),
    "bank_bit_repeated": (lambda t: setattr(t.bank, "entries", _ListsFourTwice(t.bank.entries)),
                          r"bank bit-width 4 appears twice: bit-widths \[8, 4, 4\]"),
    "bank_trained_bit_missing": (lambda t: t.bank.entries.pop(2),
                                 r"checkpoint lacks bank entries for trained bit-widths \[2\]$"),
    "bn_wrong_shape": (lambda t: _set_running_mean(t, 4, np.zeros(7)),
                       r"bank entry 4 bn4 running mean has shape \(7,\), expected \(32,\)$"),
    **{f"bank_{case}": (lambda t, field=field, value=value: _set_bank_value(t, 4, field, value),
                        f"bank entry 4 {message}$")
       for case, (field, value, message) in BAD_BANK_VALUES.items()},
    "record_other_config": (lambda t: setattr(t.log, "config_json", "{}"),
                            "the run record's config line is not the checkpoint's$"),
    "record_without_config_line": (lambda t: setattr(t.log, "config_json", None),
                                   "the run record's config line is not the checkpoint's$"),
    "record_epoch_missing": (lambda t: t.log.eval_accuracy.pop(0),
                             r"the run record must cover consecutive epochs up to 0; "
                             r"its eval accuracies cover \[\]$"),
    "record_rows_missing": (lambda t: t.log.lines.clear(),
                            r"the run record must cover consecutive epochs up to 0; "
                            r"its batch rows cover \[\]$"),
    "record_epoch_huge": (lambda t: setattr(t, "epoch", 2**32 - 1),
                          "the run record must cover consecutive epochs up to 4294967294;"),
    "record_epoch_beyond": (lambda t: t.log.end_epoch(1, {8: 50.0}),
                            r"the run record must cover .* its eval accuracies cover \[0, 1\]$"),
    "record_row_malformed": (lambda t: _set_field(t, 3, "teacher_b", "x"),
                             "run record: metrics.csv line 6: teacher_b 'x' is not an integer$"),
    # fields Python's int and float take but the writer never writes
    "record_int_padded": (lambda t: _set_field(t, 3, "b", " 8"),
                          "run record: metrics.csv line 6: '0,1,coquant, 8,.*' is not as written, "
                          "'0,1,coquant,8,"),
    "record_int_underscore": (lambda t: _set_field(t, 3, "batch", "1_0"),
                              "run record: metrics.csv line 6: .* is not as written, '0,10,"),
    "record_int_leading_zero": (lambda t: _set_field(t, 3, "b", "08"),
                                "run record: metrics.csv line 6: .* is not as written, "
                                "'0,1,coquant,8,"),
    "record_float_exponent": (lambda t: _set_field(t, 3, "swap_student_fraction", "1e0"),
                              r"run record: metrics.csv line 6: .* is not as written, '.*,1\.0'"),
    "record_float_nan": (lambda t: _set_field(t, 3, "ce", "nan"),
                         "run record: metrics.csv line 6: ce 'nan' is not a finite number"),
    "record_field_quoted": (lambda t: _set_field(t, 3, "mode", '"coquant"'),
                            "run record: metrics.csv line 6: mode '\"coquant\"' "
                            "is not unquoted text"),
    "record_crlf": (lambda t: _set_field(t, 3, "swap_student_fraction", "1.0\r"),
                    r"run record: metrics.csv line 6: '.*,1\.0\\r' is not as written"),
    "record_accuracy_not_finite": (lambda t: t.log.eval_accuracy[0].update({4: float("nan")}),
                                   "run record: eval accuracy of epoch '0' "
                                   "must map bit-widths"),
    "record_accuracy_key_padded": (lambda t: setattr(t.log, "eval_accuracy",
                                                     {"00": t.log.eval_accuracy[0]}),
                                   "run record: eval accuracy is not as written, "
                                   "'{\"0\": "),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_checkpoint_fields_checked_against_the_run(case, tmp_path):
    mutate, message = BAD_CHECKPOINTS[case]
    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1)))
    trainer.run()
    mutate(trainer)
    path = str(tmp_path / "bad.ckpt")
    save_checkpoint(path, trainer)
    with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: {message}"):
        load_checkpoint(path)


def test_save_formats_no_row(trained, tmp_path, monkeypatch):
    written = BatchRecord.row
    calls = []
    monkeypatch.setattr(BatchRecord, "row", lambda self: calls.append(self) or written(self))
    save_checkpoint(str(tmp_path / "c.ckpt"), trained)
    assert trained.log.lines and calls == []


def _replace_text(path, old: str, new: str) -> None:
    """Write new over the one length-prefixed text old of a framed file, and
    re-seal its CRC."""
    body = open(path, "rb").read()[:-4]
    framed = struct.pack("<I", len(old.encode())) + old.encode()
    assert body.count(framed) == 1
    body = body.replace(framed, struct.pack("<I", len(new.encode())) + new.encode())
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))


def _with_stream(rng_json: str, name: str, gen_state) -> str:
    state = json.loads(rng_json)
    state["streams"][name] = gen_state
    return json.dumps(state)


DEEP_JSON = "[" * 100_000  # nested beyond what the JSON parser recurses into
HUGE_KEY = "1" * 5000  # beyond the digits int() converts


# each edits the config, RNG-state or eval-accuracy text of a good checkpoint
BAD_SECTIONS = {
    "rng_truncated": ("rng", lambda text: text[:40], "RNG states: Unterminated string"),
    "rng_not_an_object": ("rng", lambda text: "[0]", "RNG states: expected"),
    "rng_without_streams": ("rng", lambda text: '{"seed": 0}', "RNG states: expected"),
    "rng_stream_missing": ("rng", lambda text: text.replace('"swap"', '"swop"'),
                           r"RNG states: stream names \['init', 'shuffle', 'swop'\]"),
    "rng_stream_state_empty": ("rng", lambda text: _with_stream(text, "swap", {}),
                               "RNG states: stream 'swap' does not hold a PCG64 state"),
    "rng_stream_state_negative": ("rng", lambda text: _with_stream(text, "init", {
        "bit_generator": "PCG64", "state": {"state": -1, "inc": 1}, "has_uint32": 0,
        "uinteger": 0}), "RNG states: stream 'init' does not hold a PCG64 state"),
    "config_truncated": ("config", lambda text: text[:40], "config: .* is not valid JSON"),
    "config_nested_too_deep": ("config", lambda text: DEEP_JSON,
                               "config: its text is not valid JSON: maximum recursion depth"),
    "rng_nested_too_deep": ("rng", lambda text: DEEP_JSON, "RNG states: maximum recursion depth"),
    "accuracy_nested_too_deep": ("accuracy", lambda text: DEEP_JSON,
                                 "run record: eval accuracy is not valid JSON: "
                                 "maximum recursion depth"),
    "accuracy_epoch_key_huge": ("accuracy", lambda text: f'{{"{HUGE_KEY}": {{}}}}',
                                "run record: eval accuracy of epoch '1{5000}' "
                                "must map"),
}


@pytest.mark.parametrize("case", list(BAD_SECTIONS))
def test_checkpoint_sections_checked(case, trained, tmp_path):
    section, edit, message = BAD_SECTIONS[case]
    path = str(tmp_path / "bad.ckpt")
    save_checkpoint(path, trained)
    text = {"config": trained.config.to_json(),
            "rng": json.dumps(trained.streams.state(), sort_keys=True),
            "accuracy": trained.log.eval_accuracy_json()}[section]
    _replace_text(path, text, edit(text))
    with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: {message}"):
        load_checkpoint(path)


def test_duplicate_weight_name_rejected(trained, tmp_path):
    path = str(tmp_path / "dup.ckpt")
    save_checkpoint(path, trained)
    body = open(path, "rb").read()[:-4]
    stored = struct.pack("<I", 6) + b"dense6"
    assert body.count(stored) == 1  # the weights section; velocity names are longer
    body = body.replace(stored, struct.pack("<I", 6) + b"dense0")
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CorruptFileError,
                       match=f"^{re.escape(path)}: checkpoint weight 'dense0' appears twice$"):
        load_checkpoint(path)


def test_bundle_bn_shape_checked(tmp_path):
    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1)))
    trainer.run()
    _set_running_mean(trainer, 2, np.zeros((32, 1)))
    path = str(tmp_path / "bad.aqdb")
    export_bundle(path, trainer.net)
    expect = rf"^{re.escape(path)}: bank entry 2 bn4 running mean has shape \(32, 1\), expected"
    with pytest.raises(CorruptFileError, match=expect):
        load_bundle(path)


@pytest.mark.parametrize("case", list(BAD_BANK_VALUES))
def test_bundle_bank_values_checked(case, tmp_path):
    field, value, message = BAD_BANK_VALUES[case]
    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1)))
    trainer.run()
    _set_bank_value(trainer, 2, field, value)
    path = str(tmp_path / "bad.aqdb")
    export_bundle(path, trainer.net)
    with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: bank entry 2 {message}$"):
        load_bundle(path)


@pytest.mark.parametrize("mode", ["coquant", "progressive_desc"])
def test_save_load_save_identical_after_every_epoch(mode, tmp_path):
    trainer = Trainer(RunConfig.from_dict(blob_config(mode=mode, epochs=3)))
    for epoch in range(3):
        trainer.train_epoch()
        first, second = str(tmp_path / f"a{epoch}.ckpt"), str(tmp_path / f"b{epoch}.ckpt")
        save_checkpoint(first, trainer)
        loaded = load_checkpoint(first)
        assert loaded.log.metrics_csv_text() == trainer.log.metrics_csv_text()
        assert loaded.log.eval_accuracy == trainer.log.eval_accuracy
        save_checkpoint(second, loaded)
        assert open(first, "rb").read() == open(second, "rb").read()


# The run behind tests/data/v1_coquant_epoch1.ckpt, and what the version-1
# code measured: accuracies of the saved checkpoint at every bit-width, and
# the final accuracies of the same run trained without a break.
V1_CONFIG = {"schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
             "dataset": {"kind": "synthetic_blobs", "classes": 3, "samples": 300, "dim": 4,
                         "spread": 1.0, "seed": 5},
             "arch": {"kind": "mlp", "input_dim": 4, "hidden": [8, 8], "classes": 3},
             "epochs": 2, "batch_size": 60, "seed": 0}
V1_PATH = os.path.join(os.path.dirname(__file__), "data", "v1_coquant_epoch1.ckpt")
V1_ACCURACY = {8: 69.33333333333333, 4: 69.33333333333333, 2: 82.66666666666667}
V1_FINAL_ACCURACY = {8: 85.33333333333333, 4: 84.0, 2: 94.66666666666667}


class TestVersion1Checkpoint:
    def test_loads_with_an_empty_record(self):
        assert struct.unpack("<I", open(V1_PATH, "rb").read()[4:8]) == (1,)
        trainer = load_checkpoint(V1_PATH)
        assert trainer.config.to_json() == RunConfig.from_dict(V1_CONFIG).to_json()
        assert trainer.epoch == 1
        assert trainer.log.batch_rows == [] and trainer.log.eval_accuracy == {}
        assert {b: trainer.evaluate(b) for b in trainer.bits} == V1_ACCURACY

    def test_resumes_to_the_uninterrupted_runs_accuracy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(V1_CONFIG))
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg), "--resume", V1_PATH, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "eval_summary.json")))
        assert {int(b): v["accuracy"] for b, v in summary["bits"].items()} == V1_FINAL_ACCURACY
        # the record starts at the resumed epoch, and the new checkpoint loads
        resumed = load_checkpoint(os.path.join(out, "checkpoint.ckpt"))
        assert sorted(resumed.log.eval_accuracy) == [1]
        assert {r.epoch for r in resumed.log.batch_rows} == {1}


def test_generated_runs_round_trip(tmp_path):
    """Generated dense stacks, modes and bit sets, each trained one epoch with
    one zero-shot entry calibrated: checkpoint save -> load -> save and bundle
    export -> load -> export write the same bytes, and the loaded bundle serves
    the in-memory eval logits bit for bit at every entry."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    ckpts = [str(tmp_path / f"{name}.ckpt") for name in "ab"]
    bundles = [str(tmp_path / f"{name}.aqdb") for name in "ab"]

    @settings(max_examples=20)
    @given(st.data())
    def check(data):
        widths = [3, *data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)), 3]
        layers = []
        for width_in, width_out in zip(widths, widths[1:]):
            layers.append({"kind": "dense", "in_features": width_in, "out_features": width_out})
            if data.draw(st.booleans()):
                layers.append({"kind": "bn", "features": width_out})
            if data.draw(st.booleans()):
                layers.append({"kind": "relu"})
        mode = data.draw(st.sampled_from(["coquant", "joint", "switchable_bn", "adabits"]))
        bits = data.draw(st.sampled_from([[8, 4, 2], [8, 2], [6, 3], [2, 5]]))
        cfg = blob_config(mode=mode, bits=bits, epochs=1, dim=3, classes=3, samples=24,
                          batch_size=12)
        cfg["arch"] = {"kind": "layers", "layers": layers}
        trainer = Trainer(RunConfig.from_dict(cfg))
        trainer.run()
        trainer.calibrate(data.draw(st.sampled_from(
            [b for b in range(2, max(bits)) if b not in bits])))

        save_checkpoint(ckpts[0], trainer)
        save_checkpoint(ckpts[1], load_checkpoint(ckpts[0]))
        assert open(ckpts[0], "rb").read() == open(ckpts[1], "rb").read()
        export_bundle(bundles[0], trainer.net)
        net = load_bundle(bundles[0]).build_network()
        export_bundle(bundles[1], net)
        assert open(bundles[0], "rb").read() == open(bundles[1], "rb").read()
        x = trainer.eval_set.features
        assert sorted(net.bank.entries) == sorted(trainer.bank.entries)
        for b in net.bank.entries:
            with no_grad():
                served = net.forward_at(x, b, mode="eval").data
                in_memory = trainer.net.forward_at(x, b, mode="eval").data
            assert served.tobytes() == in_memory.tobytes()

    check()


def _trained_bundle(tmp_path, bits=(8, 4, 2)):
    """Path and body bytes (without CRC) of a one-epoch bundle with two quantized
    layers, dense3 and dense6, between full-precision dense0 and dense9."""
    trainer = Trainer(RunConfig.from_dict(blob_config(bits=bits, epochs=1, hidden=(32, 32, 32))))
    trainer.run()
    path = str(tmp_path / "m.aqdb")
    export_bundle(path, trainer.net)
    return path, open(path, "rb").read()[:-4]


def _layer(name: str) -> bytes:
    return struct.pack("<I", len(name)) + name.encode()


def _dims(*shape) -> bytes:
    return bytes([len(shape)]) + b"".join(struct.pack("<I", d) for d in shape)


# each writes new over the bytes of a good bundle that start with old (found
# once), then re-seals the CRC
BAD_BUNDLES = {
    "layer_renamed": ((8, 4, 2), _layer("dense3"), _layer("dense7"),
                      "bundle layer 'dense7' where the architecture has 'dense3'$"),
    "fp_layer_coded": ((8, 4, 2), _layer("dense0") + b"\x00", _layer("dense0") + b"\x08",
                       "bundle layer 'dense0' is full precision but has code bit-width 8$"),
    "quantized_layer_uncoded": ((8, 4, 2), _layer("dense3") + b"\x08",
                                _layer("dense3") + b"\x00",
                                "bundle layer 'dense3' has code bit-width 0; quantized layers"),
    "code_bits_differ": ((8, 4, 2), _layer("dense6") + b"\x08", _layer("dense6") + b"\x04",
                         "bundle layer 'dense6' has code bit-width 4; quantized layers share one"),
    "code_bits_9": ((8, 4, 2), _layer("dense6") + b"\x08", _layer("dense6") + b"\x09",
                    r"bundle layer 'dense6' has code bit-width 9; .* in \[2, 16\]$"),
    "code_bytes_short": ((8, 4, 2), _layer("dense3") + b"\x08", _layer("dense3") + b"\x09",
                         "bundle layer 'dense3' holds 1024 code bytes, expected 2048$"),
    "code_shape": ((8, 4, 2), _layer("dense3") + b"\x08" + _dims(32, 32),
                   _layer("dense3") + b"\x08" + _dims(16, 64),
                   r"bundle layer 'dense3' code array has shape \(16, 64\), "
                   r"expected \(32, 32\)$"),
    "code_rank_200": ((8, 4, 2), _layer("dense3") + b"\x08" + _dims(32, 32),
                      _layer("dense3") + b"\x08\xc8",
                      r"array at byte \d+ has 200 dims, more than 32$"),
    "fp_weight_shape": ((8, 4, 2), _layer("dense0") + b"\x00" + _dims(8, 32),
                        _layer("dense0") + b"\x00" + _dims(16, 16),
                        r"bundle layer 'dense0' has shape \(16, 16\), expected \(8, 32\)$"),
    "code_out_of_range": ((10, 4), _layer("dense3") + b"\x0a" + _dims(32, 32)
                          + struct.pack("<I", 2048),
                          _layer("dense3") + b"\x0a" + _dims(32, 32) + struct.pack("<I", 2048)
                          + b"\xff\xff", r"bundle layer 'dense3' has code 65535, not below 2\^10$"),
    "bank_bit_repeated": ((8, 4, 2), b"\x03\x08\x04\x02" + _dims(32),
                          b"\x03\x08\x04\x04" + _dims(32),
                          r"bank bit-width 4 appears twice: bit-widths \[8, 4, 4\] must be unique "
                          r"and within \[2, 8\]$"),
    "bank_bit_above_b1": ((8, 4, 2), b"\x03\x08\x04\x02" + _dims(32),
                          b"\x03\x09\x04\x02" + _dims(32),
                          r"bank bit-width 9 outside \[2, 8\]: bit-widths \[9, 4, 2\]"),
    "bank_bit_below_2": ((8, 4, 2), b"\x03\x08\x04\x02" + _dims(32),
                         b"\x03\x08\x04\x01" + _dims(32),
                         r"bank bit-width 1 outside \[2, 8\]: bit-widths \[8, 4, 1\]"),
}


@pytest.mark.parametrize("case", list(BAD_BUNDLES))
def test_bundle_fields_checked_against_the_arch(case, tmp_path):
    bits, old, new, message = BAD_BUNDLES[case]
    path, body = _trained_bundle(tmp_path, bits)
    assert body.count(old) == 1
    at = body.index(old)
    body = body[:at] + new + body[at + len(new):]
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: {message}"):
        load_bundle(path)


# each replaces the architecture text of a good bundle
BAD_ARCH_TEXTS = {
    "nested_too_deep": (DEEP_JSON, "architecture: maximum recursion depth"),
    "key_huge": (f'[{{"kind": "dense", "{HUGE_KEY}": 8}}]', "architecture: layer 0 .* keys"),
    "truncated": ('[{"kind": "dense"', "architecture: Expecting"),
}


@pytest.mark.parametrize("case", list(BAD_ARCH_TEXTS))
def test_bundle_arch_text_checked(case, tmp_path):
    text, message = BAD_ARCH_TEXTS[case]
    path, body = _trained_bundle(tmp_path)
    stored = body[12:12 + struct.unpack_from("<I", body, 8)[0]]  # after magic and version
    _replace_text(path, stored.decode(), text)
    with pytest.raises(CorruptFileError, match=f"^{re.escape(path)}: {message}"):
        load_bundle(path)


def _u32_offsets(load, path) -> list[int]:
    """Body offsets of every u32 a good load of path reads: the version, the
    counts, the text and blob lengths and the array dims."""
    offsets = []
    read = ByteReader.u32
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ByteReader, "u32", lambda r: offsets.append(r.pos) or read(r))
        load(path)
    return offsets


def _float_fields(load, path) -> list[tuple[str, int, int]]:
    """(name, body offset, count) of every float field a good load of path
    reads, as _u32_offsets finds the u32s."""
    fields = []

    def spy(read):
        def named_read(r, *args):  # f64(what) or f64_array(shape, what)
            what = args[-1]
            value = read(r, *args)
            fields.append((what, r.pos - 8 * np.size(value), np.size(value)))
            return value
        return named_read

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ByteReader, "f64", spy(ByteReader.f64))
        mp.setattr(ByteReader, "f64_array", spy(ByteReader.f64_array))
        load(path)
    return fields


# the section of each float field a file holds, by the label the loader gives it
FLOAT_SECTIONS = {"weight": r"checkpoint weight '\w+'", "velocity": r"checkpoint velocity '.+'",
                  "bank array": r"bank entry \d+ bn\d+ (gamma|beta|running mean|running var)",
                  "clipping value": r"bank entry \d+ dense\d+ alpha",
                  "full-precision weight": r"bundle layer '\w+'",
                  "stored mean": r"bundle layer '\w+' mean",
                  "code mean": r"bundle layer '\w+' code mean"}


@pytest.mark.parametrize("kind", ["checkpoint", "bundle"])
def test_every_float_field_must_be_finite(kind, tmp_path):
    """A seeded sample of each section's float fields, set to NaN and to Inf
    (CRC re-sealed), fails to load with an error naming the file and field."""
    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1, samples=200)))
    trainer.run()
    path = str(tmp_path / "good")
    if kind == "checkpoint":
        save_checkpoint(path, trainer)
        load, expect = load_checkpoint, {"weight", "velocity", "bank array", "clipping value"}
    else:
        export_bundle(path, trainer.net)
        load, expect = load_bundle, {"full-precision weight", "stored mean", "code mean",
                                     "bank array", "clipping value"}
    by_section = {}
    for what, at, count in _float_fields(load, path):
        section, = [s for s, label in FLOAT_SECTIONS.items() if re.fullmatch(label, what)]
        by_section.setdefault(section, []).append((what, at, count))
    assert set(by_section) == expect
    body, bad = open(path, "rb").read()[:-4], str(tmp_path / "bad")
    rng = np.random.default_rng(0)
    for fields in by_section.values():
        for i in rng.choice(len(fields), size=min(3, len(fields)), replace=False):
            what, at, count = fields[i]
            for value in (np.nan, np.inf):
                edited = bytearray(body)
                struct.pack_into("<d", edited, at + 8 * int(rng.integers(count)), value)
                open(bad, "wb").write(bytes(edited) + struct.pack("<I", zlib.crc32(edited)))
                with pytest.raises(CorruptFileError) as info:
                    load(bad)
                assert str(info.value) == f"{bad}: {what} is not finite"


def _mutants(path, load, rng, flips=200, truncations=20, length_edits=60):
    """(description, bytes) of seeded edits to a framed file, each re-sealed
    with a fresh CRC: byte flips, truncations, and length fields set off by
    one or to a huge value."""
    body = open(path, "rb").read()[:-4]
    edits = []
    for at in rng.integers(len(body), size=flips):
        flipped = bytearray(body)
        flipped[at] ^= int(rng.integers(1, 256))
        edits.append((f"byte {at} flipped", flipped))
    for end in rng.integers(len(body), size=truncations):
        edits.append((f"truncated to {end} bytes", body[:end]))
    offsets = _u32_offsets(load, path)
    for at in rng.choice(offsets, size=min(length_edits, len(offsets)), replace=False):
        stored = struct.unpack_from("<I", body, at)[0]
        for value in (stored - 1, stored + 1, 0xFFFFFFFF):
            edited = bytearray(body)
            struct.pack_into("<I", edited, at, value % (1 << 32))
            edits.append((f"u32 at {at} set to {value}", edited))
    for what, edited in edits:
        yield what, bytes(edited) + struct.pack("<I", zlib.crc32(edited))


HOSTILE_TEXTS = (DEEP_JSON.encode(), f'{{"{HUGE_KEY}": {{"{HUGE_KEY}": 1}}}}'.encode(),
                 b"\xff\xfe not UTF-8")


def _hostile_sections(path, texts):
    """(description, bytes) of path with each of its text sections texts
    replaced by each of HOSTILE_TEXTS, CRC re-sealed."""
    body = open(path, "rb").read()[:-4]
    for i, text in enumerate(texts):
        framed = struct.pack("<I", len(text.encode())) + text.encode()
        assert body.count(framed) == 1
        for new in HOSTILE_TEXTS:
            edited = body.replace(framed, struct.pack("<I", len(new)) + new)
            yield f"text section {i} set to {new[:12]!r}...", edited + struct.pack(
                "<I", zlib.crc32(edited))


def _held_floats(loaded) -> np.ndarray:
    """Every float a loaded Trainer or DeploymentBundle holds from its file."""
    bank = [v for entry in loaded.bank.entries.values() for v in (
        *(a for st in entry.bn.values()
          for a in (st.gamma.data, st.beta.data, st.running_mean, st.running_var)),
        *(a.data for a in entry.alpha.values()))]
    if isinstance(loaded, Trainer):
        rest = [*(w.data for w in loaded.net.weights.values()),
                *loaded.optimizer.velocity.values()]
    else:
        rest = [*loaded.fp_weights.values(), *(v.mean_b1 for v in loaded.views.values())]
    return np.concatenate([np.ravel(v) for v in bank + rest])


def _survives(path, load, evaluate, rng, texts) -> int:
    """Load every mutant of path and every hostile replacement of its text
    sections texts: each load raises CorruptFileError, or returns an object
    that holds only finite floats and evaluates at every bank bit-width to
    an accuracy or to a FlexquantError. Returns how many loaded."""
    loaded = 0
    for what, blob in [*_mutants(path, load, rng), *_hostile_sections(path, texts)]:
        open(path + ".bad", "wb").write(blob)
        try:
            obj = load(path + ".bad")
        except CorruptFileError as e:
            assert str(e).startswith(f"{path}.bad: "), f"{what}: {e}"
            continue
        except Exception as e:
            pytest.fail(f"{what}: load raised {type(e).__name__}: {e}")
        loaded += 1
        assert np.isfinite(_held_floats(obj)).all(), f"{what}: loaded a non-finite float"
        for b in sorted(obj.bank.entries):
            try:
                assert 0.0 <= evaluate(obj, b) <= 100.0
            except FlexquantError:
                pass
            except Exception as e:
                pytest.fail(f"{what}: eval at {b} bits raised {type(e).__name__}: {e}")
    return loaded


def test_mutated_files_load_or_fail_by_name(tmp_path):
    trainer = Trainer(RunConfig.from_dict(blob_config(epochs=1, samples=200)))
    trainer.run()
    ckpt, bundle = str(tmp_path / "m.ckpt"), str(tmp_path / "m.aqdb")
    save_checkpoint(ckpt, trainer)
    export_bundle(bundle, trainer.net)
    x, y = trainer.eval_set.features, trainer.eval_set.labels

    def bundle_accuracy(loaded, b):
        with no_grad():
            logits = loaded.build_network().forward_at(x, b, mode="eval").data
        return 100.0 * np.mean(np.argmax(logits, axis=1) == y)

    rng = np.random.default_rng(0)
    # most flips land in weights and bank arrays, which load and evaluate; a
    # flipped exponent can make a value huge or a variance negative
    sections = [trainer.config.to_json(), json.dumps(trainer.streams.state(), sort_keys=True),
                trainer.log.metrics_csv_text(), trainer.log.eval_accuracy_json()]
    with np.errstate(all="ignore"):
        assert _survives(ckpt, load_checkpoint, lambda t, b: t.evaluate(b), rng, sections) > 0
        assert _survives(bundle, load_bundle, bundle_accuracy, rng,
                         [json.dumps(trainer.arch.to_json(), sort_keys=True)]) > 0


def _json_loads_sites(tree, where="<module>"):
    """The innermost function or class around each use of json.loads, or of
    an import from json, in tree."""
    for node in ast.iter_child_nodes(tree):
        if ((isinstance(node, ast.Attribute) and node.attr == "loads"
             and isinstance(node.value, ast.Name) and node.value.id == "json")
                or (isinstance(node, ast.ImportFrom) and node.module == "json")):
            yield where
        scope = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)) else where)
        yield from _json_loads_sites(node, scope)


def test_one_json_parse_and_no_error_conversion_in_the_loaders():
    """JSON is parsed only in config.parse_json, and the checkpoint and bundle
    loaders convert no error, check no finiteness and build no error
    themselves: their text sections go through ByteReader.parsed, every float
    through ByteReader.done, and every other check raises ByteReader.fail's
    error. CorruptFileError is built only by ByteReader.fail and by
    open_reader's magic check, which runs before there is a reader."""
    package = os.path.join(os.path.dirname(__file__), "..", "src", "flexquant")
    sites, built = set(), []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            source = f.read()
        tree = ast.parse(source)
        sites |= {(name, where) for where in _json_loads_sites(tree)}
        built += [name for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "CorruptFileError"]
        if name in ("checkpoint.py", "bundle.py"):
            assert not any(isinstance(node, ast.Try) for node in ast.walk(tree)), name
            assert not re.search("isfinite|check_finite|CorruptFileError", source), name
    assert sites == {("config.py", "parse_json")}
    assert built == ["serialize.py", "serialize.py"]


def _flexquant_source(name, level=0):
    """The flexquant module an import of name reads from ("" for the package
    itself; a relative import is one inside the package), or None."""
    if level:
        return name or ""
    if name == "flexquant" or (name or "").startswith("flexquant."):
        return name[len("flexquant."):]
    return None


def _definitions(tree, module):
    """{qualified name: (module or None, name)} for every function, class and
    method tree defines. Dunder methods are called by Python itself. Module
    level and nested definitions carry their module, since only a reference
    resolved to that module names them; methods carry None, since any
    attribute of that name may call them."""
    defined = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (child.name.startswith("__") and child.name.endswith("__"))):
                method = isinstance(node, ast.ClassDef)
                owner = f"{node.name}." if method else ""
                defined[owner + child.name] = (None if method else module, child.name)
    return defined


def _references(tree, module, modules, reexports, constants):
    """The (module, name) pairs and the attribute names tree refers to. A
    bare name refers to its own module; a from-import to the module it reads
    from (a name the package re-exports, to the module defining it); an
    attribute of an alias of a flexquant module to that module."""
    aliases = {}
    refs, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                source = _flexquant_source(a.name)
                if source is not None:
                    aliases[a.asname or "flexquant"] = source if a.asname else ""
        elif (isinstance(node, ast.ImportFrom)
              and (source := _flexquant_source(node.module, node.level)) is not None):
            for a in node.names:
                if source == "" and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                else:
                    refs.add((reexports.get(a.name, source) if source == "" else source, a.name))

    def owner(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute) and owner(expr.value) == "" and expr.attr in modules:
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and module is not None:
            refs.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if owner(node.value):
                refs.add((owner(node.value), node.attr))
        elif constants and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)  # the span tracer wraps functions by name
            refs |= {(m, node.value) for m in modules}
    return refs, attrs


def test_no_library_code_is_named_only_by_tests():
    """Every function, class and method in src/flexquant is named somewhere
    else in the package (its __init__ aside), the demos or perfbench: a
    module-level or nested definition by a reference that resolves to its
    module, a method by an attribute of its name, either by a perfbench string."""
    root = os.path.join(os.path.dirname(__file__), "..")
    trees = {}
    for d in ("src/flexquant", "demos", "perfbench"):
        for n in sorted(os.listdir(os.path.join(root, d))):
            if n.endswith(".py"):
                with open(os.path.join(root, d, n)) as f:
                    trees[d, n] = ast.parse(f.read())
    modules = {n[:-3] for d, n in trees if d == "src/flexquant" and n != "__init__.py"}
    reexports = {a.asname or a.name: node.module
                 for node in ast.walk(trees["src/flexquant", "__init__.py"])
                 if isinstance(node, ast.ImportFrom) for a in node.names}
    defined, refs, attrs = {}, set(), set()
    for (d, n), tree in trees.items():
        if n == "__init__.py":
            continue
        module = n[:-3] if d == "src/flexquant" else None
        r, a = _references(tree, module, modules, reexports, d == "perfbench")
        refs |= r
        attrs |= a
        if module:
            defined.update({f"{n}:{q}": ref for q, ref in _definitions(tree, module).items()})
    unnamed = {q for q, (module, name) in defined.items()
               if (module, name) not in refs and (module is not None or name not in attrs)}
    assert unnamed == set()
