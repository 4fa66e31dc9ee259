"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The desk-scale experiment (criterion 6) trains 35 small runs and
dominates the runtime; everything finishes in a few minutes on one core.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant.autograd import Tape, Tensor, no_grad
from flexquant.bundle import export_bundle, load_bundle
from flexquant.cli import main as cli_main
from flexquant.config import RunConfig
from flexquant.quantizers import (
    mean_align,
    quantize_activation,
    quantize_levels,
    quantize_weights_at,
    quantize_weights_dorefa,
    truncate_codes,
    weight_forward,
)
from flexquant.training import (
    Trainer,
    delta_b,
    entropy,
    layer_probs,
    loss_for_bit,
    sample_swap_mask,
    select_teacher,
)

from conftest import numerical_gradient
from test_autograd import grad_of, training_loss, weighted_sum
from test_quantizers import reference_weight_pipeline
from test_training import row_with_entropy


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def desk_config(mode: str, seed: int, bits=(8, 4, 2), epochs: int = 30) -> RunConfig:
    """The desk-scale task: MLP 2x64 on 4 un-centered Gaussian blobs."""
    return RunConfig.from_dict({
        "schema_version": 1,
        "mode": mode,
        "bits": list(bits),
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 4000,
                    "dim": 16, "spread": 2.0, "seed": 11, "center_scale": 2.0,
                    "center_offset": 10.0},
        "arch": {"kind": "mlp", "input_dim": 16, "hidden": [64, 64], "classes": 4},
        "epochs": epochs,
        "batch_size": 200,
        "seed": seed,
        "optimizer": {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4,
                      "schedule": "step"},
        "alpha": {"init": 1.0, "lr": 0.01, "weight_decay": 5e-4},
    })


def test_criterion_1_quantizer_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    x = rng.random(100_000)
    for b in (2, 4, 6, 8):
        q = quantize_levels(x, b)
        assert np.array_equal(quantize_levels(q, b), q), "idempotence"
        order = np.argsort(x)
        assert np.all(np.diff(q[order]) >= 0.0), "monotonicity"
        assert len(np.unique(q)) <= 2**b, "level cardinality"
    for b in (8, 6, 4, 2):
        for _ in range(100):
            w = rng.normal(size=rng.integers(4, 120))
            got = weight_forward(w, b, 8)
            expect = reference_weight_pipeline(w, b, 8)
            assert np.max(np.abs(got - expect)) < 1e-12, f"pipeline b={b}"
    elapsed = time.monotonic() - start
    report(1, elapsed < 10.0,
           f"levels idempotent/monotone/bounded on 1e5 inputs; pipeline matches "
           f"independent oracle within 1e-12 for b in (8,6,4,2) ({elapsed:.1f}s < 10s)")


def test_criterion_2_ste_and_gradients():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    # finite differences through a student's training loss, 100 trials of 10 elements
    for trial in range(100):
        x = Tensor(rng.uniform(0.5, 1.5, size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=2)
        teacher = ag.softmax(Tensor(rng.normal(size=(2, 3)))).data

        def make_loss():
            return training_loss(x, w, labels, teacher)

        (analytic,) = grad_of(make_loss, x)

        def value():
            with no_grad():
                return float(make_loss().data)

        numeric = numerical_gradient(value, x.data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    # straight-through identity, exact
    for b in (8, 6, 4, 2):
        w = Tensor(rng.normal(size=37), requires_grad=True)
        c = rng.normal(size=37)
        (g,) = grad_of(lambda: weighted_sum(quantize_weights_at(w, b, 8), c), w)
        assert np.array_equal(g, c), "STE must be exact identity"

    # PACT alpha gradient against a per-element brute force
    for _ in range(20):
        alpha_val = float(rng.uniform(0.3, 1.2))
        alpha = Tensor(np.asarray(alpha_val), requires_grad=True)
        a_vals = rng.uniform(-1.0, 2.0, size=50)
        upstream = rng.normal(size=50)
        a = Tensor(a_vals, requires_grad=True)
        (galpha, ga) = grad_of(
            lambda: weighted_sum(quantize_activation(a, alpha, 3), upstream),
            alpha, a)
        brute = sum(upstream[i] for i in range(50) if a_vals[i] > alpha_val)
        assert abs(float(galpha) - brute) < 1e-12
        pass_region = (a_vals >= 0.0) & (a_vals <= alpha_val)
        assert np.array_equal(ga, upstream * pass_region)
    elapsed = time.monotonic() - start
    report(2, elapsed < 30.0,
           f"finite differences 100 trials at 1e-5 rel; STE exact identity; "
           f"alpha gradient equals saturated-entry sum ({elapsed:.1f}s < 30s)")


def test_criterion_3_truncation_and_alignment():
    start = time.monotonic()
    from flexquant.quantizers import QuantizedWeightView
    codes = np.arange(256, dtype=np.uint16)
    view8 = QuantizedWeightView(codes=codes, b1=8, mean_b1=0.0)
    for b in range(3, 8):
        mid = truncate_codes(view8, b)
        view_b = QuantizedWeightView(codes=mid, b1=b, mean_b1=0.0)
        for b2 in range(2, b):
            assert np.array_equal(truncate_codes(view_b, b2),
                                  truncate_codes(view8, b2)), "shift composition"
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=rng.integers(8, 300))
        for b in (6, 4, 2):
            view = quantize_weights_dorefa(w, 8)
            out = weight_forward(w, b, 8)
            worst = max(worst, abs(out.mean() - view.mean_b1))
    elapsed = time.monotonic() - start
    report(3, worst < 1e-12 and elapsed < 5.0,
           f"shift-compose exhaustive over codes 0..255; post-alignment mean "
           f"error max {worst:.2e} < 1e-12 ({elapsed:.1f}s < 5s)")


def test_criterion_4_selection_and_swapping():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    # selection-rule argmin on 1e3 synthetic (entropy, distance, lambda) triples
    for _ in range(1000):
        lam = float(rng.uniform(0, 5))
        dist = {t: float(rng.uniform(0, 2)) for t in (8, 6, 4)}
        probs, ent = {}, {}
        for t in (8, 6, 4):
            row = row_with_entropy(float(rng.uniform(0.01, 0.99)) * math.log(3))
            probs[t] = row
            ent[t] = entropy(row)
        choice = select_teacher(2, probs, lam=lam, distance_fn=lambda t, s: dist[t])
        scores = {t: ent[t] + lam * dist[t] for t in (8, 6, 4)}
        assert choice.teacher_b == min(sorted(scores, reverse=True),
                                       key=lambda t: scores[t])

    # Bernoulli frequencies within 3 sigma for L=10, p1 in {0.3, 0.5, 0.9}
    n, L = 100_000, 10
    for p1 in (0.3, 0.5, 0.9):
        counts = np.zeros(L)
        for _ in range(n):
            counts += sample_swap_mask(L, p1, rng).beta
        probs = layer_probs(L, p1)
        for l in range(L):
            sigma = math.sqrt(probs[l] * (1 - probs[l]) / n)
            assert abs(counts[l] / n - probs[l]) <= max(3 * sigma, 1e-12), \
                f"p1={p1} layer {l + 1}"

    # final-epoch masks are all-student
    trainer = Trainer(RunConfig.from_dict({
        "schema_version": 1, "mode": "coquant", "bits": [8, 4, 2],
        "dataset": {"kind": "synthetic_blobs", "classes": 4, "samples": 600,
                    "dim": 8, "spread": 1.0, "seed": 7},
        "arch": {"kind": "mlp", "input_dim": 8, "hidden": [16, 16, 16], "classes": 4},
        "epochs": 3, "batch_size": 100, "seed": 0, "p1_initial": 0.3,
    }))
    trainer.run()
    last_rows = [r for r in trainer.log.batch_rows
                 if r.epoch == 2 and r.b != trainer.bits.b1]
    assert last_rows and all(r.swap_student_fraction == 1.0 for r in last_rows)
    elapsed = time.monotonic() - start
    report(4, elapsed < 20.0,
           f"argmin brute-forced on 1e3 triples; mask frequencies within 3 sigma "
           f"(1e5 draws, L=10); final-epoch masks all-student ({elapsed:.1f}s < 20s)")


def test_criterion_5_loss_identities():
    logits = Tensor(np.random.default_rng(505).normal(size=(6, 3)))
    labels = np.array([0, 1, 2, 0, 1, 2])
    parts = loss_for_bit(8, logits, labels, teacher_probs=None)
    assert parts.kl == 0.0 and float(parts.loss.data) == pytest.approx(parts.ce, abs=1e-15)

    p = np.random.default_rng(506).random((5, 4))
    p /= p.sum(axis=1, keepdims=True)
    self_kl = float(ag.kl_div(Tensor(p), Tensor(p.copy())).data)
    assert abs(self_kl) < 1e-12

    student = Tensor(np.log(np.array([[0.5, 0.3, 0.2]])))
    teacher = Tensor(np.array([[0.7, 0.2, 0.1]]))
    parts = loss_for_bit(4, student, np.array([0]), teacher_probs=teacher)
    # frozen oracle values: CE = -ln 0.5, KL = sum p_t ln(p_t / p_s)
    ce_expect = 0.6931471805599453
    kl_expect = 0.0851228259572216
    ok = (abs(parts.ce - ce_expect) < 1e-6 and abs(parts.kl - kl_expect) < 1e-6)
    report(5, ok,
           f"highest precision KL-free; KL(p,p)=0 within 1e-12; 3-class example "
           f"CE={parts.ce:.6f}, KL={parts.kl:.6f} within 1e-6 of direct evaluation")


@pytest.fixture(scope="module")
def desk_runs():
    start = time.monotonic()
    results: dict = {}
    trainers: dict = {}
    for seed in range(5):
        for mode in ("coquant", "joint", "switchable_bn", "adabits"):
            t = Trainer(desk_config(mode, seed))
            results[(mode, seed)] = t.run()
            if mode == "coquant" and seed == 0:
                trainers["coquant0"] = t
        for b in (8, 4, 2):
            t = Trainer(desk_config(f"individual:{b}", seed, bits=(b,)))
            results[(f"individual:{b}", seed)] = t.run()
    return results, trainers, time.monotonic() - start


def test_criterion_6_desk_scale_end_to_end(desk_runs):
    results, _, elapsed = desk_runs
    failures = []
    # (a) every mode reaches 95% at 8 bits, every seed
    for mode in ("coquant", "joint", "switchable_bn", "adabits", "individual:8"):
        for seed in range(5):
            acc8 = results[(mode, seed)][8]
            if acc8 < 95.0:
                failures.append(f"{mode} seed {seed}: 8-bit {acc8:.2f} < 95")
    # (b) coquant mean 2-bit within 0.5 of adabits mean 2-bit (directional)
    co2 = np.mean([results[("coquant", s)][2] for s in range(5)])
    ad2 = np.mean([results[("adabits", s)][2] for s in range(5)])
    if co2 < ad2 - 0.5:
        failures.append(f"coquant 2-bit mean {co2:.2f} < adabits {ad2:.2f} - 0.5")
    # (c) delta_B against the individual runs
    deltas = []
    for seed in range(5):
        ref = {b: results[(f"individual:{b}", seed)][b] for b in (8, 4, 2)}
        deltas.append(delta_b(results[("coquant", seed)], ref))
    if min(deltas) < 95.0:
        failures.append(f"delta_B min {min(deltas):.2f} < 95")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    report(6, not failures,
           f"35 runs in {elapsed:.0f}s; worst 8-bit "
           f"{min(results[(m, s)][8] for m in ('coquant', 'joint', 'switchable_bn', 'adabits', 'individual:8') for s in range(5)):.2f}%; "
           f"2-bit coquant {co2:.2f} vs adabits {ad2:.2f}; "
           f"delta_B {min(deltas):.2f}..{max(deltas):.2f}"
           + ("" if not failures else f" | {failures}"))


def test_criterion_7_zero_shot_calibration(desk_runs):
    _, trainers, _ = desk_runs
    trainer = trainers["coquant0"]
    weights_before = {n: w.data.copy() for n, w in trainer.net.weights.items()}
    assert not trainer.bank.has(3)
    trainer.bank.ensure_entry(3)
    uncalibrated = trainer.evaluate(3)
    trainer.calibrate(3)
    calibrated = trainer.evaluate(3)
    untouched = all(np.array_equal(trainer.net.weights[n].data, weights_before[n])
                    for n in weights_before)
    gap = calibrated - uncalibrated
    report(7, gap >= 5.0 and untouched and trainer.bank.has(3),
           f"3-bit uncalibrated {uncalibrated:.2f}% -> calibrated {calibrated:.2f}% "
           f"(gap {gap:.2f} >= 5); bank created; weights bitwise untouched={untouched}")


def test_criterion_8_bit_width_combination_study(tmp_path):
    ok_rows = {}
    for bits in ([8, 4], [8, 2]):
        tag = "".join(map(str, bits))
        cfg = desk_config("coquant", 0, bits=tuple(bits), epochs=6)
        cfg_path = tmp_path / f"cfg{tag}.json"
        cfg_path.write_text(cfg.to_json())
        out = str(tmp_path / f"run{tag}")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.ckpt")
        missing = [b for b in range(2, 9) if b not in bits]
        assert cli_main(["calibrate", "--ckpt", ckpt,
                         "--bits", ",".join(map(str, missing))]) == 0
        assert cli_main(["eval", "--ckpt", ckpt, "--bits",
                         ",".join(str(b) for b in range(2, 9)),
                         "--out", os.path.join(out, "eval_summary.json")]) == 0
        report_dir = str(tmp_path / f"report{tag}")
        assert cli_main(["report", "--metrics", os.path.join(out, "metrics.csv"),
                         "--summary", os.path.join(out, "eval_summary.json"),
                         "--out", report_dir]) == 0
        table = open(os.path.join(report_dir, "report_table.csv")).read().splitlines()
        rows = {line.split(",")[0]: line.split(",")[2] for line in table[1:]}
        ok_rows[tag] = all(str(b) in rows for b in range(2, 9)) and all(
            rows[str(b)] == "True" for b in missing)
    report(8, all(ok_rows.values()),
           f"B={{8,4}} and B={{8,2}} trained; report table covers bits 2..8 with "
           f"zero-shot entries flagged for missing bit-widths")


def test_criterion_9_reproducibility(tmp_path):
    cfg = desk_config("coquant", 3, epochs=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        outs.append(out)
    same = all(
        open(os.path.join(outs[0], f), "rb").read()
        == open(os.path.join(outs[1], f), "rb").read()
        for f in ("metrics.csv", "teacher_histogram.csv", "eval_summary.json",
                  "checkpoint.ckpt"))
    report(9, same, "two identical-seed runs: metrics CSVs and checkpoints bitwise equal")


def test_criterion_10_deployment_bundle(desk_runs, tmp_path):
    _, trainers, _ = desk_runs
    trainer = trainers["coquant0"]
    path = str(tmp_path / "model.aqdb")
    size = export_bundle(path, trainer.net)
    bundle = load_bundle(path)
    net = bundle.build_network()
    x = trainer.eval_set.features[:256]
    worst = 0.0
    with no_grad():
        for b in trainer.bits:
            a = trainer.net.forward_at(x, b, mode="eval").data
            c = net.forward_at(x, b, mode="eval").data
            worst = max(worst, float(np.max(np.abs(a - c))))
    n_coded = sum(trainer.net.weights[n].data.size
                  for n in trainer.arch.quantized_names)
    ratio = size.code_payload / (4.0 * n_coded)
    report(10, worst < 1e-9 and ratio <= 0.25,
           f"bundle eval matches in-memory eval within {worst:.1e} (< 1e-9) for all "
           f"bits; code payload {size.code_payload}B = {100 * ratio:.0f}% of the "
           f"32-bit equivalent (<= 25%)")
