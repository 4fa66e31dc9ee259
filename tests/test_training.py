"""Training-loop tests: teacher selection, swap curricula, loss identities,
mode equivalences, calibration, and run-level determinism."""

import json
import math

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant import numerics, quantizers, training
from flexquant.autograd import Tape, Tensor
from flexquant.checkpoint import load_checkpoint, save_checkpoint
from flexquant.config import AlphaSettings, ConfigError, DatasetSpec, OptimizerSettings, RunConfig
from flexquant.datasets import Dataset
from flexquant.metrics import BatchRecord, MetricsLog, teacher_histogram
from flexquant.network import ContractError
from flexquant.numerics import FlexquantError
from flexquant.quantizers import BitWidthError
from flexquant.training import (
    LossParts,
    Trainer,
    TrainingError,
    delta_b,
    entropy,
    layer_probs,
    loss_for_bit,
    p1_at,
    sample_swap_mask,
    select_teacher,
)

from conftest import blob_config


# blob_config's default alpha.init (6.0) lies above every activation, so no
# clipping value would move and adabits would train exactly as switchable_bn
MOVING_ALPHA = {"alpha": {"init": 1.0}}


def make_trainer(**kwargs) -> Trainer:
    return Trainer(RunConfig.from_dict(blob_config(**kwargs)))


def row_with_entropy(target: float) -> np.ndarray:
    """A 3-outcome distribution [q, r, r] whose entropy equals target < ln 3."""
    assert target < math.log(3)
    lo, hi = 1.0 / 3.0, 1.0 - 1e-12  # entropy falls from ln3 to 0 as q -> 1
    for _ in range(200):
        q = 0.5 * (lo + hi)
        r = (1.0 - q) / 2.0
        h = -(q * math.log(q) + 2 * r * math.log(r)) if r > 0 else 0.0
        if h > target:
            lo = q
        else:
            hi = q
    q = 0.5 * (lo + hi)
    return np.array([[q, (1 - q) / 2, (1 - q) / 2]])


def _cnn_config(mode: str, tmp_path, write: bool = True, **arch) -> dict:
    """A tiny CNN on 24 random 3-class 8x8 IDX images in tmp_path; arch
    overrides the cnn keys, and write=False reuses the files already there."""
    if write:
        from test_datasets import write_idx_images, write_idx_labels
        rng = np.random.default_rng(3)
        write_idx_images(tmp_path / "imgs", rng.integers(0, 256, size=(24, 8, 8)))
        write_idx_labels(tmp_path / "labs", np.arange(24) % 3)
    return {
        "schema_version": 1, "mode": mode, "bits": [8, 4, 2],
        "dataset": {"kind": "idx_images", "train_images": str(tmp_path / "imgs"),
                    "train_labels": str(tmp_path / "labs"),
                    "mean": 0.5, "std": 0.5, "classes": 3},
        "arch": {"kind": "cnn", "in_channels": 1, "image_size": 8,
                 "classes": 3, "channels": [4, 4, 4], **arch},
        "epochs": 1, "batch_size": 8, "seed": 0,
    }


def _reuse_trainer(mode: str, arch: str, tmp_path) -> Trainer:
    """A desk-like MLP, or _cnn_config's tiny CNN."""
    if arch == "mlp":
        return make_trainer(mode=mode, epochs=1, samples=300, batch_size=100)
    return Trainer(RunConfig.from_dict(_cnn_config(mode, tmp_path)))


def _three_steps(trainer: Trainer, fresh_copies: bool, patch) -> tuple[dict, dict]:
    """The bytes of every parameter, velocity and BN running statistic and
    the batch rows after three train steps; and the counts of once_per_tape
    calls, of those that computed their result, and of weight codings."""
    counts = {"calls": 0, "computed": 0, "coded": 0}
    once, code = ag.once_per_tape, quantizers.quantize_weights_dorefa

    def counting_once(key, arrays, compute):
        def counted():
            counts["computed"] += 1
            return compute()

        counts["calls"] += 1
        return once(key, arrays, counted)

    def counting_code(wd, b1):
        counts["coded"] += 1
        return code(wd, b1)

    patch.setattr(ag, "once_per_tape", counting_once)
    patch.setattr(quantizers, "quantize_weights_dorefa", counting_code)
    if fresh_copies:
        forward_at, weight_forward = trainer.net.forward_at, quantizers.weight_forward
        patch.setattr(trainer.net, "forward_at",
                      lambda x, *args, **kwargs: forward_at(x.copy(), *args, **kwargs))
        patch.setattr(quantizers, "weight_forward",
                      lambda wd, b, b1: weight_forward(wd.copy(), b, b1))
    data = trainer.train_set
    n = trainer.config.batch_size
    rows = []
    for i in range(3):
        rows += trainer.train_step(data.features[i * n:(i + 1) * n],
                                   data.labels[i * n:(i + 1) * n], epoch=0, batch_index=i)
    state = {f"param {name}": p.data.tobytes()
             for group in trainer.optimizer.groups for name, p in group.params.items()}
    state.update({f"velocity {name}": v.tobytes()
                  for name, v in trainer.optimizer.state().items()})
    for b, entry in trainer.bank.entries.items():
        for name, st in entry.bn.items():
            state[f"bank{b} {name} stats"] = (st.running_mean.tobytes()
                                              + st.running_var.tobytes())
    state["rows"] = [r.row() for r in rows]
    return state, counts


# ---------------------------------------------------------------------------
# entropy and teacher selection
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_one_hot_rows_are_zero(self):
        p = np.zeros((3, 5))
        p[np.arange(3), [0, 2, 4]] = 1.0
        assert entropy(p) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rows_max_entropy(self):
        p = np.full((2, 10), 0.1)
        assert entropy(p) == pytest.approx(math.log(10), abs=1e-12)

    def test_mixed_batch_averages(self):
        p = np.zeros((2, 10))
        p[0, 3] = 1.0
        p[1, :] = 0.1
        assert entropy(p) == pytest.approx(math.log(10) / 2, abs=1e-12)


class TestSelectTeacher:
    def _dist(self, table):
        return lambda t, s: table[t]

    def test_lambda_zero_minimizes_entropy(self):
        rng = np.random.default_rng(0)
        probs = {}
        for t, sharp in ((8, 0.7), (6, 0.999), (4, 0.4)):
            p = np.full((4, 5), (1 - sharp) / 4)
            p[:, 0] = sharp
            probs[t] = p
        choice = select_teacher(2, probs, lam=0.0,
                                distance_fn=self._dist({8: 9.0, 6: 9.0, 4: 9.0}))
        entropies = {t: entropy(p) for t, p in probs.items()}
        assert choice.teacher_b == min(entropies, key=entropies.get)

    def test_huge_lambda_minimizes_distance(self):
        p = np.full((2, 4), 0.25)
        probs = {8: p, 6: p.copy(), 4: p.copy()}
        dist = {8: 0.8, 6: 0.3, 4: 0.1}
        choice = select_teacher(2, probs, lam=1e9, distance_fn=self._dist(dist))
        assert choice.teacher_b == min(dist, key=dist.get)

    def test_hand_scores_pick_second_candidate(self):
        # entropies {0.5, 0.7}, distances {0.2, 0.05}, lambda=2 -> scores {0.9, 0.8}
        probs = {}
        for t, h in ((8, 0.5), (6, 0.7)):
            probs[t] = row_with_entropy(h)
        choice = select_teacher(4, probs,
                                lam=2.0, distance_fn=self._dist({8: 0.2, 6: 0.05}))
        assert choice.teacher_b == 6
        assert choice.score == pytest.approx(0.8, abs=1e-9)

    def test_tie_breaks_toward_higher_bit(self):
        p = np.full((2, 4), 0.25)
        probs = {8: p, 4: p.copy()}
        choice = select_teacher(2, probs, lam=1.0, distance_fn=self._dist({8: 0.5, 4: 0.5}))
        assert choice.teacher_b == 8

    def test_no_candidates_is_contract_violation(self):
        with pytest.raises(ContractError):
            select_teacher(8, {}, lam=0.1, distance_fn=lambda t, s: 0.0)

    def test_candidate_below_student_rejected(self):
        with pytest.raises(ContractError):
            select_teacher(4, {2: np.full((1, 2), 0.5)}, lam=0.1,
                           distance_fn=lambda t, s: 0.0)

    def test_score_equals_logged_terms(self):
        p = np.full((2, 4), 0.25)
        choice = select_teacher(2, {8: p}, lam=0.37, distance_fn=self._dist({8: 0.9}))
        assert choice.score == pytest.approx(
            choice.entropy_term + choice.lam * choice.distance_term, abs=1e-12)

    def test_brute_force_argmin_on_synthetic_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            lam = float(rng.uniform(0, 5))
            cand_bits = [8, 6, 4]
            dist = {t: float(rng.uniform(0, 2)) for t in cand_bits}
            probs, ent = {}, {}
            for t in cand_bits:
                row = row_with_entropy(float(rng.uniform(0.01, 0.99)) * math.log(3))
                probs[t] = row
                ent[t] = entropy(row)  # realized entropy of the constructed row
            choice = select_teacher(2, probs, lam=lam, distance_fn=lambda t, s: dist[t])
            scores = {t: ent[t] + lam * dist[t] for t in cand_bits}
            best = min(sorted(cand_bits, reverse=True), key=lambda t: scores[t])
            assert choice.teacher_b == best


# ---------------------------------------------------------------------------
# swap schedule and masks
# ---------------------------------------------------------------------------

class TestSwapSchedule:
    def test_layer_prob_formula(self):
        probs = layer_probs(5, 0.4)
        assert probs[-1] == pytest.approx(min(1.0, 2 * 0.4), abs=1e-15)
        expect = [min(1.0, (1 + l / 5) * 0.4) for l in range(1, 6)]
        np.testing.assert_allclose(probs, expect, atol=1e-15)

    def test_p1_one_gives_all_student(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mask = sample_swap_mask(6, 1.0, rng)
            assert mask.beta.all()

    def test_curriculum_nondecreasing_reaches_one(self):
        values = [p1_at(e, 0.3, 10) for e in range(10)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(0.3)
        assert values[-1] == 1.0

    def test_single_epoch_schedule_is_one(self):
        assert p1_at(0, 0.5, 1) == 1.0

    def test_empirical_frequencies_within_3_sigma(self):
        rng = np.random.default_rng(3)
        n, L, p1 = 20_000, 5, 0.5
        draws = np.stack([sample_swap_mask(L, p1, rng).beta for _ in range(n)])
        probs = layer_probs(L, p1)
        for l in range(L):
            p = probs[l]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(draws[:, l].mean() - p) <= max(3 * sigma, 1e-12)

    def test_invalid_p1_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_swap_mask(5, 0.0, rng)

    def test_deep_run_swaps_before_the_last_epoch_only(self):
        """Three quantized blocks at the default p1_initial: some student
        batches of epoch 0 run a teacher block, and none of the last epoch."""
        trainer = make_trainer(mode="coquant", epochs=3, batch_size=100, seed=0, samples=800,
                               classes=16, dim=16, spread=2.0, data_seed=11,
                               hidden=(16, 8, 8, 16))
        trainer.run()
        students = [r for r in trainer.log.batch_rows if r.b != trainer.bits.b1]
        assert any(r.swap_student_fraction < 1.0 for r in students if r.epoch == 0)
        assert all(r.swap_student_fraction == 1.0 for r in students if r.epoch == 2)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestLossForBit:
    def test_highest_precision_has_no_kl(self):
        logits = Tensor(np.random.default_rng(5).normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 0])
        parts = loss_for_bit(8, logits, labels, teacher_probs=None)
        assert parts.kl == 0.0
        assert float(parts.loss.data) == pytest.approx(parts.ce, abs=1e-15)

    def test_identical_teacher_gives_zero_kl(self):
        logits = Tensor(np.random.default_rng(6).normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 0])
        with Tape():
            parts = loss_for_bit(4, logits, labels, teacher_probs=ag.softmax(logits))
        assert parts.kl == pytest.approx(0.0, abs=1e-12)

    def test_fixed_three_class_example(self):
        # teacher (0.7, 0.2, 0.1), student (0.5, 0.3, 0.2), label 0
        student_logits = Tensor(np.log(np.array([[0.5, 0.3, 0.2]])))
        teacher = Tensor(np.array([[0.7, 0.2, 0.1]]))
        parts = loss_for_bit(4, student_logits, np.array([0]), teacher_probs=teacher)
        assert parts.ce == pytest.approx(0.6931471805599453, abs=1e-9)
        # direct evaluation of sum p ln(p/q); the value rounds to 0.0851228
        assert parts.kl == pytest.approx(0.0851228259572216, abs=1e-9)

    def test_teacher_is_detached(self):
        rng = np.random.default_rng(7)
        student_logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        teacher_logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            teacher_probs = ag.softmax(teacher_logits)
            parts = loss_for_bit(4, student_logits, np.array([0, 1, 2, 0]),
                                 teacher_probs=teacher_probs)
        tape.backward(parts.loss)
        assert teacher_logits.grad is None
        assert student_logits.grad is not None


class TestDeltaB:
    def test_identical_is_hundred(self):
        acc = {8: 91.0, 4: 88.0, 2: 70.0}
        assert delta_b(acc, dict(acc)) == pytest.approx(100.0, abs=1e-12)

    def test_hand_example(self):
        assert delta_b({8: 90.0, 2: 45.0}, {8: 90.0, 2: 90.0}) == pytest.approx(75.0)

    def test_linearity(self):
        acc = {8: 80.0, 2: 40.0}
        ref = {8: 90.0, 2: 60.0}
        base = delta_b(acc, ref)
        scaled = delta_b({b: 1.3 * v for b, v in acc.items()}, ref)
        assert scaled == pytest.approx(1.3 * base, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            delta_b({8: 50.0}, {8: 0.0})

    def test_mismatched_bits_rejected(self):
        with pytest.raises(ValueError):
            delta_b({8: 50.0}, {4: 50.0})


# ---------------------------------------------------------------------------
# trainer behavior
# ---------------------------------------------------------------------------

class TestTrainStep:
    def test_coquant_single_bit_degenerates_to_individual(self):
        a = make_trainer(mode="coquant", bits=(8,), epochs=2)
        b = make_trainer(mode="individual:8", bits=(8,), epochs=2)
        a.run()
        b.run()
        for name in a.net.weights:
            np.testing.assert_array_equal(a.net.weights[name].data,
                                          b.net.weights[name].data)

    def test_mode_equivalence_single_bit(self):
        runs = {}
        for mode in ("adabits", "switchable_bn", "individual:8"):
            t = make_trainer(mode=mode, bits=(8,), epochs=2, **MOVING_ALPHA)
            t.run()
            runs[mode] = {n: w.data.copy() for n, w in t.net.weights.items()}
        for name in runs["individual:8"]:
            np.testing.assert_array_equal(runs["adabits"][name],
                                          runs["individual:8"][name])
            np.testing.assert_array_equal(runs["switchable_bn"][name],
                                          runs["individual:8"][name])

    def test_gradient_accumulation_equivalence(self):
        # one backward over the summed loss == the sum of per-bit backwards
        trainer = make_trainer(mode="adabits", epochs=1, **MOVING_ALPHA)
        xb = trainer.train_set.features[:32]
        yb = trainer.train_set.labels[:32]

        def forward_loss(b):
            logits = trainer.net.forward_at(xb, b, mode="train")
            probs = ag.softmax(logits)
            return ag.cross_entropy(probs, yb)

        def zero_all():
            for w in trainer.net.weights.values():
                w.grad = None

        summed = {}
        zero_all()
        with Tape() as tape:
            total = None
            for b in trainer.bits:
                loss = forward_loss(b)
                total = loss if total is None else ag.add(total, loss)
        tape.backward(total)
        for name, w in trainer.net.weights.items():
            summed[name] = w.grad.copy()

        separate = {name: 0.0 for name in trainer.net.weights}
        for b in trainer.bits:
            zero_all()
            with Tape() as tape:
                loss = forward_loss(b)
            tape.backward(loss)
            for name, w in trainer.net.weights.items():
                separate[name] = separate[name] + w.grad
        for name in summed:
            np.testing.assert_allclose(summed[name], separate[name], atol=1e-9)

    def test_coquant_step_codes_each_layer_once_per_bit(self, monkeypatch):
        trainer = make_trainer(mode="coquant", epochs=1)
        calls = []
        real = quantizers.quantize_weights_dorefa

        def counting(w, b1):
            calls.append(b1)
            return real(w, b1)

        monkeypatch.setattr(quantizers, "quantize_weights_dorefa", counting)
        xb = trainer.train_set.features[:32]
        yb = trainer.train_set.labels[:32]
        trainer.train_step(xb, yb, epoch=0, batch_index=0)
        # the b1 codes are shared by every bit-width: one coding per
        # quantized layer per step
        assert len(calls) == trainer.arch.num_blocks

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    @pytest.mark.parametrize("mode", ["coquant", "adabits", "joint", "switchable_bn"])
    def test_reuse_within_a_step_changes_no_bit(self, mode, arch, tmp_path, monkeypatch):
        # the reference run feeds every bit-width a fresh copy of the batch
        # and of each latent weight tensor, so no input array is seen twice
        # and the tape reuses nothing
        runs = {}
        for fresh_copies in (False, True):
            trainer = _reuse_trainer(mode, arch, tmp_path)
            with monkeypatch.context() as patch:
                runs[fresh_copies] = _three_steps(trainer, fresh_copies, patch)
        (shared, shared_counts), (fresh, fresh_counts) = runs[False], runs[True]
        codings = 3 * trainer.arch.num_blocks  # once per quantized layer per step
        assert shared_counts["computed"] < shared_counts["calls"]
        assert shared_counts["coded"] == codings
        assert fresh_counts["computed"] == fresh_counts["calls"]
        assert fresh_counts["coded"] == codings * len(trainer.bits)
        assert shared.keys() == fresh.keys()
        for key in shared:
            assert shared[key] == fresh[key], key

    def test_teacher_kl_contributes_no_teacher_gradient(self):
        # KL alone: the teacher-only bank parameters receive no gradient
        trainer = make_trainer(mode="coquant", epochs=1)
        xb = trainer.train_set.features[:16]
        with Tape() as tape:
            p_teacher = ag.softmax(trainer.net.forward_at(xb, 8, mode="train"))
            p_student = ag.softmax(trainer.net.forward_at(xb, 2, mode="train"))
            kl = ag.kl_div(p_teacher, p_student)
        tape.backward(kl)
        for name, st in trainer.bank.entry(8).bn.items():
            assert st.gamma.grad is None, f"teacher-side {name} gamma got a KL gradient"

    def test_teacher_legality_across_run(self):
        trainer = make_trainer(mode="coquant", epochs=2)
        trainer.run()
        students = [r for r in trainer.log.batch_rows if r.b != trainer.bits.b1]
        assert students, "coquant must log teacher choices"
        for r in students:
            assert r.teacher_b is not None
            assert r.teacher_b > r.b
            assert r.teacher_b in trainer.bits

    def test_selection_score_reproduces_argmin(self, monkeypatch):
        choices = []

        def recording_select_teacher(student_b, teacher_probs, lam, distance_fn):
            choice = select_teacher(student_b, teacher_probs, lam, distance_fn)
            # recomputed after the call, so the distances hit the tape's cache
            scores = {t: entropy(p) + lam * trainer.net.model_distance(t, student_b)
                      for t, p in teacher_probs.items()}
            choices.append((choice, scores))
            return choice

        monkeypatch.setattr(training, "select_teacher", recording_select_teacher)
        trainer = make_trainer(mode="coquant", epochs=2)
        trainer.run()
        assert choices
        for choice, scores in choices:
            best = min(sorted(scores, reverse=True), key=lambda t: scores[t])
            assert choice.teacher_b == best
            assert choice.score == pytest.approx(scores[choice.teacher_b], abs=1e-12)

    def test_final_epoch_masks_all_student(self):
        trainer = make_trainer(mode="coquant", epochs=3, p1_initial=0.3)
        trainer.run()
        last = trainer.config.epochs - 1
        rows = [r for r in trainer.log.batch_rows
                if r.epoch == last and r.b != trainer.bits.b1]
        assert rows
        assert all(r.swap_student_fraction == 1.0 for r in rows)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        trainer = make_trainer(mode="adabits", epochs=1)
        name = trainer.arch.learnable_names[0]
        trainer.net.weights[name].data[0, 0] = np.nan
        with pytest.raises(TrainingError):
            trainer.train_epoch()

    def test_determinism_bitwise_metrics(self):
        a = make_trainer(mode="coquant", epochs=2, seed=5)
        b = make_trainer(mode="coquant", epochs=2, seed=5)
        a.run()
        b.run()
        assert a.log.metrics_csv_text() == b.log.metrics_csv_text()
        for name in a.net.weights:
            np.testing.assert_array_equal(a.net.weights[name].data,
                                          b.net.weights[name].data)

    def test_teacher_counts_sum_to_batches(self):
        trainer = make_trainer(mode="coquant", epochs=3, samples=600, batch_size=100)
        trainer.run()
        n_batches = 6
        totals = {}
        for epoch, student, _, count in trainer.log.histogram_rows():
            totals[epoch, student] = totals.get((epoch, student), 0) + count
        students = [b for b in trainer.bits if b != trainer.bits.b1]
        assert totals == {(e, s): n_batches for e in range(3) for s in students}

    def test_each_epoch_aggregates_only_its_own_rows(self):
        trainer = make_trainer(mode="coquant", epochs=3, samples=600, batch_size=100)
        trainer.run()
        rows = trainer.log.histogram_rows()
        for epoch in range(3):
            batch_rows = [r for r in trainer.log.batch_rows if r.epoch == epoch]
            assert len(batch_rows) == 6 * len(trainer.bits)
            counts = {}
            for r in batch_rows:
                if r.teacher_b is not None:
                    counts[r.b, r.teacher_b] = counts.get((r.b, r.teacher_b), 0) + 1
            assert {(s, t): c for e, s, t, c in rows if e == epoch} == counts
        # the one per-epoch fact the rows do not hold: eval accuracy per bit-width
        assert sorted(trainer.log.eval_accuracy) == [0, 1, 2]
        assert all(set(acc) == set(trainer.bits) for acc in trainer.log.eval_accuracy.values())


class TestFiniteBoundaries:
    """NaN/Inf is caught where it enters or would land in kept state."""

    @staticmethod
    def first_batch(trainer):
        return next(trainer.train_set.batches(trainer.config.batch_size))

    def test_nan_latent_weight_names_first_matmul(self):
        trainer = make_trainer(mode="coquant", epochs=1)
        first = trainer.arch.learnable_names[0]  # full precision: never coded
        trainer.net.weights[first].data[0, 0] = np.nan
        xb, yb = self.first_batch(trainer)
        with pytest.raises(TrainingError) as exc:
            trainer.train_step(xb, yb, 2, 5)
        message = str(exc.value)
        assert "epoch 2 batch 5" in message
        assert message.endswith("first non-finite op output: matmul")

    def test_rejected_step_leaves_running_statistics(self):
        trainer = make_trainer(mode="coquant", epochs=1)
        first = trainer.arch.learnable_names[0]
        trainer.net.weights[first].data[0, 0] = np.nan
        before = {(b, name): (st.running_mean.copy(), st.running_var.copy())
                  for b in trainer.bits for name, st in trainer.bank.entry(b).bn.items()}
        xb, yb = self.first_batch(trainer)
        with pytest.raises(TrainingError):
            trainer.train_step(xb, yb, 0, 0)
        for (b, name), (mean, var) in before.items():
            st = trainer.bank.entry(b).bn[name]
            assert st.running_mean.tobytes() == mean.tobytes(), (b, name)
            assert st.running_var.tobytes() == var.tobytes(), (b, name)

    def test_inf_bn_gamma_names_batchnorm(self):
        trainer = make_trainer(mode="adabits", epochs=1)
        last_bn = trainer.arch.bn_names[-1]  # its output is the logits
        trainer.bank.entry(8).bn[last_bn].gamma.data[0] = np.inf
        xb, yb = self.first_batch(trainer)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as exc:
            trainer.train_step(xb, yb, 0, 0)
        assert str(exc.value).endswith("first non-finite op output: batchnorm_train")

    def test_readme_loop_stops_at_optimizer_with_weights_unchanged(self):
        from flexquant import BitWidthSet, PrecisionBank, QuantNet, mlp
        from flexquant.datasets import gen_synthetic_blobs
        from flexquant.optim import SGD, ParamGroup, StepError

        bits = BitWidthSet([8, 4, 2])
        arch = mlp(input_dim=8, hidden=[16, 16], classes=4)
        bank = PrecisionBank(bits, arch)
        net = QuantNet(bank, rng=np.random.default_rng(0))
        net.weights[arch.learnable_names[0]].data[0, 0] = np.nan
        bn_params, alpha_params = bank.named_parameters()
        params = {**net.named_weights(), **bn_params, **alpha_params}
        before = {name: p.data.copy() for name, p in params.items()}
        opt = SGD([ParamGroup(params, lr=0.1)])
        batches = gen_synthetic_blobs(4, 200, 8, 1.0, seed=7).batches(100)
        with pytest.raises(StepError, match="non-finite gradient"):
            for xb, yb in batches:
                with Tape() as tape:
                    loss = ag.cross_entropy(ag.softmax(net.forward_at(xb, 4, mode="train")), yb)
                tape.backward(loss)
                opt.step(); opt.zero_grad()
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_calibration_rejects_non_finite_statistics(self):
        trainer = make_trainer(mode="adabits", epochs=1)
        first = trainer.arch.learnable_names[0]
        trainer.net.weights[first].data[:] = 1e200  # squares overflow
        entry = trainer.bank.entry(8)
        before = {name: (st.running_mean.copy(), st.running_var.copy())
                  for name, st in entry.bn.items()}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(numerics.NonFiniteError, match="calibrate b=8 .* running_var"):
            trainer.calibrate(8)
        for name, st in entry.bn.items():  # no layer's statistics are written
            np.testing.assert_array_equal(st.running_mean, before[name][0])
            np.testing.assert_array_equal(st.running_var, before[name][1])
        assert 8 not in trainer.calibrated_bits


class TestWidthChecks:
    """A net whose ends do not fit the data fails at construction with a
    ConfigError naming both widths: a narrow head used to fail mid-epoch with
    a bare IndexError, and a wide one trained silently."""

    @pytest.mark.parametrize("classes", [2, 5])
    def test_mlp_head_must_match_the_class_count(self, classes):
        cfg = blob_config(epochs=1)
        cfg["arch"]["classes"] = classes
        with pytest.raises(ConfigError, match=f"dense6 outputs {classes} logits, but the "
                                              "dataset has 4 classes"):
            Trainer(RunConfig.from_dict(cfg))

    def test_mlp_input_width_must_match_the_samples(self):
        cfg = blob_config(epochs=1)
        cfg["arch"]["input_dim"] = 9
        with pytest.raises(ConfigError, match="dense0 takes inputs of width 9, but the "
                                              "dataset's samples have width 8"):
            Trainer(RunConfig.from_dict(cfg))

    @pytest.mark.parametrize("classes", [2, 4])
    def test_cnn_head_must_match_the_class_count(self, classes, tmp_path):
        cfg = _cnn_config("coquant", tmp_path, classes=classes)
        with pytest.raises(ConfigError, match=f"outputs {classes} logits, but the "
                                              "dataset has 3 classes"):
            Trainer(RunConfig.from_dict(cfg))

    def test_cnn_input_channels_must_match_the_images(self, tmp_path):
        cfg = _cnn_config("coquant", tmp_path, in_channels=3)
        with pytest.raises(ConfigError, match="conv0 takes inputs of width 3, but the "
                                              "dataset's samples have width 1"):
            Trainer(RunConfig.from_dict(cfg))

    @pytest.mark.parametrize("image_size", [4, 10])
    def test_cnn_image_size_must_match_the_images(self, image_size, tmp_path):
        # image_size 4 used to fail at the first step, as a DimensionError from matmul
        cfg = _cnn_config("coquant", tmp_path, image_size=image_size)
        with pytest.raises(ConfigError, match=rf"^arch: image_size is {image_size}, but the "
                                              r"dataset's samples have shape \(1, 8, 8\)$"):
            Trainer(RunConfig.from_dict(cfg))

    @pytest.mark.parametrize("arch, first, width", [("mlp", "dense0", 4), ("cnn", "conv0", 1)])
    def test_calibration_data_must_fit_the_input_end(self, arch, first, width, tmp_path, capsys):
        """calibrate --data used to fail mid-pass, with matmul's or conv2d's shape error."""
        from flexquant.cli import main
        cfg = (blob_config(epochs=1, dim=4, hidden=(8,)) if arch == "mlp"
               else _cnn_config("coquant", tmp_path))
        ckpt, spec = str(tmp_path / "run.ckpt"), tmp_path / "data.json"
        save_checkpoint(ckpt, Trainer(RunConfig.from_dict(cfg)))
        spec.write_text(json.dumps(blob_config(dim=5)["dataset"]))
        assert main(["calibrate", "--ckpt", ckpt, "--bits", "3", "--data", str(spec),
                     "--out", str(tmp_path / "cal.ckpt")]) == 1
        assert capsys.readouterr().err == (f"error: arch: {first} takes inputs of width {width}, "
                                           "but the dataset's samples have width 5\n")

    def test_eval_data_must_fit_the_head(self):
        """A 7-class dataset on a 3-logit head used to score silently; calibration,
        which reads no labels, takes it."""
        trainer = make_trainer(epochs=1, dim=3, classes=3, samples=24, hidden=(4,))
        features = trainer.eval_set.features
        seven = Dataset(features, np.arange(len(features)) % 7, 7)
        with pytest.raises(ConfigError, match="^arch: dense3 outputs 3 logits, but the "
                                              "dataset has 7 classes$"):
            trainer.evaluate(8, seven)
        trainer.calibrate(3, seven)

    def test_a_flatten_first_net_takes_the_flattened_width(self, tmp_path):
        cfg = _cnn_config("coquant", tmp_path)
        cfg["arch"] = {"kind": "layers", "layers": [
            {"kind": "flatten"}, {"kind": "dense", "in_features": 64, "out_features": 3},
            {"kind": "bn", "features": 3}]}
        trainer = Trainer(RunConfig.from_dict(cfg))
        trainer.train_step(trainer.train_set.features[:8], trainer.train_set.labels[:8], 0, 0)

    def test_every_split_is_checked(self, tmp_path):
        rows = np.random.default_rng(0).normal(size=(6, 3))
        labels = np.arange(6)[:, None] % 2
        np.savetxt(tmp_path / "train.csv", np.hstack([rows, labels]), delimiter=",")
        np.savetxt(tmp_path / "eval.csv", np.hstack([rows[:, :2], labels]), delimiter=",")
        cfg = blob_config(epochs=1, dim=3, classes=2, hidden=(4,))
        cfg["dataset"] = {"kind": "csv_table", "path": str(tmp_path / "train.csv"),
                          "eval_path": str(tmp_path / "eval.csv"), "classes": 2}
        with pytest.raises(ConfigError, match="samples have width 2"):
            Trainer(RunConfig.from_dict(cfg))

    def test_generated_widths_train_or_are_rejected(self, tmp_path):
        """Generated mlp widths (on 3-dim, 3-class blobs) and conv channel
        counts (on the 1-channel, 3-class images) either build a Trainer that
        runs one step, or raise a FlexquantError; one that fits the data runs."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        _cnn_config("coquant", tmp_path)  # the IDX files, written once

        @settings(max_examples=40)
        @given(st.data())
        def check(data):
            def width(fit: int, misfits: list[int]) -> int:  # the fit half the time
                return fit if data.draw(st.booleans()) else data.draw(st.sampled_from(misfits))

            kind = data.draw(st.sampled_from(["mlp", "cnn"]))
            widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
            classes = width(3, [1, 2, 4, 5])
            if kind == "mlp":
                width_in, data_width = width(3, [1, 2, 4]), 3
                cfg = blob_config(epochs=1, dim=3, classes=3, samples=12, batch_size=12,
                                  hidden=widths)
                cfg["arch"].update(input_dim=width_in, classes=classes)
            else:
                width_in, data_width = width(1, [2, 3]), 1
                cfg = _cnn_config("coquant", tmp_path, write=False, in_channels=width_in,
                                  channels=widths, classes=classes)
            try:
                trainer = Trainer(RunConfig.from_dict(cfg))
                features, labels = trainer.train_set.features, trainer.train_set.labels
                trainer.train_step(features[:12], labels[:12], 0, 0)
            except FlexquantError:
                assert (width_in, classes) != (data_width, 3), cfg["arch"]
            else:
                assert (width_in, classes) == (data_width, 3), cfg["arch"]

        check()

    def test_generated_layer_stacks_train_or_are_rejected(self):
        """Generated dense stacks on 3-dim, 3-class blobs, each dense layer
        followed by an optional batch norm and an optional ReLU, train one
        epoch in every multi-bit mode when their widths chain, and raise a
        FlexquantError, never a bare exception, with one width changed."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        seen = set()

        @settings(max_examples=50)
        @given(st.data())
        def check(data):
            widths = [3, *data.draw(st.lists(st.integers(1, 5), max_size=3)), 3]
            layers = []
            for width_in, width_out in zip(widths, widths[1:]):
                layers.append({"kind": "dense", "in_features": width_in,
                               "out_features": width_out})
                if data.draw(st.booleans()):
                    layers.append({"kind": "bn", "features": width_out})
                if data.draw(st.booleans()):
                    layers.append({"kind": "relu"})
            mode = data.draw(st.sampled_from(["coquant", "joint", "switchable_bn", "adabits"]))
            cfg = blob_config(mode=mode, epochs=1, dim=3, classes=3, samples=24, batch_size=12)
            cfg["arch"] = {"kind": "layers", "layers": layers}
            Trainer(RunConfig.from_dict(cfg)).run()
            seen.add(mode)
            seen.update(("dense", "relu") for a, b in zip(layers, layers[1:])
                        if (a["kind"], b["kind"]) == ("dense", "relu"))

            sized = [(i, key) for i, layer in enumerate(layers) for key in layer if key != "kind"]
            i, key = data.draw(st.sampled_from(sized))
            old = layers[i][key]
            layers[i][key] = data.draw(st.integers(1, 6).filter(lambda w: w != old))
            with pytest.raises(FlexquantError):
                Trainer(RunConfig.from_dict(cfg)).run()

        check()
        assert seen == {"coquant", "joint", "switchable_bn", "adabits", ("dense", "relu")}


class TestConfigSetInCode:
    """Trainer(config) runs the JSON parsers' value rules on fields set in
    code: each config below used to train (or fail later, with another
    error), and the checkpoint it wrote then failed to load."""

    @pytest.mark.parametrize("field, value, match", [
        ("alpha", AlphaSettings(init=-1.0), "^alpha.init and alpha.lr must be positive$"),
        ("optimizer", OptimizerSettings(schedule="cosine"),
         "^optimizer.schedule must be 'step' or 'constant', got 'cosine'$"),
        ("optimizer", OptimizerSettings(lr=-0.1), "^optimizer.lr must be positive, got -0.1$"),
        ("optimizer", OptimizerSettings(momentum=True), "^optimizer.momentum must be float"),
        ("dataset", DatasetSpec("synthetic_blobs", classes=4, samples=600, dim=8, seed=-1),
         "^dataset.seed must be non-negative, got -1$"),
        ("dataset", DatasetSpec("blobs"), "^dataset.kind must be one of"),
        ("epochs", "2", "^epochs must be int, got '2'$"),
        ("lam", float("nan"), "^lambda must be a finite number, got nan$"),
        ("bits", ["8", "4", "2"], "^bits must be int, got '8'$"),
    ], ids=["alpha_init", "schedule", "lr", "momentum_bool", "dataset_seed", "dataset_kind",
            "epochs_str", "lambda_nan", "bits_str"])
    def test_value_rules_run_at_trainer(self, field, value, match):
        cfg = RunConfig.from_dict(blob_config(epochs=1))
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=match):
            Trainer(cfg)

    def test_blobs_without_eval_samples_train_on_the_default_split(self):
        parsed = Trainer(RunConfig.from_dict(blob_config(epochs=1)))
        cfg = RunConfig.from_dict(blob_config(epochs=1))
        cfg.dataset = DatasetSpec("synthetic_blobs", classes=4, samples=600, dim=8, seed=7)
        trainer = Trainer(cfg)
        assert cfg.dataset.eval_samples == len(trainer.eval_set) == 150
        np.testing.assert_array_equal(trainer.eval_set.features, parsed.eval_set.features)
        assert cfg.to_json() == parsed.config.to_json()
        assert trainer.run() == parsed.run()

    def test_generated_configs_reload_or_are_rejected(self, tmp_path):
        """Generated optimizer, alpha, dataset, bits and scalar values, given as
        JSON or set in code on a parsed config, either raise a FlexquantError
        before training starts, or train one epoch and reload from their
        checkpoint to a config with an equal to_json()."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings, strategies as st

        floats = st.floats
        valid = {  # edge values included
            "optimizer": {"lr": floats(0.001, 0.5) | st.just(1),
                          "momentum": floats(0.0, 0.95) | st.just(0),
                          "weight_decay": floats(-0.01, 0.01) | st.just(0),
                          "schedule": st.sampled_from(["step", "constant"])},
            "alpha": {"init": floats(0.1, 8.0) | st.just(2), "lr": floats(0.001, 0.1),
                      "weight_decay": floats(0.0, 0.01) | st.just(0)},
            "dataset": {"classes": st.just(3), "samples": st.integers(3, 48),
                        "dim": st.just(3), "spread": floats(0.1, 3.0),
                        "seed": st.integers(0, 2**64), "center_scale": floats(0.0, 5.0),
                        "center_offset": floats(-10.0, 10.0),
                        "eval_samples": st.integers(-2, 48).filter(lambda n: n not in (1, 2))},
            "scalars": {"lambda": floats(0.0, 2.0) | st.just(0),
                        "p1_initial": floats(0.01, 1.0) | st.just(1),
                        "epochs": st.integers(1, 3), "batch_size": st.integers(1, 32),
                        "seed": st.integers(0, 2**64), "bn_momentum": floats(0.01, 1.0),
                        "bits": st.sampled_from([[8, 4, 2], [8, 2], [6, 3], [2, 5]])},
        }
        nan, inf = float("nan"), float("inf")
        invalid = [(group, key, bad) for group, key, values in [
            ("optimizer", "lr", (0, -0.1, nan, "0.1")),
            ("optimizer", "momentum", (1, 1.5, -0.1, True)),
            ("optimizer", "weight_decay", (inf,)),
            ("optimizer", "schedule", ("cosine", 1)),
            ("alpha", "init", (0, -1.0, None)), ("alpha", "lr", (0.0, -0.01, nan)),
            ("alpha", "weight_decay", (-inf,)),
            ("dataset", "classes", (0, 1, 4, 3.0)), ("dataset", "samples", (0, 2, -5)),
            ("dataset", "dim", (0, 2, "3")), ("dataset", "spread", (0, -1.0, nan)),
            ("dataset", "seed", (-1, 1.5)), ("dataset", "center_scale", (-1.0,)),
            ("dataset", "center_offset", (inf,)), ("dataset", "eval_samples", (1, "12", 1.0)),
            ("scalars", "lambda", (-0.5, nan)), ("scalars", "p1_initial", (0, 1.5)),
            ("scalars", "epochs", (0, 1.0, "2")), ("scalars", "batch_size", (0, -1, 2.0)),
            ("scalars", "seed", (-1, None)), ("scalars", "bn_momentum", (0, 1.5, inf)),
            ("scalars", "bits", ([8, "4"], [8, 8], [1], [], 8, (8, 4))),
        ] for bad in values]
        attrs = {"lambda": "lam"}
        path = str(tmp_path / "checkpoint.ckpt")

        @settings(max_examples=100)
        @given(st.booleans(), st.fixed_dictionaries(
            {group: st.fixed_dictionaries({}, optional=keys) for group, keys in valid.items()}),
            st.none() | st.sampled_from(invalid))
        def check(in_code, drawn, bad):
            drawn = {group: dict(values) for group, values in drawn.items()}
            if bad is not None:  # at most one invalid value, so most examples train
                drawn[bad[0]][bad[1]] = bad[2]
            cfg = blob_config(mode="coquant", epochs=1, samples=24, classes=3, dim=3,
                              hidden=(4, 4), batch_size=12)
            try:
                if in_code:
                    config = RunConfig.from_dict(cfg)
                    for group in ("optimizer", "alpha", "dataset"):
                        for key, val in drawn[group].items():
                            setattr(getattr(config, group), key, val)
                    for key, val in drawn["scalars"].items():
                        setattr(config, attrs.get(key, key), val)
                else:
                    cfg.update(drawn["scalars"])
                    for group in ("optimizer", "alpha", "dataset"):
                        cfg.setdefault(group, {}).update(drawn[group])
                    config = RunConfig.from_dict(cfg)
                trainer = Trainer(config)
            except FlexquantError:
                return
            trainer.train_epoch()
            save_checkpoint(path, trainer)
            assert load_checkpoint(path).config.to_json() == trainer.config.to_json()

        for in_code in (False, True):  # every invalid value alone, in both forms
            for bad in invalid:
                check = example(in_code, {group: {} for group in valid}, bad)(check)
        check()

    def test_trainer_builds_the_arch_once(self, monkeypatch):
        cfg = RunConfig.from_dict(blob_config(epochs=1))
        build, calls = RunConfig.build_arch, []
        monkeypatch.setattr(RunConfig, "build_arch",
                            lambda self: calls.append(self) or build(self))
        Trainer(cfg)
        assert calls == [cfg]

    def test_top_level_scalars_are_cast_as_from_json(self):
        cfg = RunConfig.from_dict(blob_config(epochs=1))
        cfg.lam, cfg.p1_initial = 1, 1
        Trainer(cfg)
        assert (type(cfg.lam), type(cfg.p1_initial)) == (float, float)
        assert cfg.to_json() == RunConfig.from_json(cfg.to_json()).to_json()


class TestBankSharingByMode:
    def test_joint_shares_everything(self):
        t = make_trainer(mode="joint", epochs=1)
        assert t.bank.entry(8).bn is t.bank.entry(2).bn
        assert t.bank.entry(8).alpha is t.bank.entry(2).alpha

    def test_switchable_bn_shares_alpha_only(self):
        t = make_trainer(mode="switchable_bn", epochs=1)
        name = t.arch.quantized_names[0]
        assert t.bank.entry(8).alpha[name] is t.bank.entry(2).alpha[name]
        assert t.bank.entry(8).bn[t.arch.bn_names[0]] is not t.bank.entry(2).bn[t.arch.bn_names[0]]

    def test_adabits_shares_nothing(self):
        t = make_trainer(mode="adabits", epochs=1)
        name = t.arch.quantized_names[0]
        assert t.bank.entry(8).alpha[name] is not t.bank.entry(2).alpha[name]

    def test_adabits_clipping_values_train_apart(self):
        t = make_trainer(mode="adabits", epochs=2, **MOVING_ALPHA)
        t.run()
        alphas = [float(t.bank.entry(b).alpha["dense3"].data) for b in t.bits]
        assert len(set(alphas)) == len(alphas), alphas
        assert MOVING_ALPHA["alpha"]["init"] not in alphas


class TestProgressive:
    def test_descending_phase_order(self):
        t = make_trainer(mode="progressive_desc", bits=(8, 6, 4, 2), epochs=8)
        visited = [t._phase_bits(e)[0] for e in range(8)]
        assert visited == [8, 8, 6, 6, 4, 4, 2, 2]

    def test_ascending_phase_order(self):
        t = make_trainer(mode="progressive_asc", bits=(8, 6, 4, 2), epochs=8)
        visited = [t._phase_bits(e)[0] for e in range(8)]
        assert visited == [2, 2, 4, 4, 6, 6, 8, 8]

    def test_uneven_split_gives_extra_to_early_phases(self):
        t = make_trainer(mode="progressive_desc", bits=(8, 4, 2), epochs=7)
        visited = [t._phase_bits(e)[0] for e in range(7)]
        assert visited == [8, 8, 8, 4, 4, 2, 2]

    def test_single_bit_progressive_equals_individual(self):
        a = make_trainer(mode="progressive_desc", bits=(8,), epochs=2)
        b = make_trainer(mode="individual:8", bits=(8,), epochs=2)
        a.run()
        b.run()
        for name in a.net.weights:
            np.testing.assert_array_equal(a.net.weights[name].data,
                                          b.net.weights[name].data)

    def test_progressive_trains_and_reports_all_bits(self):
        t = make_trainer(mode="progressive_desc", bits=(8, 4), epochs=4)
        acc = t.run()
        assert set(acc) == {8, 4}


class TestDirectMode:
    def test_direct_run_populates_all_bits_from_source(self):
        t = make_trainer(mode="direct:8", epochs=2)
        acc = t.run()
        assert set(acc) == {8, 4, 2}
        src = t.bank.entry(8)
        for b in (4, 2):
            entry = t.bank.entry(b)
            for name, st in entry.bn.items():
                np.testing.assert_array_equal(st.running_mean,
                                              src.bn[name].running_mean)
            for name, a in entry.alpha.items():
                np.testing.assert_array_equal(a.data, src.alpha[name].data)

    def test_direct_then_calibrate_changes_stats_only(self):
        t = make_trainer(mode="direct:8", epochs=2)
        t.run()
        before_gamma = {n: st.gamma.data.copy()
                        for n, st in t.bank.entry(2).bn.items()}
        before_mean = {n: st.running_mean.copy()
                       for n, st in t.bank.entry(2).bn.items()}
        t.calibrate(2)
        changed = False
        for n, st in t.bank.entry(2).bn.items():
            np.testing.assert_array_equal(st.gamma.data, before_gamma[n])
            changed = changed or np.any(st.running_mean != before_mean[n])
        assert changed

    def test_direct_trains_only_source_bit(self):
        t = make_trainer(mode="direct:8", epochs=1)
        assert t._phase_bits(0) == [8]


class TestOtherDataKinds:
    def test_csv_table_round_trip(self, tmp_path):
        import numpy as np
        from flexquant.config import DatasetSpec
        from flexquant.training import load_dataset
        rows = np.hstack([np.random.default_rng(0).normal(size=(12, 3)),
                          np.arange(12).reshape(-1, 1) % 3])
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, delimiter=",")
        spec = DatasetSpec.from_dict({"kind": "csv_table", "path": str(path),
                                      "classes": 3})
        train, test = load_dataset(spec)
        assert len(train) == 12 and train.features.shape == (12, 3)
        np.testing.assert_array_equal(train.labels, np.arange(12) % 3)
        assert test is train  # no eval_path given

    @pytest.mark.parametrize("bad_label", [-1, 3])
    def test_csv_table_label_out_of_range_rejected(self, tmp_path, bad_label):
        from flexquant.config import DatasetSpec
        from flexquant.datasets import FormatError
        from flexquant.training import load_dataset
        rows = np.hstack([np.zeros((4, 2)), np.array([[0], [1], [bad_label], [2]])])
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, delimiter=",")
        spec = DatasetSpec.from_dict({"kind": "csv_table", "path": str(path),
                                      "classes": 3})
        with pytest.raises(FormatError, match=f"label {bad_label} at row 2 "):
            load_dataset(spec)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_table_non_finite_feature_rejected(self, tmp_path, bad):
        from flexquant.config import DatasetSpec
        from flexquant.datasets import FormatError
        from flexquant.training import load_dataset
        path = tmp_path / "data.csv"
        path.write_text(f"0,0,0\n0,0,1\n0,{bad},2\n0,0,0\n")
        spec = DatasetSpec.from_dict({"kind": "csv_table", "path": str(path),
                                      "classes": 3})
        with pytest.raises(FormatError, match="non-finite feature at row 2$"):
            load_dataset(spec)

    def test_cnn_config_trains_on_idx(self, tmp_path):
        from test_datasets import write_idx_images, write_idx_labels
        rng = np.random.default_rng(1)
        n = 24
        images = rng.integers(0, 256, size=(n, 8, 8)).astype(np.uint8)
        labels = (np.arange(n) % 3).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "labs", labels)
        cfg = RunConfig.from_dict({
            "schema_version": 1, "mode": "adabits", "bits": [8, 2],
            "dataset": {"kind": "idx_images", "train_images": str(tmp_path / "imgs"),
                        "train_labels": str(tmp_path / "labs"),
                        "mean": 0.5, "std": 0.5, "classes": 3},
            "arch": {"kind": "cnn", "in_channels": 1, "image_size": 8,
                     "classes": 3, "channels": [4, 4, 4]},
            "epochs": 1, "batch_size": 12, "seed": 0,
        })
        trainer = Trainer(cfg)
        acc = trainer.run()
        assert set(acc) == {8, 2}
        assert all(0.0 <= v <= 100.0 for v in acc.values())

    def test_progressive_asc_full_run(self):
        t = make_trainer(mode="progressive_asc", bits=(8, 4), epochs=2,
                         samples=300, batch_size=100)
        acc = t.run()
        assert set(acc) == {8, 4}


class TestCalibration:
    def test_weights_bitwise_unchanged(self):
        t = make_trainer(mode="coquant", epochs=2)
        t.run()
        before = {n: w.data.copy() for n, w in t.net.weights.items()}
        alphas_before = {b: {n: a.data.copy() for n, a in t.bank.entry(b).alpha.items()}
                         for b in t.bits}
        t.calibrate(3)
        for name in before:
            np.testing.assert_array_equal(t.net.weights[name].data, before[name])
        for b in t.bits:
            for n, a in t.bank.entry(b).alpha.items():
                np.testing.assert_array_equal(a.data, alphas_before[b][n])

    def test_fresh_block_after_calibration_serves_the_new_statistics(self):
        t = make_trainer(mode="coquant", epochs=1)
        t.run()
        x = t.eval_set.features
        with ag.no_grad():
            before = t.net.forward_at(x, 8, mode="eval").data
        t.calibrate(8)
        with ag.no_grad():
            after = t.net.forward_at(x, 8, mode="eval").data
        # outside any block the affine is recomputed from the bank as it is now
        np.testing.assert_array_equal(after, t.net.forward_at(x, 8, mode="eval").data)
        assert np.any(after != before)

    def test_creates_missing_entry(self):
        t = make_trainer(mode="coquant", epochs=1)
        t.run()
        assert not t.bank.has(3)
        t.calibrate(3)
        assert t.bank.has(3)
        assert 3 in t.calibrated_bits
        assert t.evaluate(3) > 0.0

    def test_self_consistency_on_trained_bit(self):
        t = make_trainer(mode="adabits", epochs=4, **MOVING_ALPHA)
        t.run()
        before = t.evaluate(8)
        t.calibrate(8, dataset=t.train_set)
        after = t.evaluate(8)
        assert abs(after - before) <= 0.5

    @staticmethod
    def lenders_of(t, b):
        """Clipping values a new entry for b took, after each trained entry's
        clipping values are set to its own bit-width."""
        for trained in t.bits:
            for a in t.bank.entry(trained).alpha.values():
                a.data = np.asarray(float(trained))
        return {float(a.data) for a in t.bank.ensure_entry(b).alpha.values()}

    def test_nearest_trained_bit_rounds_up(self):
        t = make_trainer(mode="coquant", epochs=1)
        assert self.lenders_of(t, 3) == {4.0}  # tie between 2 and 4
        assert self.lenders_of(t, 5) == {4.0}
        assert self.lenders_of(t, 6) == {8.0}  # tie between 4 and 8
        assert self.lenders_of(t, 7) == {8.0}

    def test_calibrated_entry_never_lends(self):
        t = make_trainer(mode="coquant", bits=(8, 2), epochs=1)
        t.calibrate(3)
        assert self.lenders_of(t, 5) == {8.0}  # tie between 2 and 8; 3 is closer

    def test_zero_shot_means_untrained_entry(self):
        t = make_trainer(mode="coquant", epochs=1)
        t.calibrate(8)  # recalibrating a trained bit-width leaves it trained
        assert t.calibrated_bits == set()
        t.bank.ensure_entry(3)  # borrowed, never calibrated
        assert t.calibrated_bits == {3}
        t.calibrate(5)
        assert t.calibrated_bits == {3, 5}

    def test_bit_above_b1_rejected_without_an_entry(self):
        t = make_trainer(mode="coquant", bits=(8, 2), epochs=1)
        for b in (16, 9, 1):
            with pytest.raises(BitWidthError, match=f"bit-width {b}"):
                t.calibrate(b)
            with pytest.raises(BitWidthError, match=f"bit-width {b}"):
                t.bank.ensure_entry(b)
        assert sorted(t.bank.entries) == [2, 8]
        assert t.calibrated_bits == set()

    def test_rejected_calibration_leaves_bank_unchanged(self):
        t = make_trainer(mode="adabits", epochs=1)
        t.net.weights["dense0"].data[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(numerics.NonFiniteError):
                t.calibrate(3)
        assert sorted(t.bank.entries) == [2, 4, 8]
        assert t.calibrated_bits == set()

    def test_empty_calibration_set_rejected(self):
        from flexquant.datasets import Dataset
        t = make_trainer(mode="coquant", epochs=1)
        empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), 4)
        with pytest.raises(TrainingError):
            t.calibrate(3, dataset=empty)


class TestEvaluate:
    def test_empty_evaluation_set_rejected(self):
        from flexquant.datasets import Dataset
        t = make_trainer(mode="coquant", epochs=1)
        empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), 4)
        with pytest.raises(TrainingError, match="evaluation needs a non-empty dataset"):
            t.evaluate(8, dataset=empty)

    def test_constant_logits_give_majority_class_frequency(self):
        t = make_trainer(mode="individual:8", bits=(8,), epochs=1)
        # zero the final BN gain and bias it toward class 1: constant logits
        last_bn = t.arch.bn_names[-1]
        st = t.bank.entry(8).bn[last_bn]
        st.gamma.data = np.zeros_like(st.gamma.data)
        st.beta.data = np.array([0.0, 5.0, 0.0, 0.0])
        acc = t.evaluate(8)
        freq = 100.0 * np.mean(t.eval_set.labels == 1)
        assert acc == pytest.approx(freq, abs=1e-9)

    def test_memorizable_toy_reaches_hundred(self):
        t = make_trainer(mode="individual:8", bits=(8,), epochs=6, spread=0.05,
                         samples=400)
        acc = t.run()
        assert acc[8] == 100.0

    def test_accuracy_invariant_to_eval_batch_size(self):
        t = make_trainer(mode="coquant", epochs=2)
        t.run()
        a = t.evaluate(4, batch_size=1000)
        b = t.evaluate(4, batch_size=17)
        assert a == b

    def test_batches_at_the_run_batch_size_unless_told(self, monkeypatch):
        t = make_trainer(mode="coquant", epochs=1, samples=250, batch_size=100)
        seen = []
        real = t.net.forward_at
        monkeypatch.setattr(t.net, "forward_at", lambda x, *a, **k: (
            seen.append(len(x)), real(x, *a, **k))[1])
        t.evaluate(4, dataset=t.train_set)
        assert seen == [100, 100, 50]
        del seen[:]
        t.evaluate(4, dataset=t.train_set, batch_size=120)
        assert seen == [120, 120, 10]

    @pytest.mark.parametrize("size", [-5, 0, 2.5])
    def test_a_batch_size_that_is_no_positive_integer_is_rejected(self, size):
        t = make_trainer(mode="coquant", epochs=1)
        with pytest.raises(ContractError, match="batch size must be a positive integer"):
            t.evaluate(8, batch_size=size)


class TestPreferenceShiftHistogram:
    def test_synthetic_entropy_swap_shifts_counts(self):
        # epoch 0: the 8-bit candidate is sharper; epoch 1: the 4-bit one is.
        log = MetricsLog("{}")
        sharp = np.array([[0.97, 0.01, 0.01, 0.01]])
        soft = np.array([[0.4, 0.3, 0.2, 0.1]])
        for epoch, (p8, p4) in enumerate([(sharp, soft), (soft, sharp)]):
            for batch in range(5):
                choice = select_teacher(2, {8: p8, 4: p4}, lam=0.0,
                                        distance_fn=lambda t, s: 0.0)
                log.add_batch(BatchRecord(
                    epoch=epoch, batch=batch, mode="coquant", b=2, loss=0.0,
                    ce=0.0, kl=0.0, teacher_b=choice.teacher_b,
                    entropy_term=choice.entropy_term,
                    distance_term=choice.distance_term))
        assert log.histogram_rows() == [(0, 2, 8, 5), (1, 2, 4, 5)]

    def test_counts_sorted_by_epoch_student_teacher(self):
        choices = [(1, 2, 8), (0, 4, 8), (0, 2, 8), (0, 2, 4), (0, 2, 8)]
        assert teacher_histogram(choices) == [(0, 2, 4, 1), (0, 2, 8, 2), (0, 4, 8, 1),
                                              (1, 2, 8, 1)]
