"""Collaborative training with dynamic teacher selection and block swapping,
plus every baseline mode, batch-norm calibration, and evaluation.

One training step runs every bit-width on the same batch with shared
weights. The highest precision always executes all-student and takes only
the task loss. Each lower precision picks the higher precision whose batch
entropy plus weighted weight-space distance is smallest, samples a swap
mask, executes with the chosen teacher's blocks swapped in where the mask
says so, and adds a distillation term toward the teacher's soft logits,
which take no gradient. All losses sum into one backward and one shared update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import numerics
from .autograd import Tape, Tensor, no_grad
from .config import ConfigError, RunConfig
from .datasets import Dataset, load_dataset
from .metrics import BatchRecord, MetricsLog
from .network import ArchSpec, ContractError, PrecisionBank, QuantNet, StatsCollector, SwapMask
from .optim import SGD, ParamGroup, step_decay_factor
from .rng import RngStreams


class TrainingError(numerics.FlexquantError, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# selection, swapping, losses
# ---------------------------------------------------------------------------

def entropy(probs: np.ndarray) -> float:
    """Mean over the batch of -sum_i p_i ln p_i. Zero entries contribute zero."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    terms = np.where(p > 0.0, p * numerics.clamped_log(p, "entropy_clamp"), 0.0)
    return float(-np.sum(terms) / p.shape[0])


@dataclass
class TeacherChoice:
    student_b: int
    teacher_b: int
    entropy_term: float
    distance_term: float
    lam: float

    @property
    def score(self) -> float:
        return self.entropy_term + self.lam * self.distance_term


def select_teacher(student_b: int, teacher_probs: dict[int, np.ndarray], lam: float,
                   distance_fn) -> TeacherChoice:
    """Pick the candidate minimizing entropy + lam * model distance.

    Candidates are the probabilities already computed this batch for every
    higher precision. Ties go to the higher bit-width.
    """
    if not teacher_probs:
        raise ContractError(f"bit-width {student_b} has no higher-precision teacher")
    best: TeacherChoice | None = None
    for t in sorted(teacher_probs, reverse=True):
        if t <= student_b:
            raise ContractError(f"teacher candidate {t} is not above student {student_b}")
        cand = TeacherChoice(student_b, t, entropy(teacher_probs[t]),
                             float(distance_fn(t, student_b)), lam)
        if best is None or cand.score < best.score:
            best = cand
    return best


def p1_at(epoch: int, p1_initial: float, epochs: int) -> float:
    """Linear curriculum on the base swap probability, hitting 1 at the last epoch."""
    if epochs <= 1 or epoch >= epochs - 1:
        return 1.0
    t = epoch / (epochs - 1)
    return min(1.0, p1_initial + (1.0 - p1_initial) * t)


def layer_probs(num_blocks: int, p1: float) -> np.ndarray:
    """Per-block student probabilities: p_l = min(1, (1 + l/L) p1), l = 1..L."""
    l = np.arange(1, num_blocks + 1, dtype=np.float64)
    return np.minimum(1.0, (1.0 + l / num_blocks) * p1)


def sample_swap_mask(num_blocks: int, p1: float, rng: np.random.Generator) -> SwapMask:
    if not 0.0 < p1 <= 1.0:
        raise ContractError(f"p1 must be in (0, 1], got {p1}")
    probs = layer_probs(num_blocks, p1)
    return SwapMask(rng.random(num_blocks) < probs)


@dataclass
class LossParts:
    loss: Tensor
    probs: Tensor
    ce: float
    kl: float


def loss_for_bit(b: int, logits: Tensor, labels: np.ndarray,
                 teacher_probs: Tensor | None = None) -> LossParts:
    """Task loss plus, for lower precisions, distillation against the teacher.

    The teacher distribution is kl_div's target, which takes no gradient:
    the distillation term moves only the student-side execution.
    """
    probs = ag.softmax(logits)
    ce = ag.cross_entropy(probs, labels)
    if teacher_probs is None:
        return LossParts(ce, probs, float(ce.data), 0.0)
    kl = ag.kl_div(teacher_probs, probs)
    return LossParts(ag.add(ce, kl), probs, float(ce.data), float(kl.data))


def delta_b(accuracies: dict[int, float], reference: dict[int, float]) -> float:
    """Mean over bit-widths of accuracy relative to the reference, in percent."""
    if set(accuracies) != set(reference):
        raise ContractError(f"bit coverage differs: {sorted(accuracies)} vs {sorted(reference)}")
    if any(v <= 0 for v in reference.values()):
        raise ContractError("reference accuracies must be positive")
    ratios = [accuracies[b] / reference[b] for b in accuracies]
    return 100.0 * sum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# the trainer
# ---------------------------------------------------------------------------

def _check_inputs(arch: ArchSpec, data: Dataset, image_size: int | None) -> None:
    """ConfigError unless the first learnable layer's input width (and a cnn
    config's image_size) fits data's samples, unless a flatten comes before
    it: a mismatch fails mid-pass otherwise, with an op's shape error."""
    first = arch.learnable_names[0]
    spec = arch.by_name[first]
    if any(s.kind == "flatten" for s in arch.layers[:arch.names.index(first)]):
        return
    width = spec.in_features if spec.kind == "dense" else spec.in_channels
    if data.features.shape[1] != width:
        raise ConfigError(f"arch: {first} takes inputs of width {width}, but the "
                          f"dataset's samples have width {data.features.shape[1]}")
    if image_size is not None and data.features.shape[2:] != (image_size,) * 2:
        raise ConfigError(f"arch: image_size is {image_size}, but the dataset's "
                          f"samples have shape {data.features.shape[1:]}")


def _check_head(arch: ArchSpec, data: Dataset) -> None:
    """ConfigError unless a dense head's width is data's class count: a
    mismatch trains or scores silently otherwise."""
    last = arch.learnable_names[-1]
    spec = arch.by_name[last]
    if spec.kind == "dense" and spec.out_features != data.classes:
        raise ConfigError(f"arch: {last} outputs {spec.out_features} logits, but the "
                          f"dataset has {data.classes} classes")


class Trainer:
    """Owns the network, banks, optimizer, RNG streams, and metrics for one run."""

    def __init__(self, config: RunConfig):
        self.bits, self.arch = config.validate()
        self.config = config
        self.train_set, self.eval_set = load_dataset(config.dataset)
        for data in (self.train_set, self.eval_set):
            _check_inputs(self.arch, data, config.arch.get("image_size"))
        _check_head(self.arch, self.train_set)
        self.streams = RngStreams(config.seed)

        kind = config.mode_kind
        self.bank = PrecisionBank(self.bits, self.arch, alpha_init=config.alpha.init,
                                  bn_momentum=config.bn_momentum, share_bn=kind == "joint",
                                  share_alpha=kind in ("joint", "switchable_bn"))
        self.net = QuantNet(self.bank, rng=self.streams["init"])

        bn_params, alpha_params = self.bank.named_parameters()
        main = dict(self.net.named_weights())
        main.update(bn_params)
        opt = config.optimizer
        self.optimizer = SGD([
            ParamGroup(main, lr=opt.lr, momentum=opt.momentum,
                       weight_decay=opt.weight_decay),
            ParamGroup(alpha_params, lr=config.alpha.lr, momentum=opt.momentum,
                       weight_decay=config.alpha.weight_decay,
                       min_value=numerics.ALPHA_FLOOR),
        ])
        self.log = MetricsLog(config.to_json())
        self.epoch = 0

    @property
    def calibrated_bits(self) -> set[int]:
        """Zero-shot bit-widths: those with a bank entry that were not trained."""
        return set(self.bank.entries).difference(self.bank.bits)

    # -- per-mode bit lists ---------------------------------------------------

    def _phase_bits(self, epoch: int) -> list[int]:
        """Bit-widths whose losses are optimized at this epoch."""
        kind = self.config.mode_kind
        if kind == "direct":
            return [self.config.mode_bit]
        if kind in ("progressive_desc", "progressive_asc"):
            order = list(self.bits) if kind == "progressive_desc" else list(self.bits)[::-1]
            phases = np.array_split(np.arange(self.config.epochs), len(order))
            return [next((b for b, phase in zip(order, phases) if epoch in phase), order[-1])]
        return list(self.bits)

    # -- training -------------------------------------------------------------

    def train_step(self, xb: np.ndarray, yb: np.ndarray, epoch: int,
                   batch_index: int) -> list[BatchRecord]:
        """One batch: forward every active precision, one backward, one update."""
        cfg = self.config
        coquant = cfg.mode_kind == "coquant"
        active = self._phase_bits(epoch)
        records: list[BatchRecord] = []
        p1 = p1_at(epoch, cfg.p1_initial, cfg.epochs)
        with Tape() as tape:
            probs_by_bit: dict[int, Tensor] = {}
            total: Tensor | None = None
            for b in active:
                choice = None
                swap_fraction = 1.0
                if coquant and b != self.bits.b1:
                    candidates = {t: probs_by_bit[t].data for t in self.bits.teachers_of(b)}
                    choice = select_teacher(b, candidates, cfg.lam, self.net.model_distance)
                    mask = sample_swap_mask(self.arch.num_blocks, p1, self.streams["swap"])
                    swap_fraction = mask.student_fraction
                    logits = self.net.forward_at(xb, b, mask=mask, teacher_b=choice.teacher_b,
                                                 mode="train")
                    parts = loss_for_bit(b, logits, yb, probs_by_bit[choice.teacher_b])
                else:
                    logits = self.net.forward_at(xb, b, mode="train")
                    parts = loss_for_bit(b, logits, yb, None)
                probs_by_bit[b] = parts.probs
                total = parts.loss if total is None else ag.add(total, parts.loss)
                records.append(BatchRecord(
                    epoch=epoch, batch=batch_index, mode=cfg.mode, b=b,
                    loss=float(parts.loss.data), ce=parts.ce, kl=parts.kl,
                    teacher_b=choice.teacher_b if choice else None,
                    entropy_term=choice.entropy_term if choice else None,
                    distance_term=choice.distance_term if choice else None,
                    swap_student_fraction=swap_fraction,
                ))
        if not np.isfinite(total.data):
            first = next((node.name for node in tape.nodes
                          if not np.isfinite(node.output.data).all()), "loss")
            raise TrainingError(
                f"non-finite loss at epoch {epoch} batch {batch_index}: {total.data}; "
                f"first non-finite op output: {first}"
            )
        tape.backward(total)
        self.optimizer.step()
        self.optimizer.zero_grad()
        return records

    def train_epoch(self) -> None:
        epoch = self.epoch
        cfg = self.config
        if cfg.optimizer.schedule == "step":
            self.optimizer.set_lr_factor(step_decay_factor(epoch, cfg.epochs))
        order = self.streams["shuffle"].permutation(len(self.train_set))
        for batch_index, (xb, yb) in enumerate(self.train_set.batches(cfg.batch_size, order)):
            for rec in self.train_step(xb, yb, epoch, batch_index):
                self.log.add_batch(rec)
        eval_bits = self._phase_bits(epoch) if cfg.mode_kind == "direct" else self.bits
        self.log.end_epoch(epoch, {b: self.evaluate(b) for b in eval_bits})
        self.epoch += 1

    def run(self) -> dict[int, float]:
        """Train to the configured epoch budget; returns final per-b accuracy."""
        while self.epoch < self.config.epochs:
            self.train_epoch()
        if self.config.mode_kind == "direct":
            # direct quantization reuses the source bank wholesale (statistics
            # included) at every other bit-width; calibration can fix them later
            src = self.bank.entry(self.config.mode_bit)
            for b in self.bits:
                if b != self.config.mode_bit:
                    self.bank.entry(b).copy_values(src, statistics=True)
        return {b: self.evaluate(b) for b in self.bits}

    # -- evaluation / calibration ----------------------------------------------

    def evaluate(self, b: int, dataset: Dataset | None = None,
                 batch_size: int | None = None) -> float:
        """Eval-mode top-1 accuracy in percent at bit-width b; batches default
        to the run's size. A dataset given is checked against both ends of the net."""
        data = dataset if dataset is not None else self.eval_set
        if dataset is not None:
            _check_inputs(self.arch, dataset, self.config.arch.get("image_size"))
            _check_head(self.arch, dataset)
        size = self.config.batch_size if batch_size is None else batch_size
        if len(data) == 0:
            raise TrainingError("evaluation needs a non-empty dataset")
        correct = 0
        with no_grad():
            for xb, yb in data.batches(size):
                logits = self.net.forward_at(xb, int(b), mode="eval")
                pred = np.argmax(logits.data, axis=1)
                correct += int(np.sum(pred == yb))
        return 100.0 * correct / len(data)

    def calibrate(self, b: int, dataset: Dataset | None = None) -> None:
        """Zero-shot calibration: repopulate BN statistics for bit-width b.

        Weights and clipping values stay frozen; a missing bank entry is
        created by borrowing the nearest trained bit-width's parameters, and
        removed again if the calibration fails. A dataset given is checked
        against the net's input end (calibration reads no labels).
        """
        data = dataset if dataset is not None else self.train_set
        if dataset is not None:
            _check_inputs(self.arch, dataset, self.config.arch.get("image_size"))
        if len(data) == 0:
            raise TrainingError("calibration needs a non-empty dataset")
        b = int(b)
        borrowed = not self.bank.has(b)
        entry = self.bank.ensure_entry(b)  # rejects b outside [2, b1] before any write
        try:
            collector = StatsCollector()
            with no_grad():
                for xb, _ in data.batches(self.config.batch_size):
                    self.net.forward_at(xb, b, mode="train", collector=collector)
            stats = collector.finalize()
            for name, (mean, var) in stats.items():  # check all before writing any
                numerics.check_finite(mean, f"calibrate b={b} {name} running_mean")
                numerics.check_finite(var, f"calibrate b={b} {name} running_var")
        except BaseException:
            if borrowed:
                del self.bank.entries[b]
            raise
        for name, (mean, var) in stats.items():
            entry.bn[name].running_mean, entry.bn[name].running_var = mean, var
