"""Span tracing around flexquant's public calls, installed from outside the package.

Each wrapper replaces a function at the binding its caller resolves at call
time (a module attribute or a class attribute), records one span per call
(name, start, end, parent span, unit) and restores the original binding on
`uninstall`. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict

import flexquant.autograd as ag
import flexquant.bundle as bundle
import flexquant.checkpoint as checkpoint
import flexquant.metrics as fqmetrics
import flexquant.network as network
import flexquant.numerics as numerics
import flexquant.optim as optim
import flexquant.quantizers as quantizers
import flexquant.training as training

# Guard counters named in flexquant.numerics; reported as per-unit deltas.
NUMERIC_EVENTS = ("log_clamp", "ce_clamp", "kl_clamp", "entropy_clamp",
                  "alpha_floor", "zero_weight_tensor", "alpha_nonpositive")

AUTOGRAD_OPS = ("matmul", "conv2d", "batchnorm", "relu", "maxpool2d",
                "softmax", "cross_entropy", "kl_div")

LAYERS = ("autograd", "quantizers", "network", "training", "optim", "metrics",
          "checkpoint", "bundle", "datasets", "numerics")


def _forward_at_name(args, kwargs) -> str:
    # QuantNet.forward_at(self, x, b, mask=None, teacher_b=None, mode="train", ...)
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "train")
    if mode == "train":
        b = kwargs.get("b", args[2] if len(args) > 2 else None)
        return f"network.forward_at.train.b{int(b)}"
    return f"network.forward_at.{mode}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name_id, start_ns, end_ns, parent_row, unit]
        self.rows: list[list[int]] = []
        self.stack: list[int] = []
        self.unit = 0
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._events_before: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str | None = None, namer=None,
             before=None, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `namer(args, kwargs)` names the span per call; `before(args)` and
        `after(result)` update counters around it.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rows, stack, clock = self.rows, self.stack, time.perf_counter_ns
        fixed_id = None if name is None else self._name_id(name)
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            nid = fixed_id if namer is None else name_id(namer(args, kwargs))
            if before is not None:
                before(args)
            row = [nid, clock(), 0, stack[-1] if stack else -1, self.unit]
            stack.append(len(rows))
            rows.append(row)
            try:
                result = orig(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        c = self.counters

        def count_tape(args):
            c["backward_calls"] += 1
            c["tape_nodes"] += len(args[0])

        def count_mask(mask):
            c["swap_masks"] += 1
            c["swap_any_teacher"] += int(mask.any_teacher())

        for op in AUTOGRAD_OPS:
            self.wrap(ag, op, f"autograd.{op}")
        # Tape.backward resolves the module-level backward at call time.
        self.wrap(ag, "backward", "autograd.backward", before=count_tape)

        # network imports the quantizers by name; weight_forward calls the
        # coder through the quantizers module, as does the node path.
        self.wrap(network, "quantize_activation", "quantizers.quantize_activation")
        self.wrap(network, "quantize_weights_at", "quantizers.quantize_weights_at")
        self.wrap(network, "weight_forward", "quantizers.weight_forward")
        self.wrap(quantizers, "weight_forward", "quantizers.weight_forward")
        self.wrap(quantizers, "quantize_weights_dorefa", "quantizers.quantize_weights_dorefa")

        self.wrap(network.QuantNet, "forward_at", namer=_forward_at_name)
        self.wrap(network.QuantNet, "model_distance", "network.model_distance")

        self.wrap(training.Trainer, "train_step", "training.train_step")
        self.wrap(training.Trainer, "evaluate", "training.evaluate")
        self.wrap(training, "loss_for_bit", "training.loss_for_bit")
        self.wrap(training, "select_teacher", "training.select_teacher")
        self.wrap(training, "sample_swap_mask", "training.sample_swap_mask", after=count_mask)
        self.wrap(training, "load_dataset", "datasets.load")

        self.wrap(optim.SGD, "step", "optim.step")
        self.wrap(optim.SGD, "zero_grad", "optim.zero_grad")

        self.wrap(fqmetrics.MetricsLog, "add_batch", "metrics.add_batch")
        self.wrap(fqmetrics.MetricsLog, "end_epoch", "metrics.end_epoch")
        self.wrap(fqmetrics.MetricsLog, "metrics_csv_text", "metrics.csv_text")
        self.wrap(fqmetrics.MetricsLog, "histogram_csv_text", "metrics.histogram_csv_text")

        self.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
        self.wrap(bundle, "load_bundle", "bundle.load")
        self.wrap(bundle.DeploymentBundle, "build_network", "bundle.build_network")

        self.wrap(numerics, "check_finite", "numerics.check_finite")
        self._events_before = numerics.event_counts()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """(total ns, self ns, calls) per span name."""
        rows = self.rows
        child = [0] * len(rows)
        for _nid, start, end, parent, _unit in rows:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (nid, start, end, _parent, _unit) in enumerate(rows):
            t = out[self.names[nid]]
            t[0] += end - start
            t[1] += end - start - child[i]
            t[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def summary(self, units: int) -> dict[str, float]:
        """Per-layer metrics, each per traced unit (see README.md)."""
        by_name = self.totals()

        def s(name):
            return by_name.get(name, (0, 0, 0))[0] / 1e9 / units

        def self_s(name):
            return by_name.get(name, (0, 0, 0))[1] / 1e9 / units

        def count(name):
            return by_name.get(name, (0, 0, 0))[2] / units

        out: dict[str, float] = {}
        for op in AUTOGRAD_OPS:
            out[f"autograd.{op}.s"] = s(f"autograd.{op}")
            out[f"autograd.{op}.calls"] = count(f"autograd.{op}")
        out["autograd.backward.s"] = s("autograd.backward")
        out["autograd.backward.calls"] = count("autograd.backward")
        c = self.counters
        out["autograd.tape_nodes"] = (c["tape_nodes"] / c["backward_calls"]
                                      if c["backward_calls"] else 0.0)
        for q in ("quantize_weights_dorefa", "quantize_activation",
                  "quantize_weights_at", "weight_forward"):
            out[f"quantizers.{q}.s"] = s(f"quantizers.{q}")
            out[f"quantizers.{q}.calls"] = count(f"quantizers.{q}")
        # every coding in the run, per training step: a step's own codings
        # plus those of the per-epoch eval after the step's update
        steps = count("training.train_step")
        out["quantizers.dorefa_calls_per_step"] = (
            count("quantizers.quantize_weights_dorefa") / steps if steps else 0.0)
        for b in (8, 4, 2):
            out[f"network.forward_at.train.b{b}.s"] = s(f"network.forward_at.train.b{b}")
        out["network.forward_at.eval.s"] = s("network.forward_at.eval")
        out["network.forward_at.eval.calls"] = count("network.forward_at.eval")
        out["network.model_distance.s"] = s("network.model_distance")
        out["network.model_distance.calls"] = count("network.model_distance")
        out["training.train_step.s"] = s("training.train_step")
        out["training.train_step.self_s"] = self_s("training.train_step")
        out["training.train_step.calls"] = count("training.train_step")
        out["training.loss_for_bit.s"] = s("training.loss_for_bit")
        out["training.select_teacher.s"] = s("training.select_teacher")
        out["training.select_teacher.calls"] = count("training.select_teacher")
        out["training.sample_swap_mask.calls"] = count("training.sample_swap_mask")
        out["training.swap_any_teacher_frac"] = (c["swap_any_teacher"] / c["swap_masks"]
                                                 if c["swap_masks"] else 0.0)
        out["training.evaluate.s"] = s("training.evaluate")
        out["training.evaluate.calls"] = count("training.evaluate")
        out["optim.step.s"] = s("optim.step")
        out["optim.zero_grad.s"] = s("optim.zero_grad")
        out["metrics.add_batch.s"] = s("metrics.add_batch")
        out["metrics.end_epoch.s"] = s("metrics.end_epoch")
        out["metrics.csv_text.s"] = s("metrics.csv_text")
        out["metrics.histogram_csv_text.s"] = s("metrics.histogram_csv_text")
        out["checkpoint.save.s"] = s("checkpoint.save")
        out["bundle.load.s"] = s("bundle.load")
        out["bundle.build_network.s"] = s("bundle.build_network")
        out["datasets.load.s"] = s("datasets.load")
        out["numerics.check_finite.s"] = s("numerics.check_finite")
        out["numerics.check_finite.calls"] = count("numerics.check_finite")
        after = numerics.event_counts()
        for ev in NUMERIC_EVENTS:
            out[f"numerics.events.{ev}"] = (
                after.get(ev, 0) - self._events_before.get(ev, 0)) / units
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v[1] for k, v in by_name.items() if k.startswith(layer + ".")) / 1e9 / units
        return out

    def write(self, path: str) -> None:
        """Write every span as gzip CSV: span,name,start_ns,end_ns,parent,unit."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", compresslevel=1, newline="") as f:
            f.write("span,name,start_ns,end_ns,parent,unit\n")
            names = self.names
            for i, (nid, start, end, parent, unit) in enumerate(self.rows):
                f.write(f"{i},{names[nid]},{start},{end},{parent},{unit}\n")
        os.replace(tmp, path)
