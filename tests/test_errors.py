"""Every error the library raises is a FlexquantError that keeps its builtin
base, as README's "Errors" section promises: a guard over every raise in
src/flexquant, and one misuse of each public entry that once raised a bare
builtin."""

import ast
import builtins
import importlib
import os
from dataclasses import dataclass

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant import serialize
from flexquant.autograd import Tensor
from flexquant.config import DatasetSpec
from flexquant.datasets import gen_synthetic_blobs, load_dataset
from flexquant.network import ArchSpec, BitWidthSet, Dense, PrecisionBank, QuantNet, mlp
from flexquant.numerics import FlexquantError
from flexquant.optim import SGD, ParamGroup
from flexquant.quantizers import quantize_levels
from flexquant.rng import RngStreams
from flexquant.serialize import ByteReader
from flexquant.training import delta_b, sample_swap_mask

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "flexquant")


def _resolve(expr, namespace):
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, namespace), expr.attr)
    return namespace[expr.id] if expr.id in namespace else getattr(builtins, expr.id)


def test_every_raise_names_a_library_error():
    """Each `raise X(...)` (or `raise X`) in the package names a class that
    derives from FlexquantError, and each `raise r.fail(...)` raises what
    ByteReader.fail returns; a bare `raise` re-raises and is not checked."""
    fail_returns = getattr(serialize, ByteReader.fail.__annotations__["return"])
    bare = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        namespace = vars(importlib.import_module(f"flexquant.{name[:-3]}"))
        with open(os.path.join(PACKAGE, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Attribute) and exc.attr == "fail":
                    cls = fail_returns
                else:
                    cls = _resolve(exc, namespace)
                if not (isinstance(cls, type) and issubclass(cls, FlexquantError)):
                    bare.append(f"{name}:{node.lineno} {ast.unparse(exc)}")
    assert bare == []


@dataclass(frozen=True)
class _Dropout:
    kind: str = "dropout"


def _net(**kwargs):
    return QuantNet(PrecisionBank(BitWidthSet([8, 4, 2]), mlp(4, [8, 8], 3)), **kwargs)


_X = np.zeros((2, 4))
_W = Tensor(np.ones(3), requires_grad=True)

MISUSES = {
    "sample_swap_mask p1": lambda: sample_swap_mask(2, 0.0, np.random.default_rng(0)),
    "delta_b coverage": lambda: delta_b({8: 1.0}, {4: 1.0}),
    "forward_at mode": lambda: _net(rng=np.random.default_rng(0)).forward_at(_X, 8, mode="bogus"),
    "QuantNet without rng": lambda: _net(rng=None),
    "model_distance without rng": lambda: _net(rng=None).model_distance(8, 4),
    "weight_at without rng": lambda: _net(rng=None).weight_at("dense3", 4),
    "codes without rng": lambda: _net(rng=None).codes("dense3"),
    "batchnorm mode": lambda: ag.batchnorm(Tensor(_X), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                                           np.zeros(4), np.ones(4), 0.1, "bogus"),
    "gen_synthetic_blobs split": lambda: gen_synthetic_blobs(2, 4, 2, 1.0, 0, split="test"),
    "load_dataset kind": lambda: load_dataset(DatasetSpec(kind="bogus")),
    "weight_shape of a bn layer": lambda: mlp(4, [8], 3).weight_shape("bn1"),
    "weight_shape of an unknown layer": lambda: mlp(4, [8], 3).weight_shape("nope"),
    "ArchSpec layer kind": lambda: ArchSpec([Dense(4, 3), _Dropout()]),
    "ParamGroup lr": lambda: ParamGroup({}, lr=0.0),
    "ParamGroup momentum": lambda: ParamGroup({}, lr=0.1, momentum=1.0),
    "SGD duplicate name": lambda: SGD([ParamGroup({"w": _W}, lr=0.1),
                                       ParamGroup({"w": _W}, lr=0.1)]),
    "quantize_levels range": lambda: quantize_levels(np.array([1.5]), 4),
    "RngStreams.set_state": lambda: RngStreams(0).set_state({}),
    "RngStreams unknown stream": lambda: RngStreams(0)["nope"],
}


@pytest.mark.parametrize("case", sorted(MISUSES))
def test_misuse_raises_a_library_error(case):
    with pytest.raises(FlexquantError) as info:
        MISUSES[case]()
    assert isinstance(info.value, ValueError)
