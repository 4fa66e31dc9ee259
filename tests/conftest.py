"""Shared test helpers: finite-difference oracle and config builders."""

import os

# One BLAS thread, set before numpy loads: the suite's matrices are small, and
# default threading about doubles its CPU time for no wall-clock gain.
# tests/test_cli.py sets its subprocesses' thread counts itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from flexquant import autograd  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # the properties skip themselves without hypothesis
    pass
else:
    # Every property runs the same examples on every run, has no time limit
    # per example, and writes no example database; each sets max_examples.
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_leaked_blocks():
    """A test that leaves a Tape or no_grad block on the stack fails at the
    leak, rather than changing memo lifetimes for the tests after it."""
    assert autograd._blocks.stack == [], "a block was left open before this test"
    yield
    assert autograd._blocks.stack == [], "this test left a Tape or no_grad block open"


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. array x.

    f must read x by reference (the array is mutated in place and restored).
    """
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        f_plus = f()
        flat_x[i] = orig - eps
        f_minus = f()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def blob_config(mode="coquant", bits=(8, 4, 2), epochs=4, seed=0, samples=600,
                classes=4, dim=8, spread=1.0, hidden=(32, 32), batch_size=100,
                data_seed=7, **overrides):
    """A small runnable config dict for trainer-level tests."""
    cfg = {
        "schema_version": 1,
        "mode": mode,
        "bits": list(bits),
        "dataset": {
            "kind": "synthetic_blobs",
            "classes": classes,
            "samples": samples,
            "dim": dim,
            "spread": spread,
            "seed": data_seed,
        },
        "arch": {"kind": "mlp", "input_dim": dim, "hidden": list(hidden), "classes": classes},
        "epochs": epochs,
        "batch_size": batch_size,
        "seed": seed,
    }
    cfg.update(overrides)
    return cfg
