"""The benchmark's span tracer still reaches every call it must time.

perfbench/tracing.py wraps library functions at the bindings their callers
resolve. If the library stops resolving one (a call moved, a name was
renamed), the traced benchmark run fails its REQUIRED_SPANS check; these
tests make tier-1 fail the same way, on a one-epoch run of each training
workload and on serving a bundle exported from one. They only read
perfbench/.
"""

import importlib.util
import json
import os
import sys

import pytest

from flexquant.autograd import no_grad
from flexquant.bundle import export_bundle
from flexquant.config import RunConfig
from flexquant.training import Trainer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name: str):
    """perfbench/<name>.py, imported under a name no test module uses."""
    qualified = f"perfbench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualified, os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def _one_epoch(config: RunConfig, **arch) -> RunConfig:
    d = json.loads(config.to_json())
    d["epochs"] = 1
    d["arch"].update(arch)
    return RunConfig.from_dict(d)


@pytest.mark.parametrize("name", ["desk_coquant", "cnn_coquant"])
def test_traced_unit_records_every_required_span(name, tmp_path):
    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    if name == "desk_coquant":
        config = _one_epoch(workloads.desk_config(0))
    else:
        data_dir = str(tmp_path / "images")
        workloads.write_cnn_images(0, data_dir)
        config = _one_epoch(workloads.cnn_config(0, data_dir), channels=[4, 4, 8])
    (tmp_path / "cache").mkdir()
    workload = workloads.TrainingWorkload(name, config, str(tmp_path / "run"),
                                          str(tmp_path / "cache"), 0, None)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        try:
            result = workload.unit(0, fresh_setup=True)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    assert result.problems == []
    calls = {span: n for span, (_total, _self, n) in tracer.totals().items()}
    missing = [span for span in workloads.REQUIRED_SPANS[name] if not calls.get(span)]
    assert missing == [], f"the tracer recorded no calls for {missing}"


def test_traced_serve_records_every_required_span(tmp_path):
    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    trainer = Trainer(_one_epoch(workloads.desk_config(0)))
    trainer.run()
    path = str(tmp_path / "model.aqdb")
    export_bundle(path, trainer.net)
    xb = workloads.serve_split(0).features[:workloads.SERVE_BATCH]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module attributes the tracer wraps, as ServeWorkload calls them
        net = workloads.bundle.load_bundle(path).build_network()
        with no_grad():
            for b in workloads.BITS:
                net.forward_at(xb, b, mode="eval")
    finally:
        tracer.uninstall()
    calls = {span: n for span, (_total, _self, n) in tracer.totals().items()}
    missing = [span for span in workloads.REQUIRED_SPANS["bundle_serve"] if not calls.get(span)]
    assert missing == [], f"the tracer recorded no calls for {missing}"
