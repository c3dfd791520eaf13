"""The benchmark's tracer (`perfbench/tracing.py`) looks its functions up by
name and reads their arguments and results to count work; each name must
still exist and each work count must still run, or `run.py --trace 1` breaks."""

import importlib
import importlib.util
import os

import pytest

from choralegen import metrics, model_io, network, optim, pianoroll, runner, smf
from conftest import chorale_piece

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("qualname", sorted(load_tracing().WORK))
def test_traced_name_resolves(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"choralegen.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{qualname} is gone"


def test_tracer_counts_work_of_a_small_pass():
    # Called through the modules, as the benchmark does, so that the
    # installed wrappers are the functions that run.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    roll = chorale_piece(0, length=12)
    tracer.install()
    try:
        params = network.init_params(network.NetworkConfig(num_blocks=4))
        params, _ = runner.train([roll], params, optim.RPropConfig(),
                                 runner.TrainConfig(max_epochs=1))
        generated = runner.generate(params, roll.frames[:2],
                                    runner.GenerationConfig(num_steps=3))
        metrics.evaluate(params, [roll])
        spec = pianoroll.QuantizationSpec(ticks_per_step=240)
        events, _ = smf.parse_midi(pianoroll.render_midi(generated, spec))
        pianoroll.quantize(events, spec)
        model_io.serialize_model(params)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    metrics_by_name = tracing.layer_metrics(totals, (88, 4, 88), 0.0)
    assert metrics_by_name["network.forward_sequence.calls"][0] >= 1
    for name in ("network.forward_sequence", "bptt.backward", "optim.rprop_step",
                 "smf.parse_midi", "pianoroll.quantize"):
        assert totals[name]["work"] > 0, name
