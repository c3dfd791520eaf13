import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from choralegen.errors import EmptyCorpus
from choralegen.network import NetworkConfig, init_params
from choralegen.optim import RPropConfig
from choralegen.pianoroll import PianoRoll
from choralegen.runner import (GenerationConfig, TrainConfig, format_history,
                               generate, predict_next, reconstruct, train)


def constant_roll(num_frames=6):
    frames = np.zeros((num_frames, 88))
    frames[:, [30, 42]] = 1.0
    return PianoRoll(frames, source_id="constant")


def alternating_roll(num_frames=12):
    frames = np.zeros((num_frames, 88))
    frames[0::2, 10] = 1.0
    frames[1::2, 50] = 1.0
    return PianoRoll(frames, source_id="alternating")


def small_net(seed=0, nb=8):
    return init_params(NetworkConfig(num_inputs=88, num_blocks=nb,
                                     num_outputs=88, rng_seed=seed))


def test_constant_sequence_converges():
    params, history = train([constant_roll()], small_net(), RPropConfig(),
                            TrainConfig(max_epochs=200, target_mse=0.01))
    assert history.converged
    assert history.mse[-1] <= 0.01


def test_single_epoch_history():
    params, history = train([constant_roll()], small_net(), RPropConfig(),
                            TrainConfig(max_epochs=1, target_mse=1e-9))
    assert history.epochs_run == 1 and len(history.mse) == 1
    assert not history.converged


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train([], small_net(), RPropConfig(), TrainConfig())


def test_history_monotone_bookkeeping():
    _, history = train([alternating_roll()], small_net(), RPropConfig(),
                       TrainConfig(max_epochs=40, target_mse=1e-9))
    assert history.epochs_run <= 40
    assert len(history.mse) == history.epochs_run == len(history.epoch_seconds)


def test_training_deterministic():
    def run():
        p, h = train([alternating_roll()], small_net(seed=3), RPropConfig(),
                     TrainConfig(max_epochs=25, target_mse=1e-9))
        return p.flatten(), h.mse

    pa, ma = run()
    pb, mb = run()
    assert np.array_equal(pa, pb) and ma == mb


def test_truncation_window_trains():
    params, history = train([alternating_roll(16)], small_net(), RPropConfig(),
                            TrainConfig(max_epochs=60, target_mse=0.005,
                                        truncation_window=4))
    assert history.mse[-1] < history.mse[0]


def test_format_history():
    _, history = train([constant_roll()], small_net(), RPropConfig(),
                       TrainConfig(max_epochs=3, target_mse=1e-9))
    lines = format_history(history).strip().splitlines()
    assert lines[0] == "epoch\tmse"
    assert len(lines) == 4
    assert lines[1].startswith("0\t")


def test_predict_next_zero_weights():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    y = predict_next(params, np.zeros((3, 88)))
    assert np.all(y == 0.5)


def test_predict_next_deterministic():
    params = small_net(seed=2)
    history = np.zeros((4, 88))
    history[:, 5] = 1.0
    assert np.array_equal(predict_next(params, history),
                          predict_next(params, history))


@functools.lru_cache(maxsize=1)
def trained_alternation(target=1e-5):
    roll = alternating_roll()
    params, history = train([roll], small_net(seed=1, nb=16),
                            RPropConfig(delta_max=0.1),
                            TrainConfig(max_epochs=400, target_mse=target))
    assert history.converged
    return params, roll


def test_predict_next_learned_alternation():
    params, roll = trained_alternation()
    y = predict_next(params, roll.frames[:1])
    assert y[50] > 0.9  # frame B's pitch
    assert np.all(np.delete(y, 50) < 0.9)


def test_generate_zero_steps_returns_seed():
    params = small_net()
    seed = alternating_roll().frames[:3]
    out = generate(params, seed, GenerationConfig(num_steps=5), num_steps=0)
    assert np.array_equal(out.frames, seed)


def test_untrained_net_generates_silence():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    seed = constant_roll().frames[:1]
    out = generate(params, seed, GenerationConfig(threshold=0.9, num_steps=4))
    assert out.frames[1:].sum() == 0  # 0.5 < 0.9 everywhere


def test_top_k_fallback_fills_silence():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    seed = constant_roll().frames[:1]
    out = generate(params, seed,
                   GenerationConfig(threshold=0.9, num_steps=3,
                                    fallback="top_k", top_k=2))
    assert np.all(out.frames[1:].sum(axis=1) == 2)


def test_generation_deterministic():
    params, roll = trained_alternation()
    config = GenerationConfig(num_steps=6)
    a = generate(params, roll.frames[:1], config)
    b = generate(params, roll.frames[:1], config)
    assert np.array_equal(a.frames, b.frames)


def test_threshold_monotonicity():
    params, roll = trained_alternation()
    low = generate(params, roll.frames[:1], GenerationConfig(threshold=0.6, num_steps=8))
    high = generate(params, roll.frames[:1], GenerationConfig(threshold=0.95, num_steps=8))
    assert np.all(high.frames <= low.frames)


def test_reconstruct_memorized_alternation():
    params, roll = trained_alternation()
    rendition, accuracy = reconstruct(params, roll, GenerationConfig())
    assert len(rendition) == len(roll)
    assert accuracy == 1.0


def test_reconstruct_untrained_is_poor():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    _, accuracy = reconstruct(params, constant_roll(), GenerationConfig())
    assert accuracy < 0.2


TRAIN_AND_DUMP = """
import sys
from conftest import chorale_piece
from choralegen.model_io import serialize_model
from choralegen.network import NetworkConfig, init_params
from choralegen.optim import RPropConfig
from choralegen.runner import TrainConfig, train
params, _ = train([chorale_piece(s) for s in range(6)],
                  init_params(NetworkConfig(num_blocks=64, rng_seed=0)),
                  RPropConfig(delta_max=0.1), TrainConfig(max_epochs=15, target_mse=1e-9))
sys.stdout.buffer.write(serialize_model(params))
"""


def test_model_bytes_independent_of_blas_threads():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])

    def model_bytes(threads):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        return subprocess.run([sys.executable, "-c", TRAIN_AND_DUMP], env=env,
                              capture_output=True, check=True).stdout

    one = model_bytes(1)
    assert one[:4] == b"CHLF"
    assert model_bytes(2) == one
