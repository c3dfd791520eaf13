"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 3 and 7 share one training recipe on the bundled
64-frame chorale-style fixture.
"""

import time

import numpy as np
import pytest

from choralegen.bptt import backward, finite_diff_gradient, max_relative_error
from choralegen.metrics import evaluate, frame_accuracy, piece_prf
from choralegen.model_io import serialize_model
from choralegen.network import NetworkConfig, forward_sequence, init_params
from choralegen.optim import GDConfig, RPropConfig
from choralegen.pianoroll import (PianoRoll, QuantizationSpec, parse_midi,
                                  quantize, render_midi)
from choralegen.runner import (GenerationConfig, TrainConfig, generate,
                               reconstruct, train)

from conftest import chorale_piece, random_roll

# Recipe for criteria 3 and 7: hyperparameters are free (the experiment
# leaves them unspecified), so they are pinned here for reproducibility.
FIXTURE_NET = NetworkConfig(rng_seed=6)
FIXTURE_OPT = RPropConfig(delta_max=0.1)
FIXTURE_TRAIN = TrainConfig(max_epochs=500, target_mse=1e-7)


def announce(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.Generator(np.random.PCG64(42))
    worst = 0.0
    for trial in range(20):
        ni, nb, no = (int(v) for v in rng.integers(2, 5, 3))
        length = int(rng.integers(5, 11))
        cfg = NetworkConfig(num_inputs=ni, num_blocks=nb, num_outputs=no,
                            rng_seed=trial, init_scale=0.5)
        params = init_params(cfg)
        inputs = rng.uniform(0, 1, (length, ni))
        targets = (rng.uniform(0, 1, (length, no)) > 0.5).astype(float)
        analytic = backward(params, forward_sequence(params, inputs), targets)
        numeric = finite_diff_gradient(params, inputs, targets, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - start
    assert worst < 1e-6, f"max relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(1, f"BPTT vs central differences, 20 instances, "
                f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_rprop_sign_invariance():
    toy = [chorale_piece(s, length=12) for s in range(2)]

    # delta_max is kept small so no sigmoid saturates into subnormal
    # gradient territory, where underflow would break exact sign equality.
    def run(loss_scale):
        params = init_params(NetworkConfig(num_blocks=8, rng_seed=0))
        params, _ = train(toy, params, RPropConfig(delta_max=0.1),
                          TrainConfig(max_epochs=50, target_mse=1e-12),
                          loss_scale=loss_scale)
        return params.flatten()

    unscaled = run(1.0)
    scaled = run(3.7)
    assert np.array_equal(unscaled, scaled)
    announce(2, "loss scaled by 3.7 gives bit-identical 50-epoch trajectory")


def fixture_training(chorale64):
    params = init_params(FIXTURE_NET)
    return train([chorale64], params, FIXTURE_OPT, FIXTURE_TRAIN)


def test_criterion_3_single_piece_reconstruction(chorale64):
    start = time.time()
    params, history = fixture_training(chorale64)
    elapsed = time.time() - start
    reached = next((e for e, m in enumerate(history.mse) if m <= 0.01), None)
    assert reached is not None and reached < 500, "MSE never reached 1%"
    rendition, accuracy = reconstruct(params, chorale64,
                                      GenerationConfig(threshold=0.9))
    assert accuracy >= 0.8, f"free-running accuracy {accuracy:.3f}"
    assert elapsed < 300, f"took {elapsed:.0f}s"
    announce(3, f"MSE <= 0.01 at epoch {reached}, free-run frame accuracy "
                f"{accuracy:.3f} in {elapsed:.0f}s")


def test_criterion_4_rprop_beats_gd():
    train_rolls = [chorale_piece(s) for s in range(10)]
    test_rolls = [chorale_piece(s) for s in range(10, 14)]
    init = init_params(NetworkConfig(num_blocks=32, rng_seed=0))
    budget = TrainConfig(max_epochs=300, target_mse=1e-9)
    gd_budget = TrainConfig(max_epochs=300, target_mse=1e-9)
    rprop_params, rprop_hist = train(train_rolls, init, RPropConfig(delta_max=0.1), budget)
    gd_params, gd_hist = train(train_rolls, init, GDConfig(), gd_budget)

    rprop_report = evaluate(rprop_params, test_rolls)
    gd_report = evaluate(gd_params, test_rolls)
    assert rprop_report.frame_accuracy > gd_report.frame_accuracy
    assert rprop_report.macro_f1 > gd_report.macro_f1
    for epoch in range(50, 300):
        assert rprop_hist.mse[epoch] < gd_hist.mse[epoch], f"epoch {epoch}"
    announce(4, f"RProp acc {rprop_report.frame_accuracy:.3f} / F1 "
                f"{rprop_report.macro_f1:.3f} beats GD "
                f"{gd_report.frame_accuracy:.3f} / {gd_report.macro_f1:.3f}; "
                f"MSE curve below GD from epoch 50")


def test_criterion_5_metric_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(100):
        pred = (rng.uniform(0, 1, (8, 88)) < 0.1).astype(float)
        targ = (rng.uniform(0, 1, (8, 88)) < 0.1).astype(float)
        tp = int(np.sum((pred > 0.5) & (targ > 0.5)))
        fp = int(np.sum((pred > 0.5) & (targ <= 0.5)))
        fn = int(np.sum((pred <= 0.5) & (targ > 0.5)))
        p, r, f1 = piece_prf(pred, targ)
        assert p == (tp / (tp + fp) if tp + fp else 0.0)
        assert r == (tp / (tp + fn) if tp + fn else 0.0)
        expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == expected_f1
        denom = tp + fp + fn
        assert frame_accuracy([(pred, targ)]) == (tp / denom if denom else 1.0)
    announce(5, "piece_prf and frame_accuracy match brute-force counts on "
                "100 random roll pairs")


def test_criterion_6_midi_round_trip():
    spec = QuantizationSpec(ticks_per_step=240)
    rng = np.random.Generator(np.random.PCG64(123))
    for _ in range(100):
        frames = (rng.uniform(0, 1, (8, 88)) < 0.08).astype(float)
        frames[-1, int(rng.integers(0, 88))] = 1.0  # keep the length visible
        roll = PianoRoll(frames)
        events, _ = parse_midi(render_midi(roll, spec))
        assert np.array_equal(quantize(events, spec).frames, frames)
    announce(6, "100 random rolls survive render -> parse -> quantize bit-exactly")


def test_criterion_7_determinism(chorale64):
    gen_config = GenerationConfig(threshold=0.9, num_steps=32)
    spec = QuantizationSpec(ticks_per_step=240)

    def run():
        params, _ = fixture_training(chorale64)
        model_bytes = serialize_model(params)
        roll = generate(params, chorale64.frames[:1], gen_config)
        return model_bytes, render_midi(roll, spec)

    model_a, midi_a = run()
    model_b, midi_b = run()
    assert model_a == model_b
    assert midi_a == midi_b
    announce(7, "repeated training yields byte-identical model and MIDI")
