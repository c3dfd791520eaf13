import functools
import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from choralegen import runner
from choralegen.bptt import backward
from choralegen.errors import EmptyCorpus, NonFiniteActivation, NonFiniteGradient, NonFiniteLoss
from choralegen.metrics import evaluate
from choralegen.model_io import serialize_model
from choralegen.network import NetworkConfig, forward_sequence, init_params
from choralegen.optim import GDConfig, RPropConfig, gd_step, rprop_init, rprop_step
from choralegen.pianoroll import MAX_STEPS, PianoRoll
from choralegen.runner import (GenerationConfig, TrainConfig, format_history,
                               generate, reconstruct, train)

from conftest import chorale_piece, traced_peak


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


def test_largest_finite_step_growth_trains_without_overflow():
    # Epoch 3 is the first to grow a step already clipped to delta_max:
    # 50 * 1e306 is finite, so rprop_step must not warn of an overflow.
    config = RPropConfig(eta_plus=1e306)
    assert config.delta_max * config.eta_plus < np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, history = train([alternating_roll()], small_net(), config,
                           TrainConfig(max_epochs=3, target_mse=1e-9))
    assert history.epochs_run == 3


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


def test_corpus_order_changes_no_byte():
    # Pieces of distinct lengths pack in one order whatever their order in
    # the corpus; evaluate still lists them in the order it is given.
    corpus = [chorale_piece(s, n) for s, n in zip(range(5), (9, 23, 4, 16, 30))]
    runs = [train(rolls, init_params(NetworkConfig(num_blocks=8, rng_seed=2)), RPropConfig(),
                  TrainConfig(max_epochs=5, target_mse=1e-9)) for rolls in (corpus, corpus[::-1])]
    (params, history), (reversed_params, reversed_history) = runs
    assert serialize_model(params) == serialize_model(reversed_params)
    assert format_history(history) == format_history(reversed_history)
    shuffled = [corpus[n] for n in (3, 0, 4, 2, 1)]
    report = evaluate(params, shuffled, threshold=0.5)
    assert report.pieces == [evaluate(params, [roll], threshold=0.5).pieces[0]
                             for roll in shuffled]


def test_short_pieces_cost_memory_for_their_own_frames_only():
    # One 2048-frame piece and fifteen 2-frame pieces hold 15 frame pairs
    # more than the long piece alone; padded to its length, the split
    # would hold 16 times its frames (an epoch peak of 147 MB against 10).
    long_piece = chorale_piece(0, 2048)
    split = [long_piece] + [chorale_piece(s, 2) for s in range(1, 16)]
    params = init_params(NetworkConfig(num_blocks=32, rng_seed=0))
    one_epoch = lambda rolls: train(rolls, params, RPropConfig(),
                                    TrainConfig(max_epochs=1, target_mse=1e-9))
    for fn in (one_epoch, lambda rolls: evaluate(params, rolls)):
        assert traced_peak(fn, split) <= 1.2 * traced_peak(fn, [long_piece])


def test_one_piece_trains_on_one_copy_of_its_frames():
    # Its inputs and targets are two views of one frame array (1.4 MB here):
    # one epoch of this piece peaks at 8.46 MB, and at 9.90 MB with the two
    # views copied into arrays of their own.
    params = init_params(NetworkConfig(num_blocks=32, rng_seed=0))
    one_epoch = lambda rolls: train(rolls, params, RPropConfig(),
                                    TrainConfig(max_epochs=1, target_mse=1e-9))
    assert traced_peak(one_epoch, [chorale_piece(0, 2048)]) <= 9.0e6


@pytest.mark.parametrize("num_frames, bytes_per_frame", [(513, 9_500), (2049, 6_700)])
def test_one_epoch_at_64_blocks_peaks_below_its_bytes_per_frame(num_frames, bytes_per_frame):
    # Measured at 9422 and 6651 B per frame pair, with backward writing its
    # gate deltas over the trace's gates (10071 and 8187 B in a buffer of
    # its own); the shorter piece pays more per frame for the weights,
    # gradient and RProp state.
    params = init_params(NetworkConfig(num_blocks=64, rng_seed=0))
    one_epoch = lambda rolls: train(rolls, params, RPropConfig(),
                                    TrainConfig(max_epochs=1, target_mse=1e-9))
    peak = traced_peak(one_epoch, [chorale_piece(3, num_frames)])
    assert peak <= bytes_per_frame * (num_frames - 1)


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


def next_frame(params, history):
    return forward_sequence(params, history).y[-1]


def test_next_frame_zero_weights():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    y = next_frame(params, np.zeros((3, 88)))
    assert np.all(y == 0.5)


def test_next_frame_deterministic():
    params = small_net(seed=2)
    history = np.zeros((4, 88))
    history[:, 5] = 1.0
    assert np.array_equal(next_frame(params, history),
                          next_frame(params, history))


@functools.lru_cache(maxsize=1)
def trained_alternation(target=1e-5):
    roll = alternating_roll()
    params, history = train([roll], small_net(seed=1, nb=16),
                            RPropConfig(delta_max=0.1),
                            TrainConfig(max_epochs=400, target_mse=target))
    assert history.converged
    return params, roll


def test_next_frame_learned_alternation():
    params, roll = trained_alternation()
    y = next_frame(params, roll.frames[:1])
    assert y[50] > 0.9  # frame B's pitch
    assert np.all(np.delete(y, 50) < 0.9)


def test_generate_zero_steps_returns_seed():
    params = small_net()
    seed = alternating_roll().frames[:3]
    out = generate(params, seed, GenerationConfig(num_steps=0))
    assert np.array_equal(out.frames, seed)


@pytest.mark.parametrize("shape", [(0, 88), (3, 1), (3, 89), (88,)])
def test_generate_rejects_a_seed_that_is_not_rows_of_the_input_width(shape):
    with pytest.raises(ValueError, match="seed"):
        generate(small_net(), np.zeros(shape), GenerationConfig(num_steps=0))


def refused(message, params, seed, num_steps):
    with pytest.raises(ValueError, match=message):
        generate(params, seed, GenerationConfig(num_steps=num_steps))


def test_generate_rejects_a_seed_too_long_to_read_back():
    # GenerationConfig bounds seed_frames + num_steps; a longer seed array
    # is refused before the roll is allocated (the seed is a broadcast view).
    seed = np.broadcast_to(np.zeros(88), (MAX_STEPS, 88))
    assert traced_peak(refused, "MAX_STEPS", small_net(), seed, 1) < 1 << 20


@pytest.mark.parametrize("sizes", [(3, 3, 3), (88, 3, 5), (5, 3, 88)])
def test_generate_refuses_a_network_not_88_wide_before_it_steps(sizes):
    # A roll is 88 pitches wide; if only the returned roll checked that,
    # such a net would run all 60,000 steps first.
    ni, nb, no = sizes
    params = init_params(NetworkConfig(num_inputs=ni, num_blocks=nb, num_outputs=no))
    assert traced_peak(refused, "layer sizes", params, np.zeros((1, ni)), 60_000) < 1 << 20


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 1e-300])
def test_generate_refuses_a_finite_seed_value_not_0_or_1_before_it_steps(value):
    seed = np.zeros((3, 88))
    seed[1, 5] = value
    assert traced_peak(refused, "0.0 or 1.0", small_net(), seed, 60_000) < 1 << 20


def test_generate_takes_a_seed_of_negative_zeros():
    seed = np.full((2, 88), -0.0)
    seed[1, 5] = 1.0
    out = generate(small_net(), seed, GenerationConfig(num_steps=2))
    assert np.array_equal(out.frames[:2], seed)


def test_negative_counts_rejected():
    for bad in (dict(num_steps=-1), dict(seed_frames=0), dict(top_k=0), dict(top_k=-2)):
        with pytest.raises(ValueError):
            GenerationConfig(**bad)


def test_truncation_window_below_one_rejected():
    for window in (0, -3):
        with pytest.raises(ValueError):
            TrainConfig(truncation_window=window)


def test_log_every_below_one_rejected():
    with pytest.raises(ValueError, match="log_every"):
        TrainConfig(log_every=0)


def test_update_follows_the_optimizer_config_type():
    roll, params = alternating_roll(), small_net()
    grads = backward(params, forward_sequence(params, roll.frames[:-1]), roll.frames[1:])
    rprop = RPropConfig(delta_zero=0.02)
    expected = {GDConfig(learning_rate=0.3): gd_step(params, grads, GDConfig(learning_rate=0.3)),
                rprop: rprop_step(params, grads, rprop_init(params, rprop), rprop)[0]}
    for config, want in expected.items():
        got, _ = train([roll], params, config, TrainConfig(max_epochs=1, target_mse=1e-9))
        assert np.array_equal(got.vector, want.vector)


@pytest.mark.parametrize("max_epochs, target_mse", [(200, 0.01), (5, 0.9), (5, 1e-9)])
def test_backward_runs_only_on_epochs_that_update(monkeypatch, max_epochs, target_mse):
    # The epoch that meets the target is scored from the forward alone.
    calls = []
    monkeypatch.setattr(runner, "backward", lambda *args: calls.append(1) or backward(*args))
    _, history = train([constant_roll()], small_net(), RPropConfig(),
                       TrainConfig(max_epochs=max_epochs, target_mse=target_mse))
    assert len(calls) == history.epochs_run - history.converged
    assert history.converged == (target_mse > 1e-9)


def test_non_finite_parameter_raises_non_finite_loss():
    params = small_net()
    params.vector[7] = np.nan
    with pytest.raises(NonFiniteLoss) as info:
        train([constant_roll()], params, RPropConfig(), TrainConfig(max_epochs=3))
    assert info.value.epoch == 0


def test_overflowing_gradient_raises_non_finite_loss_at_epoch_0():
    with pytest.raises(NonFiniteLoss) as info:
        train([constant_roll()], small_net(), RPropConfig(), TrainConfig(max_epochs=3),
              loss_scale=1e308)
    assert info.value.epoch == 0
    assert isinstance(info.value.__cause__, NonFiniteGradient)


def test_generate_reports_row_of_non_finite_step():
    # Pitches 3 and 4 are silent in the seed and switched on by the output
    # bias in the first generated row; together they overflow output-gate
    # row 0 to +inf, which meets its -inf bias: NaN in the step fed by row 3.
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    params.b_out[[3, 4]] = 10.0
    params.w_x[0, [3, 4]] = 1e308
    params.b[0] = -np.inf
    seed = np.zeros((3, 88))
    with pytest.raises(NonFiniteActivation) as info:
        generate(params, seed, GenerationConfig(num_steps=4))
    assert info.value.timestep == 3


def test_generate_reports_row_of_non_finite_seed():
    # With zero weights, the inf in seed row 1 meets 0 in the input
    # product: NaN in the step that row feeds, before any generated row.
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    seed = np.zeros((3, 88))
    seed[1, 5] = np.inf
    with pytest.raises(NonFiniteActivation) as info:
        generate(params, seed, GenerationConfig(num_steps=4))
    assert info.value.timestep == 1


@pytest.mark.parametrize("mode", [dict(feedback="binary", threshold=0.8),
                                  dict(feedback="raw", threshold=0.8),
                                  dict(fallback="top_k", top_k=3, threshold=0.95)])
def test_generate_matches_teacher_forced_forward(mode):
    # Each generated frame is the threshold of forward_sequence's prediction
    # from every input before it: the generated frames themselves, or the
    # fed-back probabilities in raw mode. A prediction within 1e-9 of the
    # threshold may round to either side.
    config = GenerationConfig(num_steps=24, **mode)
    params = init_params(NetworkConfig(num_blocks=16, rng_seed=4, init_scale=1.5))
    seed = alternating_roll().frames[:3]
    rows = generate(params, seed, config).frames
    inputs = list(seed)
    for t in range(len(seed), len(rows)):
        y = forward_sequence(params, np.array(inputs)).y[-1]
        expected = (y > config.threshold).astype(float)
        if config.fallback == "top_k" and not expected.any():
            expected[np.argsort(y)[-config.top_k:]] = 1.0
        if not np.any(np.abs(y - config.threshold) < 1e-9):
            assert np.array_equal(rows[t], expected), t
        inputs.append(rows[t] if config.feedback == "binary" else y)
    assert rows[len(seed):].any()


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


@functools.lru_cache(maxsize=None)
def ledger(threads=1, coretype=None) -> dict:
    """`ledger.py`'s entries, from a fresh process at this BLAS thread
    count and, if given, this forced OpenBLAS kernel family."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    return json.loads(subprocess.run([sys.executable, os.path.join(here, "ledger.py")], env=env,
                                     capture_output=True, check=True).stdout)


def test_model_bytes_independent_of_blas_threads():
    # Every ledger entry: RProp and gradient-descent training, the fused-GEMV
    # generation steps, MIDI rendering and the packed (sum of T_n, 88)
    # forward of evaluate on ragged splits.
    one = ledger()
    assert one and ledger(threads=2) == one


def dynamic_arch_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(platform.machine() != "x86_64" or not dynamic_arch_openblas(),
                    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_rprop_model_bytes_independent_of_blas_kernel_family():
    # OPENBLAS_CORETYPE forces one kernel family. Prescott is the x86-64
    # floor, so every x86-64 CPU can run it. Its products may round other
    # than the default family's in the last bit; RProp reads only the sign
    # of each gradient entry, so no bytes of an RProp entry may move.
    rprop = {k: v for k, v in ledger().items() if not k.startswith("gd")}
    forced = ledger(coretype="Prescott")
    assert rprop and {k: forced[k] for k in rprop} == rprop
