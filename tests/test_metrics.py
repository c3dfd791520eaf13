import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choralegen.errors import EmptyCorpus, ShapeMismatch
from choralegen.metrics import (evaluate, format_report, frame_accuracy,
                                piece_prf)
from choralegen.network import NetworkConfig, forward_sequence, init_params
from choralegen.optim import RPropConfig
from choralegen.pianoroll import PianoRoll
from choralegen.runner import TrainConfig, train

from conftest import chorale_piece, traced_peak


def brute_force_counts(predicted, target):
    """Independent per-cell scan used as the oracle."""
    tp = fp = fn = 0
    for t in range(predicted.shape[0]):
        for c in range(predicted.shape[1]):
            p, g = predicted[t, c] > 0.5, target[t, c] > 0.5
            tp += p and g
            fp += p and not g
            fn += (not p) and g
    return tp, fp, fn


def random_pair(seed, shape=(8, 88), density=0.1):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ((rng.uniform(0, 1, shape) < density).astype(float),
            (rng.uniform(0, 1, shape) < density).astype(float))


def test_identity_gives_ones():
    pred, _ = random_pair(0)
    pred[0, 0] = 1.0
    assert piece_prf(pred, pred) == (1.0, 1.0, 1.0)


def test_empty_prediction_convention():
    _, target = random_pair(1)
    target[0, 0] = 1.0
    assert piece_prf(np.zeros_like(target), target) == (0.0, 0.0, 0.0)


def test_worked_example():
    # |T| = 4, |S| = 5, |T ∩ S| = 3
    pred = np.zeros((1, 88))
    targ = np.zeros((1, 88))
    pred[0, :5] = 1.0
    targ[0, [0, 1, 2, 10]] = 1.0
    p, r, f1 = piece_prf(pred, targ)
    assert p == pytest.approx(0.6)
    assert r == pytest.approx(0.75)
    assert f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        piece_prf(np.zeros((2, 88)), np.zeros((3, 88)))


def test_frame_accuracy_perfect():
    pred, _ = random_pair(2)
    pred[0, 0] = 1.0
    assert frame_accuracy([(pred, pred)]) == 1.0
    assert frame_accuracy([]) == 1.0  # an empty tally counts as perfect


def test_frame_accuracy_worked_example():
    # TP=3, FP=1, FN=2 -> 3/6
    pred = np.zeros((1, 88))
    targ = np.zeros((1, 88))
    pred[0, [0, 1, 2, 3]] = 1.0
    targ[0, [0, 1, 2, 4, 5]] = 1.0
    assert frame_accuracy([(pred, targ)]) == pytest.approx(0.5)


def test_frame_accuracy_all_silent_dense_targets():
    _, targ = random_pair(3, density=0.5)
    assert frame_accuracy([(np.zeros_like(targ), targ)]) == 0.0


def test_swap_symmetry():
    pred, targ = random_pair(4)
    p, r, f1 = piece_prf(pred, targ)
    p2, r2, f12 = piece_prf(targ, pred)
    assert (p, r) == (r2, p2)
    assert f1 == pytest.approx(f12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
@example(170)  # P == R, where 2PR/(P+R) rounds one ulp below both
@example(5421)
def test_oracle_equivalence(seed):
    pred, targ = random_pair(seed)
    tp, fp, fn = brute_force_counts(pred, targ)
    p, r, f1 = piece_prf(pred, targ)
    assert p == (tp / (tp + fp) if tp + fp else 0.0)
    assert r == (tp / (tp + fn) if tp + fn else 0.0)
    denom = tp + fp + fn
    assert frame_accuracy([(pred, targ)]) == (tp / denom if denom else 1.0)
    if p + r > 0:
        assert min(p, r) <= f1 <= max(p, r)
    assert 0.0 <= f1 <= 1.0


def memorized_setup():
    frames = np.zeros((12, 88))
    frames[0::2, 10] = 1.0
    frames[1::2, 50] = 1.0
    roll = PianoRoll(frames, source_id="memorized")
    params = init_params(NetworkConfig(num_blocks=16, rng_seed=1))
    params, history = train([roll], params, RPropConfig(delta_max=0.1),
                            TrainConfig(max_epochs=400, target_mse=1e-5))
    assert history.converged
    return params, roll


def test_evaluate_memorized_piece():
    params, roll = memorized_setup()
    report = evaluate(params, [roll])
    assert report.macro_f1 == 1.0
    assert report.frame_accuracy == 1.0


def test_evaluate_untrained_zero_weights():
    params = init_params(NetworkConfig(num_blocks=8, init_scale=0.0))
    _, roll = random_pair(5, density=0.5)
    report = evaluate(params, [PianoRoll(roll)])
    assert report.macro_f1 == 0.0 and report.frame_accuracy == 0.0


def test_evaluate_ragged_split_scores_each_piece_alone():
    # Pieces run as one zero-padded stack; padding must not leak into the
    # shorter pieces' scores.
    params = init_params(NetworkConfig(num_blocks=16, rng_seed=2, init_scale=1.5))
    rolls = [PianoRoll(random_pair(seed, shape=(length, 88), density=0.2)[0],
                       source_id=f"p{seed}")
             for seed, length in zip(range(4), (9, 30, 2, 17))]
    together = evaluate(params, rolls, threshold=0.7)
    for roll, score in zip(rolls, together.pieces):
        alone = evaluate(params, [roll], threshold=0.7).pieces[0]
        assert score == alone
    assert 0 < together.frame_accuracy < 1


def test_evaluate_empty_split():
    params = init_params(NetworkConfig(num_blocks=8))
    with pytest.raises(EmptyCorpus):
        evaluate(params, [])


def test_report_table_layout():
    params, roll = memorized_setup()
    text = format_report(evaluate(params, [roll]), model="rprop")
    assert "rprop" in text
    assert "100.00%" in text


def test_evaluate_agrees_with_piece_prf_and_frame_accuracy():
    # evaluate counts each piece once; its scores must equal the public
    # per-piece and corpus functions applied to the same predictions.
    params = init_params(NetworkConfig(num_blocks=16, rng_seed=3, init_scale=1.5))
    rolls = [PianoRoll(random_pair(seed, shape=(length, 88), density=0.2)[0],
                       source_id=f"p{seed}")
             for seed, length in zip(range(5), (12, 3, 25, 2, 8))]
    report = evaluate(params, rolls, threshold=0.6)
    pairs = [((forward_sequence(params, r.frames[:-1]).y > 0.6).astype(float), r.frames[1:])
             for r in rolls]
    assert [(s.precision, s.recall, s.f1) for s in report.pieces] \
        == [piece_prf(pred, targ) for pred, targ in pairs]
    assert report.frame_accuracy == frame_accuracy(pairs)
    assert report.macro_f1 == np.mean([piece_prf(p, t)[2] for p, t in pairs])
    assert 0 < report.frame_accuracy < 1


def test_evaluate_of_equal_pieces_at_64_blocks_peaks_below_4750_bytes_per_frame_pair():
    # Eight 257-frame pieces run as one batch of 8 at every step, whose gate
    # blocks go back to rows of 4B through the step scratch: measured at
    # 4657 B per frame pair. A copy-back through one temporary per run
    # peaked at 5912 B.
    params = init_params(NetworkConfig(num_blocks=64, rng_seed=0))
    rolls = [chorale_piece(seed, 257) for seed in range(8)]
    assert traced_peak(evaluate, params, rolls) <= 4750 * 8 * 256
