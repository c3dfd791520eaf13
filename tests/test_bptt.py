import dataclasses
import math

import numpy as np
import pytest

from choralegen.bptt import backward, finite_diff_gradient, max_relative_error
from choralegen.errors import LengthMismatch
from choralegen.network import NetworkConfig, forward_sequence, init_params

from conftest import pack


def random_instance(seed, ni=2, nb=3, no=2, length=5, scale=0.5):
    cfg = NetworkConfig(num_inputs=ni, num_blocks=nb, num_outputs=no,
                        rng_seed=seed, init_scale=scale)
    params = init_params(cfg)
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    inputs = rng.uniform(0, 1, (length, ni))
    targets = (rng.uniform(0, 1, (length, no)) > 0.5).astype(float)
    return params, inputs, targets


def test_zero_residual_zero_gradient():
    params, inputs, _ = random_instance(0)
    trace = forward_sequence(params, inputs)
    grads = backward(params, trace, trace.y.copy())
    assert all(np.all(a == 0) for a in grads.arrays())


def test_scalar_network_closed_form():
    # 1 input, 1 block, 1 output, no recurrence, single timestep: compare
    # against hand-derived chain-rule scalars.
    params = init_params(NetworkConfig(num_inputs=1, num_blocks=1,
                                       num_outputs=1, rng_seed=3,
                                       init_scale=0.7))
    for name in ("wh_i", "wh_f", "wh_o", "wh_c"):
        getattr(params, name)[...] = 0.0
    x, target = 0.8, 1.0
    trace = forward_sequence(params, np.array([[x]]))
    grads = backward(params, trace, np.array([[target]]))

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    i = sig(params.wx_i[0, 0] * x + params.b_i[0])
    f = sig(params.wx_f[0, 0] * x + params.b_f[0])
    o = sig(params.wx_o[0, 0] * x + params.b_o[0])
    g = math.tanh(params.wx_c[0, 0] * x + params.b_c[0])
    c = i * g
    h = o * math.tanh(c)
    y = sig(params.w_out[0, 0] * h + params.b_out[0])

    dz_y = 2 * (y - target) * y * (1 - y)
    dh = params.w_out[0, 0] * dz_y
    dc = dh * o * (1 - math.tanh(c) ** 2)
    dz_o = dh * math.tanh(c) * o * (1 - o)
    dz_i = dc * g * i * (1 - i)
    dz_f = dc * 0.0 * f * (1 - f)  # c_prev = 0
    dz_c = dc * i * (1 - g * g)

    assert grads.w_out[0, 0] == pytest.approx(dz_y * h, rel=1e-12)
    assert grads.b_out[0] == pytest.approx(dz_y, rel=1e-12)
    assert grads.wx_o[0, 0] == pytest.approx(dz_o * x, rel=1e-12)
    assert grads.wx_i[0, 0] == pytest.approx(dz_i * x, rel=1e-12)
    assert grads.wx_f[0, 0] == dz_f == 0.0
    assert grads.wx_c[0, 0] == pytest.approx(dz_c * x, rel=1e-12)
    assert grads.b_c[0] == pytest.approx(dz_c, rel=1e-12)


def test_gradient_matches_finite_differences():
    params, inputs, targets = random_instance(7, ni=2, nb=3, no=2, length=5)
    analytic = backward(params, forward_sequence(params, inputs), targets)
    numeric = finite_diff_gradient(params, inputs, targets, h=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-6


def test_length_mismatch():
    params, inputs, targets = random_instance(1)
    trace = forward_sequence(params, inputs)
    with pytest.raises(LengthMismatch):
        backward(params, trace, targets[:-1])
    # Batch sizes of 5 rows that are not positive, rise, or do not sum to 5.
    for batch_sizes in ([5, 0], [1, 1, 1, 1], [1] * 6, [2, 3], [], [2.5, 2.5]):
        with pytest.raises(LengthMismatch):
            backward(params, dataclasses.replace(trace, batch_sizes=np.array(batch_sizes)),
                     targets)


def test_loss_scaling_scales_gradients():
    params, inputs, targets = random_instance(4)
    trace = forward_sequence(params, inputs)
    g1 = backward(params, trace, targets)
    g2 = backward(params, trace, targets, loss_scale=2.5)
    assert np.allclose(g2.flatten(), 2.5 * g1.flatten(), rtol=1e-12, atol=0)


def test_finite_diff_quadratic_sanity():
    # Central difference of E = w^2 at w = 3 is exactly 6 up to O(h^2).
    h = 1e-5
    grad = ((3 + h) ** 2 - (3 - h) ** 2) / (2 * h)
    assert grad == pytest.approx(6.0, abs=1e-9)


def test_finite_diff_second_order_convergence():
    params, inputs, targets = random_instance(9)
    analytic = backward(params, forward_sequence(params, inputs), targets)
    err = []
    for h in (2e-3, 1e-3):
        numeric = finite_diff_gradient(params, inputs, targets, h=h)
        err.append(np.max(np.abs(analytic.flatten() - numeric.flatten())))
    assert err[1] < err[0] / 3.0  # halving h shrinks the error ~4x


def test_finite_diff_rejects_bad_h():
    params, inputs, targets = random_instance(0)
    with pytest.raises(ValueError):
        finite_diff_gradient(params, inputs, targets, h=0.0)


def per_step_reference(params, inputs, targets, window=None):
    """Forward and backward one timestep and one gate at a time, with a
    separate outer product per weight matrix: (predictions, gradients).
    With a `window`, no error is carried back across the start of a chunk
    of `window` steps (truncated BPTT); the forward runs unbroken."""
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    gates = "ifoc"
    nb = params.num_blocks
    c, h, steps = np.zeros(nb), np.zeros(nb), []
    for x in inputs:
        z = {g: getattr(params, "wx_" + g) @ x + getattr(params, "wh_" + g) @ h
             + getattr(params, "b_" + g) for g in gates}
        a = {g: sig(z[g]) for g in "ifo"}
        a["c"] = np.tanh(z["c"])
        c_prev, h_prev = c, h
        c = a["f"] * c + a["i"] * a["c"]
        h = a["o"] * np.tanh(c)
        steps.append((x, a, c_prev, h_prev, c, h, sig(params.w_out @ h + params.b_out)))
    grads = params.zeros_like()
    dh_next, dc_next = np.zeros(nb), np.zeros(nb)
    for t in range(len(steps) - 1, -1, -1):
        x, a, c_prev, h_prev, c, h, y = steps[t]
        dz_y = 2.0 * (y - targets[t]) / targets.size * y * (1.0 - y)
        grads.w_out[...] += np.outer(dz_y, h)
        grads.b_out[...] += dz_y
        dh = params.w_out.T @ dz_y + dh_next
        dc = dh * a["o"] * (1.0 - np.tanh(c) ** 2) + dc_next
        dz = {"i": dc * a["c"] * a["i"] * (1.0 - a["i"]),
              "f": dc * c_prev * a["f"] * (1.0 - a["f"]),
              "o": dh * np.tanh(c) * a["o"] * (1.0 - a["o"]),
              "c": dc * a["i"] * (1.0 - a["c"] ** 2)}
        dh_next = np.zeros(nb)
        for g in gates:
            getattr(grads, "wx_" + g)[...] += np.outer(dz[g], x)
            getattr(grads, "wh_" + g)[...] += np.outer(dz[g], h_prev)
            getattr(grads, "b_" + g)[...] += dz[g]
            dh_next += getattr(params, "wh_" + g).T @ dz[g]
        dc_next = dc * a["f"]
        if window and t % window == 0:
            dh_next, dc_next = np.zeros(nb), np.zeros(nb)
    return np.array([s[-1] for s in steps]), grads


@pytest.mark.parametrize("seed", range(4))
def test_matches_per_step_reference(seed):
    params, inputs, targets = random_instance(seed, ni=4, nb=5, no=3, length=9)
    trace = forward_sequence(params, inputs)
    y, expected = per_step_reference(params, inputs, targets)
    grads = backward(params, trace, targets)
    assert np.allclose(trace.y, y, rtol=1e-13, atol=0)
    scale = np.max(np.abs(expected.flatten()))
    assert np.max(np.abs(grads.flatten() - expected.flatten())) <= 1e-12 * scale


@pytest.mark.parametrize("window", [None, 4])
def test_one_sequence_gradient_same_as_a_stack_of_one(window):
    # One sequence is a packed corpus of one piece: batch size 1 at every step.
    params, inputs, targets = random_instance(2, ni=4, nb=5, no=3, length=9)
    alone = backward(params, forward_sequence(params, inputs), targets, window=window)
    packed = forward_sequence(params, inputs, np.ones(len(inputs), dtype=np.int64))
    assert np.array_equal(backward(params, packed, targets, window=window).vector, alone.vector)


def ragged_batch(seed, lengths, ni=2, nb=3, no=2, scale=0.5):
    """A net, its pieces as (inputs, targets) pairs, and the pieces packed
    longest first into (sum(lengths), .) rows with their batch sizes."""
    params = random_instance(seed, ni, nb, no, scale=scale)[0]
    rng = np.random.Generator(np.random.PCG64(seed + 2000))
    pieces = [(rng.uniform(0, 1, (n, ni)), (rng.uniform(0, 1, (n, no)) > 0.5).astype(float))
              for n in lengths]
    inputs, batch_sizes = pack([x for x, _ in pieces])
    targets, _ = pack([y for _, y in pieces])
    return params, pieces, inputs, targets, batch_sizes


def max_norm_close(a, b, rel):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def test_batched_gradient_is_the_sum_of_piece_gradients():
    # Each single-sequence gradient is that of its own MSE, i.e. of its
    # squared error scaled by 1/(T_n * outputs); the batch must weight its
    # pieces the same way. 180 rows make two weight-gradient blocks, and
    # the batch shrinks from 4 to 3 to 1 pieces.
    lengths = (60, 45, 30, 45)
    params, pieces, inputs, targets, batch_sizes = ragged_batch(3, lengths, ni=4, nb=5, no=3)
    batched = backward(params, forward_sequence(params, inputs, batch_sizes), targets)
    singles = [backward(params, forward_sequence(params, x), y).vector for x, y in pieces]
    assert max_norm_close(batched.vector, sum(singles), 1e-12)
    # A corpus-mean weighting, 1/sum(T * outputs) for every piece, differs.
    corpus_mean = sum(g * n for g, n in zip(singles, lengths)) / sum(lengths)
    assert not max_norm_close(batched.vector, corpus_mean, 1e-3)


def test_gradient_matches_finite_differences_on_ragged_batch():
    lengths = (5, 3, 4)
    params, pieces, inputs, targets, batch_sizes = ragged_batch(11, lengths)
    analytic = backward(params, forward_sequence(params, inputs, batch_sizes), targets)
    numeric = params.with_flat(sum(finite_diff_gradient(params, x, y).vector for x, y in pieces))
    assert max_relative_error(analytic, numeric) < 1e-6


def test_truncated_batch_matches_per_piece_chunks():
    lengths = (9, 6, 11)
    params, pieces, inputs, targets, batch_sizes = ragged_batch(8, lengths, ni=3, nb=4, no=3)
    trace = forward_sequence(params, inputs, batch_sizes)
    batched = backward(params, trace, targets, window=4)
    expected = sum(per_step_reference(params, x, y, window=4)[1].vector for x, y in pieces)
    assert max_norm_close(batched.vector, expected, 1e-12)
    full = backward(params, trace, targets)
    assert not max_norm_close(full.vector, expected, 1e-6)



@pytest.mark.parametrize("window", [None, 4])
def test_backward_leaves_its_operands_unchanged(window):
    # backward works in buffers of its own: the trace of a ragged packed
    # corpus, its targets and the weights keep every byte, so the same
    # trace differentiates again to the same gradient.
    params, _, inputs, targets, batch_sizes = ragged_batch(5, (9, 6, 11, 6), ni=3, nb=4, no=3)
    trace = forward_sequence(params, inputs, batch_sizes)
    operands = [getattr(trace, f.name) for f in dataclasses.fields(trace)] + [targets, params.vector]
    before = [a.tobytes() for a in operands]
    first = backward(params, trace, targets, window=window)
    assert [a.tobytes() for a in operands] == before
    assert backward(params, trace, targets, window=window).vector.tobytes() == first.vector.tobytes()
