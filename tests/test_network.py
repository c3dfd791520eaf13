import itertools

import numpy as np
import pytest

from choralegen.errors import LengthMismatch, NonFiniteActivation, ShapeMismatch
from choralegen.network import (MAX_PARAMS, NetworkConfig, NetworkParams, _lstm_cell,
                                _sigmoid_of_negated, forward_sequence, gate_views, init_params,
                                param_count)

from conftest import pack


def small_config(**kw):
    defaults = dict(num_inputs=3, num_blocks=4, num_outputs=2, rng_seed=5,
                    init_scale=0.4)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def test_default_param_count():
    # 4*64*(88+64+1) + 88*65
    assert param_count(NetworkConfig()) == 44_888
    assert init_params(NetworkConfig()).size() == 44_888


def test_param_count_formula_arbitrary_sizes():
    for ni, nb, no in [(1, 1, 1), (2, 7, 3), (10, 5, 10)]:
        cfg = NetworkConfig(num_inputs=ni, num_blocks=nb, num_outputs=no)
        assert init_params(cfg).size() == 4 * nb * (ni + nb + 1) + no * (nb + 1)


@pytest.mark.parametrize("bad", [dict(rng_seed=-1), dict(init_scale=-0.1),
                                 dict(init_scale=float("inf")), dict(init_scale=float("nan")),
                                 dict(num_blocks=2048), dict(init_scale=1e308)])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        NetworkConfig(**bad)


def test_max_params_bounds_the_param_count():
    # 4B(I + B + 1) + O(B + 1) with I = O = 1: 16,762,879 at B = 2046 and
    # 16,779,260 > 2^24 at B = 2047.
    assert param_count(NetworkConfig(num_inputs=1, num_blocks=2046, num_outputs=1)) <= MAX_PARAMS
    with pytest.raises(ValueError, match="MAX_PARAMS"):
        NetworkConfig(num_inputs=1, num_blocks=2047, num_outputs=1)
    with pytest.raises(ValueError, match="MAX_PARAMS"):
        NetworkConfig(num_inputs=MAX_PARAMS, num_blocks=1, num_outputs=1)


def test_params_around_a_vector_of_the_wrong_length_raise_shape_mismatch():
    size = param_count(small_config())
    for length in (size - 1, size + 1):
        with pytest.raises(ShapeMismatch):
            NetworkParams(np.zeros(length), 3, 4, 2)


def test_init_deterministic():
    a = init_params(small_config())
    b = init_params(small_config())
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_init_scale_zero():
    params = init_params(small_config(init_scale=0.0))
    assert all(np.all(a == 0) for a in params.arrays() if a is not params.b_f)
    assert np.all(params.b_f == 1.0)


def test_zero_params_predict_half():
    params = init_params(small_config(init_scale=0.0))
    y = forward_sequence(params, np.ones((1, 3))).y[0]
    assert np.all(y == 0.5)


def test_cell_decay_closed_form():
    # With zero input-gate path and forget bias 1, the cell state decays
    # by sigmoid(1) each step: c_t = sigmoid(1)^t * c_0.
    # The cell steps one (1, B) row; its o, i and f pre-activations come halved.
    params = init_params(small_config(init_scale=0.0))
    c0 = np.array([[0.8, -0.3, 0.5, 1.2]])
    c, h = c0.copy(), np.zeros((1, 4))
    decay = 1.0 / (1.0 + np.exp(-1.0))
    for t in range(1, 4):
        z = params.w_x @ np.zeros(3) + params.w_h @ h[0] + params.b
        z[:12] *= 0.5
        z = z.reshape(4, 1, 4)
        c_next = np.empty((1, 4))
        _lstm_cell(z, gate_views(z), c, c_next, h)
        c = c_next
        assert np.allclose(c, decay ** t * c0, rtol=1e-12)


def test_lstm_cell_matches_the_written_out_equations():
    # Every pairing of four gates over pre-activations that saturate,
    # overflow exp, are infinite or NaN, then a dense sweep: the tanh-form
    # sigmoid gates stay within 2.3e-16 of the logistic, and the cell state
    # and block output follow c = f*c_prev + i*g and h = o*tanh(c).
    special = [-np.inf, -800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0, np.inf, np.nan]
    rng = np.random.Generator(np.random.PCG64(7))
    dense = np.linspace(-50.0, 50.0, 4001)
    o, i, f, g = np.hstack([np.array(list(itertools.product(special, repeat=4))).T,
                            [rng.permutation(dense) for _ in range(4)]])
    # As in a batched step, the cell reads (a, 4B) rows, here a = 3, as a
    # (4, a, B) block; its caller has halved the o, i and f pre-activations.
    c_prev = rng.uniform(-3.0, 3.0, o.size)
    rows = np.hstack([v.reshape(3, -1) for v in (0.5 * o, 0.5 * i, 0.5 * f, g)])
    z = np.empty((4, 3, o.size // 3))
    c, h = np.empty((2, 3, o.size // 3))
    _lstm_cell(rows.reshape(3, 4, -1).transpose(1, 0, 2), gate_views(z), c_prev.reshape(3, -1), c, h)
    z, c, h = z.reshape(-1), c.reshape(-1), h.reshape(-1)

    with np.errstate(over="ignore"):
        logistic = lambda a: 1.0 / (1.0 + np.exp(-a))
        want = [logistic(o), logistic(i), logistic(f), np.tanh(g)]
    for got, expected in zip(np.split(z, 4), want):
        np.testing.assert_allclose(got, expected, rtol=0, atol=2.3e-16)
    s_o, s_i, s_f, s_g = want
    c_want = s_f * c_prev + s_i * s_g
    np.testing.assert_allclose(c, c_want, rtol=0, atol=2e-15)
    np.testing.assert_allclose(h, s_o * np.tanh(c_want), rtol=0, atol=2e-15)
    nan_ifg = np.isnan(i) | np.isnan(f) | np.isnan(g)
    assert np.array_equal(np.isnan(c), nan_ifg)
    assert np.array_equal(np.isnan(h), nan_ifg | np.isnan(o))


def test_gate_views_split_the_gate_axis_in_o_i_f_g_order():
    z = np.arange(2 * 4 * 3 * 2.0).reshape(2, 4, 3, 2)  # (steps, 4, a, B)
    views = gate_views(z)
    assert views[0] is z and np.array_equal(views[1], z[:, :3])
    for k, view in enumerate(views[2:]):
        assert np.shares_memory(view, z) and np.array_equal(view, z[:, k])
    for step, per_step in zip(z, zip(*views)):  # zipped, a step's views of a 4-D array
        assert all(np.array_equal(v, w) for v, w in zip(per_step, gate_views(step)))


def test_sigmoid_of_negated_input_is_the_logistic_bit_for_bit():
    a = np.concatenate([[-np.inf, np.inf, np.nan, -800.0, 800.0, -40.0, 40.0, 0.0],
                        np.linspace(-50.0, 50.0, 40001)])
    got = -a
    with np.errstate(over="ignore"):
        _sigmoid_of_negated(got)
        want = 1.0 / (1.0 + np.exp(-a))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2])


def test_one_sequence_runs_the_same_as_a_stack_of_one():
    # One sequence is a packed corpus of one piece, batch size 1 at every
    # step: both step on (1, B) rows, so every trace array has the same bits.
    params = init_params(small_config(num_inputs=88, num_blocks=16, num_outputs=88))
    x = (np.random.Generator(np.random.PCG64(4)).uniform(0, 1, (30, 88)) < 0.1).astype(float)
    alone = forward_sequence(params, x)
    packed = forward_sequence(params, x, np.ones(len(x), dtype=np.int64))
    for name in ("x", "gates", "cell_states", "block_outputs", "y"):
        assert np.array_equal(getattr(packed, name), getattr(alone, name)), name


def test_gate_ranges():
    params = init_params(small_config(init_scale=2.0))
    trace = forward_sequence(params, np.ones((6, 3)))
    for gates in np.split(trace.gates, 4, axis=-1)[:3]:  # output, input, forget
        assert np.all((gates > 0) & (gates < 1))
    assert np.all((trace.block_outputs > -1) & (trace.block_outputs < 1))


def test_trace_length_matches_inputs():
    params = init_params(small_config())
    rng = np.random.Generator(np.random.PCG64(0))
    for length in rng.integers(1, 51, size=6):
        trace = forward_sequence(params, rng.uniform(0, 1, (length, 3)))
        assert len(trace) == length


def test_state_carries_over():
    params = init_params(small_config())
    rng = np.random.Generator(np.random.PCG64(1))
    a, b = rng.uniform(0, 1, (2, 3))
    joint = forward_sequence(params, np.array([a, b]))
    fresh = forward_sequence(params, np.array([b]))
    assert not np.allclose(joint.y[1], fresh.y[0])


def test_forward_deterministic():
    params = init_params(small_config())
    x = np.random.Generator(np.random.PCG64(2)).uniform(0, 1, (5, 3))
    t1 = forward_sequence(params, x)
    t2 = forward_sequence(params, x)
    assert np.array_equal(t1.y, t2.y)


@pytest.mark.parametrize("nb", [1, 4])
def test_forward_halves_a_copy_of_the_recurrent_weights(nb):
    # At one block w_h.T is already C-contiguous, so only a copy keeps the
    # weights from being halved with the sigmoid gates' columns.
    params = init_params(small_config(num_blocks=nb))
    before = params.vector.tobytes()
    x = np.random.Generator(np.random.PCG64(6)).uniform(0, 1, (5, 3))
    first = forward_sequence(params, x).y
    assert params.vector.tobytes() == before
    assert np.array_equal(forward_sequence(params, x).y, first)


def test_non_finite_input_reports_its_timestep():
    params = init_params(small_config())
    inputs = np.zeros((6, 3))
    inputs[3] = np.inf  # inf - inf in the gate products gives NaN
    with pytest.raises(NonFiniteActivation) as info:
        forward_sequence(params, inputs)
    assert info.value.timestep == 3


def test_batched_forward_matches_per_sequence():
    # A ragged corpus packed longest first: every row agrees with running
    # its sequence alone.
    params = init_params(small_config(num_inputs=88, num_blocks=32, num_outputs=88))
    rng = np.random.Generator(np.random.PCG64(3))
    seqs = [(rng.uniform(0, 1, (length, 88)) < 0.1).astype(float)
            for length in (17, 40, 1, 29, 33)]
    inputs, batch_sizes = pack(seqs)
    owner, _ = pack([np.full(len(seq), n) for n, seq in enumerate(seqs)])
    batched = forward_sequence(params, inputs, batch_sizes)
    assert batched.y.shape == (sum(map(len, seqs)), 88)
    for n, seq in enumerate(seqs):
        alone = forward_sequence(params, seq)
        for name in ("gates", "cell_states", "block_outputs", "y"):
            np.testing.assert_allclose(getattr(batched, name)[owner == n],
                                       getattr(alone, name), rtol=0, atol=1e-12)


def test_batched_forward_of_equal_lengths_matches_per_sequence():
    # Pieces of one length run as one batch of 4 over every step, so each
    # gate row is written back from its step's (4, a, B) block.
    params = init_params(small_config(num_inputs=88, num_blocks=32, num_outputs=88))
    rng = np.random.Generator(np.random.PCG64(8))
    seqs = [(rng.uniform(0, 1, (23, 88)) < 0.1).astype(float) for _ in range(4)]
    inputs, batch_sizes = pack(seqs)
    assert set(batch_sizes.tolist()) == {4}
    batched = forward_sequence(params, inputs, batch_sizes)
    for n, seq in enumerate(seqs):
        alone = forward_sequence(params, seq)
        for name in ("gates", "cell_states", "block_outputs", "y"):
            np.testing.assert_allclose(getattr(batched, name)[n::4], getattr(alone, name),
                                       rtol=0, atol=1e-12)


def test_batched_non_finite_input_reports_its_timestep():
    # Pieces of 7 and 5 steps: step 4 of piece 1 is packed row 9, and
    # step 6 of piece 0, past the end of piece 1, is row 11.
    params = init_params(small_config())
    for piece, step in ((1, 4), (0, 6)):
        seqs = [np.zeros((7, 3)), np.zeros((5, 3))]
        seqs[piece][step] = np.inf
        with pytest.raises(NonFiniteActivation) as info:
            forward_sequence(params, *pack(seqs))
        assert info.value.timestep == step


@pytest.mark.parametrize("inputs", [np.zeros(3), np.zeros((0, 3))], ids=["1-D", "0-rows"])
def test_forward_refuses_inputs_that_are_not_rows(inputs):
    with pytest.raises(ValueError, match="non-empty"):
        forward_sequence(init_params(small_config()), inputs)


@pytest.mark.parametrize("batch_sizes", [[3, 0, 3], [2, 2, 1], [1] * 7, [2, 3, 1], [],
                                         [3.0, 2.0, 1.0], [[3, 2, 1]]])
def test_bad_batch_sizes_raise_length_mismatch(batch_sizes):
    # 6 rows: sizes must be positive integers, non-increasing, summing to 6.
    params = init_params(small_config())
    with pytest.raises(LengthMismatch):
        forward_sequence(params, np.zeros((6, 3)), np.array(batch_sizes))

