import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choralegen.errors import ShapeMismatch
from choralegen.network import NetworkConfig, init_params
from choralegen.optim import (GDConfig, RPropConfig, gd_step, rprop_init,
                              rprop_step)

from conftest import traced_peak


def make_params(seed=0, nb=3):
    return init_params(NetworkConfig(num_inputs=2, num_blocks=nb,
                                     num_outputs=2, rng_seed=seed,
                                     init_scale=0.3))


def grad_like(params, value):
    g = params.zeros_like()
    for a in g.arrays():
        a += value
    return g


def test_init_step_sizes():
    params = make_params()
    state = rprop_init(params, RPropConfig())
    for vector in (state.step_sizes, state.prev_grad_sign):
        assert isinstance(vector, np.ndarray) and vector.shape == (params.size(),)
    assert np.all(state.step_sizes == 0.1)
    assert np.all(state.prev_grad_sign == 0)


def test_first_step_magnitude_independent_of_gradient():
    config = RPropConfig()
    params = make_params()
    for magnitude in (1e-8, 1.0, 1e8):
        new, _ = rprop_step(params, grad_like(params, magnitude),
                            rprop_init(params, config), config)
        assert np.array_equal(new.flatten(),
                              params.flatten() - config.delta_zero)


def test_zero_gradient_entry_frozen():
    config = RPropConfig()
    params = make_params()
    g = grad_like(params, 0.0)
    g.b_out[0] = 1.0
    new, state = rprop_step(params, g, rprop_init(params, config), config)
    moved = new.flatten() != params.flatten()
    assert moved.sum() == 1
    assert np.all(state.step_sizes == config.delta_zero)


def test_repeated_sign_grows_step():
    config = RPropConfig()
    params = make_params()
    state = rprop_init(params, config)
    g = grad_like(params, 0.5)
    p1, state = rprop_step(params, g, state, config)
    p2, state = rprop_step(p1, g, state, config)
    assert np.allclose(p1.flatten() - p2.flatten(), 0.1 * 1.2)
    assert np.all(state.step_sizes == pytest.approx(0.12))


def test_sign_flip_shrinks_step():
    config = RPropConfig()
    params = make_params()
    state = rprop_init(params, config)
    _, state = rprop_step(params, grad_like(params, 1.0), state, config)
    _, state = rprop_step(params, grad_like(params, -1.0), state, config)
    assert np.all(state.step_sizes == pytest.approx(0.05))


def test_step_size_bounds_hold():
    config = RPropConfig(delta_zero=1.0, delta_min=0.5, delta_max=2.0)
    params = make_params()
    state = rprop_init(params, config)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(30):
        g = params.zeros_like().with_flat(rng.normal(size=params.size()))
        params, state = rprop_step(params, g, state, config)
    flat = state.step_sizes.flatten()
    assert np.all(flat >= config.delta_min) and np.all(flat <= config.delta_max)


def test_update_magnitude_equals_step_size():
    config = RPropConfig()
    params = make_params()
    state = rprop_init(params, config)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(5):
        g = params.zeros_like().with_flat(rng.normal(size=params.size()))
        new, state = rprop_step(params, g, state, config)
        step = np.where(g.flatten() != 0, state.step_sizes.flatten(), 0.0)
        expected = params.flatten() - np.sign(g.flatten()) * step
        assert np.array_equal(new.flatten(), expected)
        params = new


def test_gradient_scale_invariance_bitwise():
    config = RPropConfig()
    rng = np.random.Generator(np.random.PCG64(5))
    grads = [rng.normal(size=make_params().size()) for _ in range(20)]

    def run(scale):
        params = make_params()
        state = rprop_init(params, config)
        for flat in grads:
            g = params.zeros_like().with_flat(scale * flat)
            params, state = rprop_step(params, g, state, config)
        return params.flatten()

    assert np.array_equal(run(1.0), run(3.7))


def test_backtracking_reverts_on_sign_flip():
    config = RPropConfig(variant="with_backtracking")
    params = make_params()
    state = rprop_init(params, config)
    p1, state = rprop_step(params, grad_like(params, 1.0), state, config)
    p2, state = rprop_step(p1, grad_like(params, -1.0), state, config)
    # revert undoes the previous -0.1 step; flipped sign is zeroed so no new move
    assert np.allclose(p2.flatten(), params.flatten())
    assert np.all(state.prev_grad_sign == 0)


def test_gd_zero_gradient_no_change():
    params = make_params()
    new = gd_step(params, params.zeros_like(), GDConfig())
    assert np.array_equal(new.flatten(), params.flatten())


def test_gd_step_definition():
    params = make_params()
    new = gd_step(params, grad_like(params, 2.0), GDConfig(learning_rate=0.01))
    assert np.allclose(params.flatten() - new.flatten(), 0.02)


def test_gd_linear_in_gradient():
    params = make_params()
    g = grad_like(params, 0.3)
    g10 = grad_like(params, 3.0)
    d1 = params.flatten() - gd_step(params, g, GDConfig()).flatten()
    d10 = params.flatten() - gd_step(params, g10, GDConfig()).flatten()
    assert np.allclose(d10, 10 * d1)


def test_shape_mismatch_rejected():
    params = make_params(nb=3)
    with pytest.raises(ShapeMismatch):
        gd_step(params, make_params(nb=4).zeros_like(), GDConfig())
    with pytest.raises(ShapeMismatch):
        rprop_step(params, make_params(nb=4).zeros_like(),
                   rprop_init(params, RPropConfig()), RPropConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        RPropConfig(delta_zero=0.0)
    with pytest.raises(ValueError):
        RPropConfig(eta_minus=1.5)
    with pytest.raises(ValueError):
        GDConfig(learning_rate=0.0)


def masked_rprop_step(w, grad, step_sizes, prev_sign, prev_delta, config):
    """The update in masked form, one gather and scatter per case: the oracle
    for `rprop_step`. Backtracking reverts the weight change it stored, as
    Rprop+ is usually written. Returns new weights, step sizes, signs and
    that change."""
    w, delta = w.copy(), step_sizes.copy()
    sign = np.sign(grad)
    agree = prev_sign * sign
    grew, flipped = agree > 0, agree < 0
    delta[grew] = np.minimum(delta[grew] * config.eta_plus, config.delta_max)
    delta[flipped] = np.maximum(delta[flipped] * config.eta_minus, config.delta_min)
    if config.variant == "with_backtracking":
        w[flipped] -= prev_delta[flipped]
        sign = np.where(flipped, 0.0, sign)
    dw = -delta * sign
    w += dw
    return w, delta, sign, dw


def mixed_gradients(seed, size, num_steps):
    """Per entry, one pattern for the whole run: always zero, one repeated
    sign, alternating signs, or random signs with zeros; magnitudes vary."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pattern = rng.integers(0, 4, size)
    first = rng.choice([-1.0, 1.0], size)
    for k in range(num_steps):
        sign = np.select([pattern == 0, pattern == 1, pattern == 2],
                         [0.0, first, first * (-1.0) ** k],
                         rng.choice([-1.0, 0.0, 1.0], size))
        yield sign * 10.0 ** rng.uniform(-8, 8, size)


PINNING = dict(delta_min=0.05, delta_max=0.12, eta_plus=1.2, eta_minus=0.5)


@settings(max_examples=150, deadline=None)
@given(st.builds(RPropConfig, delta_min=st.sampled_from([1e-6, 0.05, 0.1]),
                 delta_max=st.sampled_from([0.1, 0.12, 50.0]),
                 eta_plus=st.sampled_from([1.2, 1.5, 3.0]),
                 eta_minus=st.sampled_from([0.3, 0.5, 0.9]),
                 variant=st.sampled_from(["plain", "with_backtracking"])),
       st.integers(0, 2**32 - 1), st.integers(1, 10))
@example(RPropConfig(**PINNING), 0, 10)
@example(RPropConfig(**PINNING, variant="with_backtracking"), 0, 10)
def test_rprop_step_matches_masked_reference(config, seed, num_steps):
    params = make_params(seed % 5)
    state = rprop_init(params, config)
    expected = (params.vector, state.step_sizes, state.prev_grad_sign,
                np.zeros(params.size()))
    for grad in mixed_gradients(seed, params.size(), num_steps):
        params, state = rprop_step(params, params.with_flat(grad), state, config)
        expected = masked_rprop_step(expected[0], grad, *expected[1:], config)
        got = (params.vector, state.step_sizes, state.prev_grad_sign)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in expected[:3]]


@pytest.mark.parametrize("variant", ["plain", "with_backtracking"])
def test_mixed_gradients_pin_steps_at_both_bounds(variant):
    # The examples above reach delta_min and delta_max, so the clip is exercised.
    config = RPropConfig(**PINNING, variant=variant)
    params = make_params()
    state = rprop_init(params, config)
    for grad in mixed_gradients(0, params.size(), 10):
        params, state = rprop_step(params, params.with_flat(grad), state, config)
    assert np.any(state.step_sizes == config.delta_min)
    assert np.any(state.step_sizes == config.delta_max)


@pytest.mark.parametrize("variant", ["plain", "with_backtracking"])
def test_rprop_step_leaves_its_inputs_unchanged(variant):
    # `train` and the benchmark pass the same initial parameters on every call.
    config = RPropConfig(variant=variant)
    params = make_params()
    grads = list(mixed_gradients(7, params.size(), 2))
    _, state = rprop_step(params, params.with_flat(grads[0]), rprop_init(params, config),
                          config)
    inputs = (params.vector, grads[1], state.step_sizes, state.prev_grad_sign)
    before = [a.tobytes() for a in inputs]
    rprop_step(params, params.with_flat(grads[1]), state, config)
    assert [a.tobytes() for a in inputs] == before


@pytest.mark.parametrize("variant, vectors", [("plain", 4.2), ("with_backtracking", 5.3)])
def test_rprop_step_peak_memory_in_parameter_vectors(variant, vectors):
    # The update returns three vectors (weights, steps, signs) and works in
    # one more, plus bool masks; backtracking adds the undone move.
    config = RPropConfig(variant=variant)
    params = init_params(NetworkConfig(num_blocks=64))
    first, second = mixed_gradients(3, params.size(), 2)
    _, state = rprop_step(params, params.with_flat(first), rprop_init(params, config), config)
    peak = traced_peak(rprop_step, params, params.with_flat(second), state, config)
    assert peak <= vectors * params.vector.nbytes
