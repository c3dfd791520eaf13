"""Exact gradients of the MSE loss by full backpropagation through time,
plus a central finite-difference oracle for verification."""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NonFiniteGradient, ShapeMismatch
from .network import ForwardTrace, NetworkParams, forward_sequence, mse_loss

# A gradient set is shape-congruent with the params it was computed for.
GradientSet = NetworkParams


def backward(params: NetworkParams, trace: ForwardTrace, targets: np.ndarray,
             loss_scale: float = 1.0) -> GradientSet:
    """dE/dtheta for E = loss_scale * mse_loss(trace.y, targets).

    Error flows through both the cell-state recurrence and the
    block-output recurrence across every timestep (no truncation). The
    loop carries only the gate deltas; the weight gradients are whole-
    sequence matrix products afterwards.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != trace.y.shape:
        raise LengthMismatch(f"targets {targets.shape} vs trace {trace.y.shape}")
    nb = params.num_blocks
    y = trace.y
    dz_y = loss_scale * 2.0 * (y - targets) / y.size * y * (1.0 - y)
    d_out = dz_y @ params.w_out  # output-layer error reaching each h_t

    i, f, o, g = (trace.gates[:, k * nb : (k + 1) * nb] for k in range(4))
    c_prev = np.vstack([trace.init_state.cell_states, trace.cell_states[:-1]])
    h_prev = np.vstack([trace.init_state.block_outputs, trace.block_outputs[:-1]])
    tc = np.tanh(trace.cell_states)
    dc_dh = o * (1.0 - tc * tc)
    # d(gate pre-activation) per unit of dc (i, f, c) or of dh (o); each
    # step below scales its row into that step's gate deltas.
    dz = np.hstack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                    tc * o * (1.0 - o), i * (1.0 - g * g)])
    dh_carry = np.zeros(nb)
    dc_carry = np.zeros(nb)
    for t in range(len(trace) - 1, -1, -1):
        dh = d_out[t] + dh_carry
        dc = dh * dc_dh[t] + dc_carry
        dz[t] *= np.concatenate([dc, dc, dh, dc])
        dh_carry = dz[t] @ params.w_h
        dc_carry = dc * f[t]

    grads = params.zeros_like()
    np.matmul(dz.T, trace.x, out=grads.w_x)
    np.matmul(dz.T, h_prev, out=grads.w_h)
    np.sum(dz, axis=0, out=grads.b)
    np.matmul(dz_y.T, trace.block_outputs, out=grads.w_out)
    np.sum(dz_y, axis=0, out=grads.b_out)
    if not np.isfinite(grads.vector).all():
        raise NonFiniteGradient("NaN/inf in gradient")
    return grads


def add_into(total: GradientSet, extra: GradientSet) -> GradientSet:
    """In-place elementwise sum; returns total."""
    total.check_congruent(extra)
    total.vector += extra.vector
    return total


def accumulate(grads: list[GradientSet]) -> GradientSet:
    """Elementwise sum in the given (corpus) order for bit-reproducibility."""
    if not grads:
        raise ShapeMismatch("nothing to accumulate")
    total = grads[0].zeros_like()
    for g in grads:
        add_into(total, g)
    return total


def finite_diff_gradient(params: NetworkParams, inputs: np.ndarray,
                         targets: np.ndarray, h: float = 1e-5) -> GradientSet:
    """Central difference (E(w+h) - E(w-h)) / 2h per parameter.

    Quadratic cost in parameter count; meant for small test networks.
    """
    if h <= 0:
        raise ValueError("h must be > 0")

    def loss(flat):
        p = params.with_flat(flat)
        return mse_loss(forward_sequence(p, inputs).y, targets)

    base = params.flatten()
    grad = np.zeros_like(base)
    for k in range(base.size):
        bumped = base.copy()
        bumped[k] = base[k] + h
        up = loss(bumped)
        bumped[k] = base[k] - h
        down = loss(bumped)
        grad[k] = (up - down) / (2.0 * h)
    return params.zeros_like().with_flat(grad)


def max_relative_error(analytic: GradientSet, numeric: GradientSet) -> float:
    """Max-norm relative disagreement: ||a - n||_inf / max(||a||_inf, ||n||_inf)."""
    a = analytic.flatten()
    n = numeric.flatten()
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(n))), 1e-12)
    return float(np.max(np.abs(a - n))) / scale
