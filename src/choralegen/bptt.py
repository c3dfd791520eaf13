"""Exact gradients of the MSE loss by backpropagation through time over one
sequence or a zero-padded stack of them, plus a central finite-difference
oracle for verification."""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NonFiniteGradient
from .network import ForwardTrace, NetworkParams, forward_sequence, mse_loss

# Rows per block of the weight-gradient sums. Each block is one matrix
# product whose reduction is short enough that OpenBLAS rounds it the same
# at every thread count; the blocks are then added in row order.
BLOCK_ROWS = 128


def _blocked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """out = a.T @ b, as a fixed-order sum over blocks of BLOCK_ROWS rows."""
    np.matmul(a[:BLOCK_ROWS].T, b[:BLOCK_ROWS], out=out)
    for r in range(BLOCK_ROWS, len(a), BLOCK_ROWS):
        out += a[r : r + BLOCK_ROWS].T @ b[r : r + BLOCK_ROWS]


def backward(params: NetworkParams, trace: ForwardTrace, targets: np.ndarray,
             loss_scale: float = 1.0, lengths=None,
             window: int | None = None) -> NetworkParams:
    """dE/dtheta for E = loss_scale * sum_n mse_n, mse_n being the mean
    squared error over the first T_n rows of sequence n.

    The trace is one sequence (T, ...) or N stacked step by step
    (T, N, ...); a 2-D trace runs as its N = 1 view. `lengths` holds each
    T_n (None: all T); rows past T_n add exactly zero. Error flows back
    through both recurrences across every timestep or, with a `window`,
    only within each chunk of `window` rows (truncated BPTT). The loop
    carries only the gate deltas; the weight gradients are blocked
    products over all rows afterwards.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != trace.y.shape:
        raise LengthMismatch(f"targets {targets.shape} vs trace {trace.y.shape}")
    steps, nb = len(trace), params.num_blocks
    x, gates, cells, outputs, y, targets = (
        a.reshape(steps, -1, a.shape[-1]) for a in
        (trace.x, trace.gates, trace.cell_states, trace.block_outputs, trace.y, targets))
    n = y.shape[1]
    lengths = np.full(n, steps) if lengths is None else np.asarray(lengths)
    if lengths.shape != (n,) or not np.all((lengths >= 1) & (lengths <= steps)):
        raise LengthMismatch(f"lengths {lengths.tolist()} for {n} sequences of {steps} rows")
    rows = lambda a: a.reshape(steps * n, -1)
    grads = params.zeros_like()

    # loss_scale * 2 (y - t) / (T_n * outputs) * y (1 - y), left to right.
    dz_y = np.subtract(y, targets)
    dz_y *= loss_scale * 2.0
    dz_y /= (lengths * params.num_outputs)[:, None]
    dz_y *= y
    dz_y *= 1.0 - y
    for k, length in enumerate(lengths):
        dz_y[length:, k] = 0.0
    _blocked_product(rows(dz_y), rows(outputs), grads.w_out)
    np.sum(rows(dz_y), axis=0, out=grads.b_out)
    d_out = (rows(dz_y) @ params.w_out).reshape(steps, n, nb)  # error reaching each h_t
    del dz_y

    # d(gate pre-activation) per unit of dh (o) or of dc (i, f, c); each
    # step below scales its row into that step's gate deltas. Gates and
    # deltas are in the o, i, f, c order of NetworkParams, so i, f and c
    # are one (3, B) block. Sigmoid gate s: (tanh c for o, g for i,
    # c_{t-1} for f) * s * (1 - s). Built in place, dz_c holding each
    # 1 - s, to bound the memory of a corpus.
    o, i, f, g = (gates[..., k * nb : (k + 1) * nb] for k in range(4))
    dz = np.empty_like(gates)
    dz_o, dz_i, dz_f, dz_c = (dz[..., k * nb : (k + 1) * nb] for k in range(4))
    tc = np.tanh(cells, out=dz_o)
    dc_dh = tc * tc
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dz_i[...] = g
    dz_f[0] = 0.0  # c_{-1} = 0
    dz_f[1:] = cells[:-1]
    dz[..., : 3 * nb] *= gates[..., : 3 * nb]
    for sig, dz_sig in ((o, dz_o), (i, dz_i), (f, dz_f)):
        np.subtract(1.0, sig, out=dz_c)
        dz_sig *= dz_c
    np.multiply(g, g, out=dz_c)
    np.subtract(1.0, dz_c, out=dz_c)
    dz_c *= i

    per_step = (d_out, dc_dh, f, dz_o, dz.reshape(steps, n, 4, nb)[:, :, 1:], dz)
    row = (n, nb)
    dh, dc, dh_carry, dc_carry = np.empty(row), np.empty(row), np.zeros(row), np.zeros(row)
    dc_ifc = dc[..., None, :]  # dc broadcast over the i, f and c rows
    for t, d_out_t, dc_dh_t, f_t, dz_o_t, dz_ifc_t, dz_t in zip(
            range(steps - 1, -1, -1), *(a[::-1] for a in per_step)):
        np.add(d_out_t, dh_carry, out=dh)
        np.multiply(dh, dc_dh_t, out=dc)
        dc += dc_carry
        dz_o_t *= dh
        dz_ifc_t *= dc_ifc
        np.dot(dz_t, params.w_h, out=dh_carry)
        np.multiply(dc, f_t, out=dc_carry)
        if window and t % window == 0:  # a chunk starts: no error crosses it
            dh_carry[...] = dc_carry[...] = 0.0
    del d_out, dc_dh, per_step, d_out_t, dc_dh_t  # the last rows' views hold their arrays

    h_prev = np.concatenate([np.zeros((n, nb)), rows(outputs)[:-n]])  # h_{-1} = 0
    _blocked_product(rows(dz), rows(x), grads.w_x)
    _blocked_product(rows(dz), h_prev, grads.w_h)
    np.sum(rows(dz), axis=0, out=grads.b)
    if not np.isfinite(grads.vector).all():
        raise NonFiniteGradient("NaN/inf in gradient")
    return grads


# Kept only because perfbench/tracing.WORK traces it by name (ROADMAP item 1).
def add_into(total: NetworkParams, extra: NetworkParams) -> NetworkParams:
    """In-place elementwise sum; returns total."""
    total.check_congruent(extra)
    total.vector += extra.vector
    return total


def finite_diff_gradient(params: NetworkParams, inputs: np.ndarray,
                         targets: np.ndarray, h: float = 1e-5,
                         lengths=None) -> NetworkParams:
    """Central difference (E(w+h) - E(w-h)) / 2h per parameter, of the loss
    `backward` differentiates: the sum over sequences of each one's MSE over
    its first T_n rows (`lengths`; None: all rows).

    Quadratic cost in parameter count; meant for small test networks.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    targets = np.asarray(targets, dtype=np.float64)
    targets = targets.reshape(len(inputs), -1, targets.shape[-1])
    lengths = [len(inputs)] * targets.shape[1] if lengths is None else lengths

    def loss(flat):
        y = forward_sequence(params.with_flat(flat), inputs).y.reshape(targets.shape)
        return sum(mse_loss(y[:m, k], targets[:m, k]) for k, m in enumerate(lengths))

    base = params.flatten()
    grad = np.zeros_like(base)
    for k in range(base.size):
        bumped = base.copy()
        bumped[k] = base[k] + h
        up = loss(bumped)
        bumped[k] = base[k] - h
        down = loss(bumped)
        grad[k] = (up - down) / (2.0 * h)
    return params.with_flat(grad)


def max_relative_error(analytic: NetworkParams, numeric: NetworkParams) -> float:
    """Max-norm relative disagreement: ||a - n||_inf / max(||a||_inf, ||n||_inf)."""
    a, n = analytic.vector, numeric.vector
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(n))), 1e-12)
    return float(np.max(np.abs(a - n))) / scale
