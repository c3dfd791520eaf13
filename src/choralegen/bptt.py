"""Exact gradients of the MSE loss by backpropagation through time over one
sequence or a packed corpus of them, plus a central finite-difference
oracle for verification."""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, NonFiniteGradient
from .network import ForwardTrace, NetworkParams, forward_sequence, gate_views

# Rows per block of the weight-gradient sums. Each block is one matrix
# product whose reduction is short enough that OpenBLAS rounds it the same
# at every thread count; the blocks are then added in row order.
BLOCK_ROWS = 128


def _blocked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """out = a.T @ b, as a fixed-order sum over blocks of BLOCK_ROWS rows."""
    np.matmul(a[:BLOCK_ROWS].T, b[:BLOCK_ROWS], out=out)
    for r in range(BLOCK_ROWS, len(a), BLOCK_ROWS):
        out += a[r : r + BLOCK_ROWS].T @ b[r : r + BLOCK_ROWS]


def _previous_rows(values: np.ndarray, runs, out: np.ndarray):
    """Write into `out` each packed row's predecessor, the same sequence's
    row one step earlier (0.0 at step 0): at most two slices per run."""
    before = 0
    for _, row, steps, a in runs:
        out[row : row + a] = values[row - before : row - before + a] if row else 0.0
        out[row + a : row + steps * a] = values[row : row + (steps - 1) * a]
        before = a


def backward(params: NetworkParams, trace: ForwardTrace, targets: np.ndarray,
             loss_scale: float = 1.0, window: int | None = None) -> NetworkParams:
    """dE/dtheta for E = loss_scale * sum_n mse_n, mse_n being the mean
    squared error over the T_n rows of sequence n.

    The trace holds one sequence or a packed corpus, in the runs its
    forward validated; `targets` has its row layout. Error flows back
    through both recurrences across every timestep or, with a `window`,
    only within each chunk of `window` steps (truncated BPTT).
    The loop carries only the gate deltas, held in the trace's gate rows;
    the weight gradients are blocked products over all rows afterwards.
    The trace is spent (see `ForwardTrace`): a second backward raises.
    """
    if trace.spent:
        raise ValueError("this trace was consumed by an earlier backward")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != trace.y.shape:
        raise LengthMismatch(f"targets {targets.shape} vs trace {trace.y.shape}")
    trace.spent = True
    nb, runs = params.num_blocks, trace.runs
    x, cells, outputs, y = trace.x, trace.cell_states, trace.block_outputs, trace.y
    grads = params.zeros_like()
    # A NaN or inf is reported below, from the gradient.
    with np.errstate(over="ignore", invalid="ignore"):
        # loss_scale * 2 (y - t) / (T_n * outputs) * y (1 - y), left to right.
        dz_y = np.subtract(y, targets)
        dz_y *= loss_scale * 2.0
        per_piece = np.empty((runs[0][3], 1))  # T_k * outputs, longest sequence first
        for first, _, steps, a in runs:
            per_piece[:a] = (first + steps) * params.num_outputs
        for _, row, steps, a in runs:
            run = dz_y[row : row + steps * a].reshape(steps, a, -1)
            run /= per_piece[:a]
        dz_y *= y
        dz_y *= np.subtract(1.0, y, out=y)
        _blocked_product(dz_y, outputs, grads.w_out)
        np.sum(dz_y, axis=0, out=grads.b_out)
        d_out = dz_y @ params.w_out  # error reaching each h_t
        del dz_y, run  # run is a view of dz_y

        # The gate rows become deltas per unit of dh (o) or dc (i, f, c), which
        # each step below scales: (1 - s) * (x * s) for sigmoid gate s, x being
        # c_{t-1}, tanh c or g for f, o or i, and (1 - g^2) * i. Cells are scratch.
        dz = trace.gates
        _, _, o, i, f, g = gate_views(dz.reshape(-1, 4, nb).swapaxes(0, 1))
        f_carry, dc_dh = f.copy(), np.empty_like(cells)
        _previous_rows(cells, runs, dc_dh)  # c_{t-1}, c_{-1} = 0
        dc_dh *= f
        np.subtract(1.0, f, out=f)
        f *= dc_dh
        tc = np.tanh(cells, out=cells)
        np.multiply(tc, tc, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        tc *= o
        np.subtract(1.0, o, out=o)
        o *= tc
        gi = np.multiply(g, i, out=cells)
        g *= g
        np.subtract(1.0, g, out=g)
        g *= i
        np.subtract(1.0, i, out=i)
        i *= gi

        # Sequences run longest first, so walking the runs backward the batch
        # only grows; the carries of a sequence that ends in a run start at 0.
        carried = np.zeros((4, runs[0][3], nb))
        for first, row, steps, a in reversed(runs):
            dh, dc, dh_carry, dc_carry = carried[:, :a]
            dc_ifc = dc[..., None, :]  # dc broadcast over the i, f and c rows
            d_out_r, dc_dh_r, f_r, dz_o_r, dz_r = (v[row : row + steps * a].reshape(steps, a, -1)
                                                   for v in (d_out, dc_dh, f_carry, o, dz))
            per_step = (d_out_r, dc_dh_r, f_r, dz_o_r, dz_r.reshape(steps, a, 4, nb)[:, :, 1:], dz_r)
            for t, d_out_t, dc_dh_t, f_t, dz_o_t, dz_ifc_t, dz_t in zip(
                    range(first + steps - 1, first - 1, -1), *(v[::-1] for v in per_step)):
                np.add(d_out_t, dh_carry, out=dh)
                np.multiply(dh, dc_dh_t, out=dc)
                dc += dc_carry
                dz_o_t *= dh
                dz_ifc_t *= dc_ifc
                np.dot(dz_t, params.w_h, out=dh_carry)
                np.multiply(dc, f_t, out=dc_carry)
                if window and t % window == 0:  # a chunk starts: no error crosses it
                    dh_carry[...] = dc_carry[...] = 0.0

        _blocked_product(dz, x, grads.w_x)
        _previous_rows(outputs, runs, d_out)  # h_{t-1}, h_{-1} = 0, over the spent d_out
        _blocked_product(dz, d_out, grads.w_h)
        np.sum(dz, axis=0, out=grads.b)
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
                         targets: np.ndarray, h: float = 1e-5) -> NetworkParams:
    """Central difference (E(w+h) - E(w-h)) / 2h per parameter of one
    sequence's MSE, the loss `backward` differentiates for it. A packed
    corpus's gradient is the sum of its pieces' gradients.

    Quadratic cost in parameter count; meant for small test networks.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    targets = np.asarray(targets, dtype=np.float64)

    def loss(flat):
        y = forward_sequence(params.with_flat(flat), inputs).y
        return float(np.mean((y - targets) ** 2))

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
