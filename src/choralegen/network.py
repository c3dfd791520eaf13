"""LSTM network: gated memory blocks, recurrent hidden layer, sigmoid outputs.

Variant: forget-gate LSTM without peepholes, one cell per block, tanh
cell-input and cell-output squashing. Recurrence runs from block outputs
only; the output layer reads block outputs plus bias. All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteActivation, ShapeMismatch

# Serialization (.chlf) and initial-draw order: gates input, forget, output,
# then cell candidate; per gate inputs-then-recurrent-then-bias; output
# layer last. The in-memory layout stacks the gates instead, in the order
# output, input, forget, cell candidate (NetworkParams).
PARAM_FIELDS = (
    "wx_i", "wh_i", "b_i",
    "wx_f", "wh_f", "b_f",
    "wx_o", "wh_o", "b_o",
    "wx_c", "wh_c", "b_c",
    "w_out", "b_out",
)


# Bounds the allocation a config file or model header can ask for.
MAX_PARAMS = 1 << 24

# A ufunc call takes a 0-d array operand faster than a Python float.
_HALF, _ONE = np.array(0.5), np.array(1.0)


@dataclass(frozen=True)
class NetworkConfig:
    num_inputs: int = 88
    num_blocks: int = 64
    num_outputs: int = 88
    rng_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if min(self.num_inputs, self.num_blocks, self.num_outputs) < 1:
            raise ValueError("layer sizes must be >= 1")
        if param_count(self) > MAX_PARAMS:
            raise ValueError(f"{param_count(self)} parameters exceed MAX_PARAMS = {MAX_PARAMS}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not 0 <= 2 * self.init_scale < np.inf:  # the width of init_params' draw
            raise ValueError("init_scale must be >= 0, with 2 * init_scale finite")


def param_count(config: NetworkConfig) -> int:
    return (4 * config.num_blocks * (config.num_inputs + config.num_blocks + 1)
            + config.num_outputs * (config.num_blocks + 1))


class NetworkParams:
    """All weights and biases in one contiguous float64 `vector`; also
    reused (zeroed) as a gradient container.

    The vector holds the stacked gate matrices w_x (4B, I), w_h (4B, B)
    and b (4B,), gate row blocks in the order o, i, f, c, followed by
    w_out (O, B) and b_out (O,). The per-gate arrays (wx_i, wh_f, b_c, ...)
    are views of those row blocks, so writes through any name land in
    `vector`. In that order the three sigmoid gates are one 3B block, and
    so are the three gates whose deltas scale with the cell-state error.
    """

    def __init__(self, vector: np.ndarray, num_inputs: int, num_blocks: int,
                 num_outputs: int):
        ni, nb, no = num_inputs, num_blocks, num_outputs
        sizes = (4 * nb * ni, 4 * nb * nb, 4 * nb, no * nb, no)
        if vector.shape != (sum(sizes),) or vector.dtype != np.float64:
            raise ShapeMismatch("flat vector length does not match parameter count")
        self.vector = vector
        self.num_inputs, self.num_blocks, self.num_outputs = ni, nb, no
        w_x, w_h, self.b, w_out, self.b_out = (
            vector[i - n : i] for n, i in zip(sizes, np.cumsum(sizes).tolist()))
        self.w_x, self.w_h = w_x.reshape(4 * nb, ni), w_h.reshape(4 * nb, nb)
        self.w_out = w_out.reshape(no, nb)
        self.wx_o, self.wx_i, self.wx_f, self.wx_c = w_x.reshape(4, nb, ni)
        self.wh_o, self.wh_i, self.wh_f, self.wh_c = w_h.reshape(4, nb, nb)
        self.b_o, self.b_i, self.b_f, self.b_c = self.b.reshape(4, nb)

    def arrays(self) -> list[np.ndarray]:
        """The 14 named views in PARAM_FIELDS (.chlf) order."""
        return [getattr(self, name) for name in PARAM_FIELDS]

    def size(self) -> int:
        return self.vector.size

    def zeros_like(self) -> "NetworkParams":
        return self.with_flat(np.zeros_like(self.vector))

    def flatten(self) -> np.ndarray:
        return self.vector.copy()

    def with_flat(self, flat: np.ndarray) -> "NetworkParams":
        """Same layer sizes around `flat` (in this layout; not copied)."""
        return NetworkParams(np.asarray(flat, dtype=np.float64), self.num_inputs,
                             self.num_blocks, self.num_outputs)

    def check_congruent(self, other: "NetworkParams"):
        mine = (self.num_inputs, self.num_blocks, self.num_outputs)
        theirs = (other.num_inputs, other.num_blocks, other.num_outputs)
        if mine != theirs:
            raise ShapeMismatch(f"layer sizes {mine} vs {theirs}")


def init_params(config: NetworkConfig) -> NetworkParams:
    """Draw weights uniformly from [-init_scale, +init_scale] with PCG64.

    Fields are filled in PARAM_FIELDS order from a single stream seeded
    by rng_seed, so identical configs give bit-identical parameters.
    Forget-gate biases start at +1.0 to keep early memory open; all
    other biases start at zero.
    """
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))
    params = NetworkParams(np.zeros(param_count(config)), config.num_inputs,
                           config.num_blocks, config.num_outputs)
    for name, view in zip(PARAM_FIELDS, params.arrays()):
        if not name.startswith("b"):
            view[...] = rng.uniform(-config.init_scale, config.init_scale, view.shape)
    params.b_f[...] = 1.0
    return params


def _sigmoid_of_negated(a: np.ndarray):
    """1/(1+exp(-x)) written into `a`, which holds -x, made exactly from the
    negated weights and bias. exp(-x) overflows to inf for x < -709, which
    correctly gives 0; the caller ignores that overflow."""
    np.exp(a, out=a)
    a += _ONE
    np.divide(_ONE, a, out=a)


def gate_views(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """The views `_lstm_cell` takes of gate array z (..., 4, a, B): z, its
    sigmoid block, then o, i, f and g. Zip those of a (steps, 4, a, B) array to step."""
    return (z, z[..., :3, :, :], *(z[..., k, :, :] for k in range(4)))


def _lstm_cell(pre: np.ndarray, views: tuple, c: np.ndarray, c_out: np.ndarray, h_out: np.ndarray):
    """One timestep of the LSTM equations, the only copy of them.

    `pre` holds the gate pre-activations, o, i and f halved, shaped as the
    gate array z (..., 4, a, B) that `views`, its `gate_views`, split; it may
    be z. z receives the activations: sigmoid o, i, f and tanh cell input.
    The new cell state f*c + i*g goes to `c_out` and the block output
    o*tanh(c_out) to `h_out`. The caller ignores overflow.

    One tanh covers all four gates, the sigmoid ones as
    1/(1+exp(-a)) = 1/2 + tanh(a/2)/2. Halving is exact, so +-inf and NaN
    map as the logistic maps them; the result is within 2.2e-16 of it.
    """
    z, sig, o, i, f, g = views
    np.tanh(pre, out=z)
    sig *= _HALF
    sig += _HALF
    np.multiply(f, c, out=c_out)
    np.multiply(i, g, out=h_out)  # h_out as scratch
    c_out += h_out
    np.tanh(c_out, out=h_out)
    h_out *= o


@dataclass
class ForwardTrace:
    """Everything exact BPTT needs: per-row activations in the packed layout
    of the inputs, and its `runs` as the forward validated them. `bptt.backward`
    spends the trace: it writes over gates, cell_states and y and sets `spent`."""

    x: np.ndarray            # (rows, num_inputs)
    gates: np.ndarray        # (rows, 4B): sigmoid o, i, f then tanh cell input
    cell_states: np.ndarray  # (rows, B)
    block_outputs: np.ndarray
    y: np.ndarray            # (rows, num_outputs) predictions in (0, 1)
    runs: list[tuple[int, int, int, int]]  # packed_runs of the forward's batch sizes
    spent: bool = False

    def __len__(self) -> int:
        return self.x.shape[0]


def packed_runs(batch_sizes, rows: int) -> list[tuple[int, int, int, int]]:
    """The runs of equal batch size of a packed layout of `rows` rows, as
    (first step, first row, steps, batch size) each; None is one sequence.

    Raises LengthMismatch unless the batch sizes are positive integers,
    non-increasing and summing to `rows`.
    """
    sizes = np.ones(rows, np.int64) if batch_sizes is None else np.asarray(batch_sizes)
    runs, first, row = [], 0, 0
    if sizes.ndim == 1 and sizes.dtype.kind in "iu" and sizes.size and sizes[-1] >= 1:
        for end in [*(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), sizes.size]:
            runs.append((first, row, end - first, int(sizes[first])))
            row += (end - first) * runs[-1][3]
            first = end
    # Neighbouring runs differ in size, so non-increasing means each is smaller.
    if not runs or row != rows or any(b[3] > a[3] for a, b in zip(runs, runs[1:])):
        raise LengthMismatch("batch sizes must be positive integers, non-increasing "
                             f"and summing to {rows}")
    return runs


def forward_sequence(params: NetworkParams, inputs: np.ndarray,
                     batch_sizes=None) -> ForwardTrace:
    """Run every sequence from the zero state (c and h all zero).

    `inputs` (rows, I) is one sequence, or with `batch_sizes` sequences
    packed time-major as `pianoroll.frame_pack` makes them: step t holds
    one row for each of the first `batch_sizes[t]` sequences, the longest
    first. The input projection and the output layer are one matrix
    product each over all rows; each step adds one recurrent product to
    its rows of the gate array, on a (batch size, ·) block. The gates are
    stored in the o, i, f, c order of NetworkParams, as rows of 4B.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise ValueError("inputs must be a non-empty (rows, num_inputs) array")
    runs = packed_runs(batch_sizes, len(inputs))
    nb, width = params.num_blocks, runs[0][3]
    cells = np.empty((len(inputs), nb))
    outputs = np.empty_like(cells)
    w_hT = params.w_h.T.copy()  # C-ordered; its sigmoid columns halved, as the gates' below
    w_hT[:, : 3 * nb] *= _HALF
    # NaN is reported below, by timestep.
    with np.errstate(over="ignore", invalid="ignore"):
        gates = inputs @ params.w_x.T
        gates += params.b
        gates[:, : 3 * nb] *= _HALF
        c = h = np.zeros((width, nb))
        scratch = np.empty((width, 4 * nb))
        for _, row, steps, a in runs:
            c, h, tmp = c[:a], h[:a], scratch[:a]
            pre = tmp.reshape(a, 4, nb).transpose(1, 0, 2)
            span = slice(row, row + steps * a)
            z_run, c_run, h_run = (v[span].reshape(steps, a, -1) for v in (gates, cells, outputs))
            blocks = z_run.reshape(steps, 4, a, nb)  # each step's gates, until the run ends
            for z, views, c_out, h_out in zip(z_run, zip(*gate_views(blocks)), c_run, h_run):
                np.dot(h, w_hT, out=tmp)
                tmp += z
                _lstm_cell(pre, views, c, c_out, h_out)
                c, h = c_out, h_out
            if a > 1:  # back to rows of 4B, a step at a time through tmp
                for z, block in zip(z_run, blocks):
                    pre[...] = block
                    z[...] = tmp
        y = outputs @ (-params.w_out).T
        y -= params.b_out
        _sigmoid_of_negated(y)
    finite = np.isfinite(cells).all(axis=1) & np.isfinite(y).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteActivation(next(first + (bad - row) // a
                                       for first, row, steps, a in runs
                                       if bad < row + steps * a))
    return ForwardTrace(inputs, gates, cells, outputs, y, runs)


# Kept only because perfbench/tracing.WORK traces it by name (ROADMAP item 1).
def forward_step(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The prediction for one input from the zero state."""
    return forward_sequence(params, np.asarray(x)[None]).y[0]

