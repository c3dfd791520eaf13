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


def _sigmoid_inplace(a: np.ndarray):
    """1/(1+exp(-a)) written into `a`. exp(-a) overflows to inf for
    a < -709, which correctly gives 0; the caller ignores that overflow."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


def _lstm_cell(z: np.ndarray, c: np.ndarray, c_out: np.ndarray, h_out: np.ndarray):
    """One timestep of the LSTM equations, the only copy of them.

    `z` holds the gate pre-activations (..., 4B) in the order o, i, f, c
    and is overwritten with the activations: sigmoid o, i, f and tanh cell
    input. The new cell state f*c + i*g goes to `c_out` and the block
    output o*tanh(c_out) to `h_out`. The caller ignores overflow.

    One tanh covers all four gates, the sigmoid ones as
    1/(1+exp(-a)) = 1/2 + tanh(a/2)/2. Halving is exact, so +-inf and NaN
    map as the logistic maps them; the result is within 2.2e-16 of it.
    """
    nb = c_out.shape[-1]
    sig = z[..., : 3 * nb]
    sig *= 0.5
    np.tanh(z, out=z)
    sig *= 0.5
    sig += 0.5
    np.multiply(z[..., 2 * nb : 3 * nb], c, out=c_out)
    np.multiply(z[..., nb : 2 * nb], z[..., 3 * nb :], out=h_out)  # i*g, h_out as scratch
    c_out += h_out
    np.tanh(c_out, out=h_out)
    h_out *= z[..., :nb]


@dataclass
class ForwardTrace:
    """Per-timestep activations, everything exact BPTT needs. For a
    (T, N, I) stack every array has the (T, N) leading axes."""

    x: np.ndarray            # (T, num_inputs)
    gates: np.ndarray        # (T, 4B): sigmoid o, i, f then tanh cell input
    cell_states: np.ndarray  # (T, B)
    block_outputs: np.ndarray
    y: np.ndarray            # (T, num_outputs) predictions in (0, 1)

    def __len__(self) -> int:
        return self.x.shape[0]


def forward_sequence(params: NetworkParams, inputs: np.ndarray) -> ForwardTrace:
    """Run the whole sequence from the zero state (c and h all zero).

    `inputs` is one sequence (T, I) or N sequences stacked step by step
    (T, N, I); every array of the trace then has the same leading axes.
    The input projection of all timesteps is one matrix product; each step
    then adds one recurrent product into its row of the gate array. The
    gates are stored in the o, i, f, c order of NetworkParams. With N = 1
    the steps run on 1-D rows, whose numpy calls cost less than on (1, .)
    rows.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim not in (2, 3) or inputs.shape[0] < 1:
        raise ValueError("inputs must be a non-empty (T, num_inputs) or "
                         "(T, N, num_inputs) array")
    nb, steps = params.num_blocks, len(inputs)
    lead = inputs.shape[:-1]
    cells = np.empty(lead + (nb,))
    outputs = np.empty(lead + (nb,))
    w_hT = np.ascontiguousarray(params.w_h.T)
    # NaN is reported below, by timestep.
    with np.errstate(over="ignore", invalid="ignore"):
        gates = inputs.reshape(-1, inputs.shape[-1]) @ params.w_x.T
        gates += params.b
        gates = gates.reshape(lead + (4 * nb,))
        one_row = inputs[0].size == inputs.shape[-1]
        rows = [a.reshape(steps, -1) if one_row else a for a in (gates, cells, outputs)]
        c = h = np.zeros(rows[1].shape[1:])
        tmp = np.empty(rows[0].shape[1:])
        for z, c_out, h_out in zip(*rows):
            np.dot(h, w_hT, out=tmp)
            z += tmp
            _lstm_cell(z, c, c_out, h_out)
            c, h = c_out, h_out
        y = outputs.reshape(-1, nb) @ params.w_out.T
        y += params.b_out
        _sigmoid_inplace(y)
    y = y.reshape(lead + (params.num_outputs,))
    finite = (np.isfinite(cells.reshape(steps, -1)).all(axis=1)
              & np.isfinite(y.reshape(steps, -1)).all(axis=1))
    if not finite.all():
        raise NonFiniteActivation(int(np.argmin(finite)))
    return ForwardTrace(inputs, gates, cells, outputs, y)


# Kept only because perfbench/tracing.WORK traces it by name (ROADMAP item 1).
def forward_step(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The prediction for one input from the zero state."""
    return forward_sequence(params, np.asarray(x)[None]).y[0]


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over all timestep x unit entries."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise LengthMismatch(f"{predictions.shape} vs {targets.shape}")
    return float(np.mean((predictions - targets) ** 2))
