"""Training and generation orchestration.

Training is full batch with teacher forcing: every epoch forwards all
sequences, packed by length, on ground-truth inputs, backpropagates the
sum of their losses, and applies exactly one optimizer step. Generation feeds
thresholded predictions back as the next input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bptt import backward
from .errors import EmptyCorpus, NonFiniteActivation, NonFiniteGradient, NonFiniteLoss
from .metrics import frame_accuracy
from .network import NetworkParams, _lstm_cell, _sigmoid_of_negated, forward_sequence, gate_views
from .optim import (GDConfig, RPropConfig, RPropState, gd_step, rprop_init,
                    rprop_step)
from .pianoroll import MAX_STEPS, NUM_PITCHES, PianoRoll, frame_pack, frame_pairs


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    target_mse: float = 0.01
    truncation_window: int | None = None
    log_every: int = 25

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 < self.target_mse < 1:
            raise ValueError("target_mse must be in (0, 1)")
        if self.truncation_window is not None and self.truncation_window < 1:
            raise ValueError("truncation_window must be >= 1 (None for full BPTT)")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass
class TrainHistory:
    mse: list[float] = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False
    epoch_seconds: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class GenerationConfig:
    threshold: float = 0.9
    num_steps: int = 1
    seed_frames: int = 1
    feedback: str = "binary"  # or "raw"
    fallback: str = "silence"  # or "top_k"
    top_k: int = 4

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.feedback not in ("binary", "raw"):
            raise ValueError(f"unknown feedback mode {self.feedback!r}")
        if self.fallback not in ("silence", "top_k"):
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if min(self.seed_frames, self.top_k) < 1 or self.num_steps < 0:
            raise ValueError("seed_frames and top_k must be >= 1, num_steps >= 0")
        # The written roll holds the seed too; `quantize` reads back <= MAX_STEPS rows.
        if self.seed_frames + self.num_steps > MAX_STEPS:
            raise ValueError(f"seed_frames ({self.seed_frames}) + num_steps ({self.num_steps}) "
                             f"must be <= MAX_STEPS = {MAX_STEPS}")


def train(rolls: list[PianoRoll], params: NetworkParams,
          optimizer_config: RPropConfig | GDConfig, config: TrainConfig,
          loss_scale: float = 1.0,
          log=None) -> tuple[NetworkParams, TrainHistory]:
    """Batch-train until total MSE <= target_mse or max_epochs.

    Total MSE is the mean over all sequences' timestep x unit entries. The
    gradient is that of the sum of the per-sequence MSEs, so each piece
    weighs the same whatever its length. Every epoch runs the whole corpus
    packed by `frame_pack`, one row per real frame pair: one forward, whose
    MSE is recorded, then one backward and one update. The epoch at which
    the target is met runs neither. The update is RProp for an RPropConfig
    and gradient descent for a GDConfig.
    """
    if not rolls:
        raise EmptyCorpus("no training sequences")
    inputs, targets, batch_sizes = frame_pack(rolls)[:3]

    rprop_state: RPropState | None = None
    if isinstance(optimizer_config, RPropConfig):
        rprop_state = rprop_init(params, optimizer_config)

    history = TrainHistory()
    for epoch in range(config.max_epochs):
        start = time.perf_counter()
        try:
            trace = forward_sequence(params, inputs, batch_sizes)
            mse = float(np.sum((trace.y - targets) ** 2)) / targets.size
            history.converged = mse <= config.target_mse
            if not history.converged:  # the last epoch is scored, not differentiated
                grads = backward(params, trace, targets, loss_scale, config.truncation_window)
        except (NonFiniteActivation, NonFiniteGradient) as exc:
            raise NonFiniteLoss(epoch) from exc
        history.mse.append(mse)
        history.epochs_run = epoch + 1
        history.epoch_seconds.append(time.perf_counter() - start)
        if log and (epoch % config.log_every == 0 or history.converged):
            log(f"epoch {epoch:4d}  mse {mse:.6f}")
        if history.converged:
            break
        if rprop_state is not None:
            params, rprop_state = rprop_step(params, grads, rprop_state, optimizer_config)
        else:
            params = gd_step(params, grads, optimizer_config)
        # Freed only now, just before the next forward asks for the same
        # sizes: freed before the update, it let the update's temporaries
        # reshape the heap, and the next epoch faulted in 2.5x the pages.
        del trace
    return params, history


def format_history(history: TrainHistory) -> str:
    """Two-column table (epoch, mse) for external plotting."""
    lines = ["epoch\tmse"]
    for epoch, mse in enumerate(history.mse):
        lines.append(f"{epoch}\t{mse:.10g}")
    return "\n".join(lines) + "\n"


def generate(params: NetworkParams, seed_frames: np.ndarray,
             config: GenerationConfig) -> PianoRoll:
    """Feed the seed, then free-run for config.num_steps steps: threshold
    each prediction into a binary frame, append it, and feed it (or the
    raw probabilities) back. A network not NUM_PITCHES wide, or a finite
    seed value not 0 or 1, raises ValueError before the first step.

    One loop steps every row of the roll from the zero state, seed and
    continuation alike, each with one fused [w_x | w_h] @ [x; h] product
    into preallocated buffers. Finiteness is checked once at the end:
    `NonFiniteActivation` names the row whose input made the first bad value.
    """
    seed_frames = np.asarray(seed_frames, dtype=np.float64)
    ni, nb = params.num_inputs, params.num_blocks
    if ni != NUM_PITCHES or params.num_outputs != NUM_PITCHES:  # rows of the returned roll
        raise ValueError(f"layer sizes {ni}-{nb}-{params.num_outputs}, not {NUM_PITCHES} in and out")
    if seed_frames.ndim != 2 or not len(seed_frames) or seed_frames.shape[1] != ni:
        raise ValueError("seed must be a non-empty (S, num_inputs) array")
    s = len(seed_frames)
    if s + config.num_steps > MAX_STEPS:  # as GenerationConfig bounds seed_frames
        raise ValueError(f"seed ({s}) + num_steps ({config.num_steps}) > MAX_STEPS ({MAX_STEPS})")
    if not np.isin(seed_frames[np.isfinite(seed_frames)], (0.0, 1.0)).all():  # non-finite: below
        raise ValueError("finite seed values must be exactly 0.0 or 1.0")
    rows = np.empty((s + config.num_steps, ni))
    rows[:s] = seed_frames
    cells, ys = np.empty((len(rows), nb)), np.empty((len(rows), params.num_outputs))
    w, b = np.hstack([params.w_x, params.w_h]), params.b
    w_out, b_out = -params.w_out, params.b_out  # y holds -x until the sigmoid
    threshold, raw, hits = np.array(config.threshold), config.feedback == "raw", np.empty(ni, bool)
    top_k = config.top_k if config.fallback == "top_k" else 0
    xh = np.zeros(ni + nb)
    x, h, c = xh[:ni], xh[ni:], np.zeros(nb)
    z = np.empty(4 * nb)
    views = gate_views(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, frame in enumerate(rows):
            if t >= s:
                np.greater(y, threshold, out=hits)
                frame[...] = hits
                if top_k and not np.count_nonzero(hits):
                    frame[np.argsort(y)[-top_k:]] = 1.0
            x[...] = y if raw and t >= s else frame
            np.dot(w, xh, out=z)
            z += b
            _lstm_cell(views, c, cells[t], h)
            c, y = cells[t], ys[t]
            np.dot(w_out, h, out=y)
            y -= b_out
            _sigmoid_of_negated(y)
    finite = np.isfinite(cells).all(axis=1) & np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise NonFiniteActivation(int(np.argmin(finite)))
    return PianoRoll(rows, source_id="generated")


def reconstruct(params: NetworkParams, original: PianoRoll,
                config: GenerationConfig) -> tuple[PianoRoll, float]:
    """Seed with the opening frames, free-run to the original's length,
    and score the result with frame-level accuracy."""
    frame_pairs(original)  # TooShort below 2 frames
    seed = original.frames[: config.seed_frames]
    rendition = generate(params, seed, replace(config, num_steps=len(original) - len(seed)))
    accuracy = frame_accuracy([(rendition.frames, original.frames)])
    return rendition, accuracy
