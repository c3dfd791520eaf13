"""Computations made apart from the program, used to check its outputs.

The LSTM forward here is written from the equations in the `network` module
docstring (forget-gate LSTM without peepholes, one cell per block, tanh cell
input and output squashing, recurrence from block outputs only, logistic
output layer). It shares no code with `network`: the four gates are stacked
into one matrix and the input projection is one product over the sequence.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# The 14 parameter groups in `.chlf` payload order.
GROUPS = ("wx_i", "wh_i", "b_i", "wx_f", "wh_f", "b_f", "wx_o", "wh_o", "b_o",
          "wx_c", "wh_c", "b_c", "w_out", "b_out")


def weights_of(params) -> dict[str, np.ndarray]:
    return {name: np.array(getattr(params, name), dtype=np.float64) for name in GROUPS}


def _logistic(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def forward(w: dict[str, np.ndarray], inputs: np.ndarray) -> np.ndarray:
    """Predictions (T, outputs) from a zero initial state."""
    nb = w["wx_i"].shape[0]
    wx = np.vstack([w["wx_i"], w["wx_f"], w["wx_o"], w["wx_c"]])
    wh = np.vstack([w["wh_i"], w["wh_f"], w["wh_o"], w["wh_c"]])
    bias = np.concatenate([w["b_i"], w["b_f"], w["b_o"], w["b_c"]])
    zx = inputs @ wx.T + bias
    h, c = np.zeros(nb), np.zeros(nb)
    hs = np.empty((inputs.shape[0], nb))
    for t in range(inputs.shape[0]):
        z = zx[t] + wh @ h
        gates = _logistic(z[: 3 * nb])
        c = gates[nb : 2 * nb] * c + gates[:nb] * np.tanh(z[3 * nb :])
        h = gates[2 * nb :] * np.tanh(c)
        hs[t] = h
    return _logistic(hs @ w["w_out"].T + w["b_out"])


def corpus_mse(w: dict[str, np.ndarray], rolls: list[np.ndarray]) -> float:
    """Mean squared next-frame error over every entry of every roll."""
    sq = sum(float(np.sum((forward(w, r[:-1]) - r[1:]) ** 2)) for r in rolls)
    return sq / sum(r[1:].size for r in rolls)


def gradient_check(params, grads, roll: np.ndarray, rng: np.random.Generator,
                   per_group: int = 3, h: float = 1e-5) -> float:
    """Relative disagreement between `grads` (the program's gradient of the
    roll's MSE) and central differences of the reference loss, at
    `per_group` seeded coordinates of each of the 14 groups. Scaled by the
    largest gradient entry overall, as the program's own oracle scales."""
    w = weights_of(params)
    analytic = weights_of(grads)
    scale = max(max(float(np.max(np.abs(a))) for a in analytic.values()), 1e-12)
    worst = 0.0
    for name in GROUPS:
        for flat in rng.choice(w[name].size, size=min(per_group, w[name].size), replace=False):
            idx = np.unravel_index(int(flat), w[name].shape)
            base = w[name][idx]
            w[name][idx] = base + h
            up = corpus_mse(w, [roll])
            w[name][idx] = base - h
            down = corpus_mse(w, [roll])
            w[name][idx] = base
            numeric = (up - down) / (2.0 * h)
            scale = max(scale, abs(numeric))
            worst = max(worst, abs(numeric - analytic[name][idx]))
    return worst / scale


def threshold_frame(y: np.ndarray, threshold: float, top_k: int | None) -> np.ndarray:
    frame = np.array([1.0 if v > threshold else 0.0 for v in y])
    if top_k and not frame.any():
        for j in sorted(range(len(y)), key=lambda j: y[j])[-top_k:]:
            frame[j] = 1.0
    return frame


def free_run_mismatches(w, rows: np.ndarray, seed_len: int, threshold: float,
                        top_k: int | None, margin: float = 1e-9) -> int:
    """Frames after the seed that differ from thresholding the reference
    prediction made from the frames before them. A frame with an output
    within `margin` of the threshold is exempt, as is a top-k fallback
    frame whose k-th and (k+1)-th outputs are that close."""
    y = forward(w, rows[:-1])
    bad = 0
    for t in range(seed_len, rows.shape[0]):
        prev = y[t - 1]
        if np.any(np.abs(prev - threshold) < margin):
            continue
        if top_k and not np.any(prev > threshold):
            ranked = np.sort(prev)
            if ranked[-top_k] - ranked[-top_k - 1] < margin:
                continue
        bad += not np.array_equal(threshold_frame(prev, threshold, top_k), rows[t])
    return bad


def brute_counts(predicted: np.ndarray, target: np.ndarray) -> tuple[int, int, int]:
    """(TP, FP, FN) over every (step, pitch) cell, one cell at a time."""
    tp = fp = fn = 0
    for prow, trow in zip(predicted.tolist(), target.tolist()):
        for p, t in zip(prow, trow):
            if p and t:
                tp += 1
            elif p:
                fp += 1
            elif t:
                fn += 1
    return tp, fp, fn


def accuracy_of(counts) -> float:
    tp, fp, fn = counts
    return tp / (tp + fp + fn) if tp + fp + fn else 1.0


def f1_of(counts) -> float:
    tp, fp, fn = counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def chlf_problems(data: bytes, w: dict[str, np.ndarray]) -> list[str]:
    """Check `.chlf` bytes against the documented layout: magic, version 1,
    layer sizes, parameter count, float64 payload in group order, CRC-32."""
    nb, ni = w["wx_i"].shape
    no = w["w_out"].shape[0]
    count = 4 * nb * (ni + nb + 1) + no * (nb + 1)
    problems = []
    if len(data) != 4 + 24 + 8 * count + 4:
        return [f"length {len(data)} != {4 + 24 + 8 * count + 4}"]
    if data[:4] != b"CHLF":
        problems.append("magic")
    if struct.unpack("<IIIIQ", data[4:28]) != (1, ni, nb, no, count):
        problems.append("header")
    if zlib.crc32(data[4:-4]) != int.from_bytes(data[-4:], "little"):
        problems.append("crc")
    payload = b"".join(w[name].astype("<f8").tobytes() for name in GROUPS)
    if data[28:-4] != payload:
        problems.append("payload")
    return problems
