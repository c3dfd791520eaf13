"""Multi-label scoring: per-piece precision/recall/F1 and corpus
frame-level accuracy (sum TP / sum(TP + FP + FN))."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, ShapeMismatch
from .network import NetworkParams, forward_sequence
from .pianoroll import PianoRoll, frame_pack


@dataclass
class PieceScore:
    source_id: str
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    pieces: list[PieceScore]
    macro_f1: float
    frame_accuracy: float


def _count(predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The int64 triple [TP, FP, FN] over all (step, pitch) cells."""
    if predicted.shape != target.shape:
        raise ShapeMismatch(f"{predicted.shape} vs {target.shape}")
    pred_on = predicted > 0.5
    targ_on = target > 0.5
    tp = np.count_nonzero(pred_on & targ_on)
    return np.array([tp, np.count_nonzero(pred_on) - tp, np.count_nonzero(targ_on) - tp],
                    dtype=np.int64)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of these counts (see `piece_prf`)."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if not precision + recall:
        return precision, recall, 0.0
    # Rounding can put 2PR/(P+R) one ulp outside [min(P, R), max(P, R)].
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, min(max(f1, min(precision, recall)), max(precision, recall))


def _accuracy(tp: int, fp: int, fn: int) -> float:
    """TP / (TP + FP + FN); empty tallies count as perfect."""
    denom = tp + fp + fn
    return tp / denom if denom else 1.0


def piece_prf(predicted: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """P = |T∩S|/|S|, R = |T∩S|/|T|, F1 = 2PR/(P+R) over (step, pitch) cells.

    Conventions: empty prediction set gives P = 0; empty target set gives
    R = 0; P + R = 0 gives F1 = 0.
    """
    return _prf(*_count(np.asarray(predicted), np.asarray(target)).tolist())


def frame_accuracy(pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Acc over every frame of every piece; empty tallies count as perfect."""
    return _accuracy(*sum((_count(np.asarray(p), np.asarray(t)) for p, t in pairs),
                          np.zeros(3, dtype=np.int64)).tolist())


def evaluate(params: NetworkParams, test_rolls: list[PianoRoll],
             threshold: float = 0.9) -> EvalReport:
    """Teacher-forced one-step-ahead scoring: each input frame is ground
    truth, the thresholded prediction is scored against the next frame.

    The pieces run packed by `frame_pack`, one row per real frame pair, and
    are scored on their own frames, listed in the caller's order.
    """
    if not test_rolls:
        raise EmptyCorpus("empty test split")
    inputs, targets, batch_sizes, rows = frame_pack(test_rolls)
    del targets  # ragged, a frame array as large as the inputs, and not needed
    hits = forward_sequence(params, inputs, batch_sizes).y > threshold
    counts = np.array([_count(hits[r], roll.frames[1:]) for roll, r in zip(test_rolls, rows)])
    pieces = [PieceScore(roll.source_id, *_prf(*c.tolist()))
              for roll, c in zip(test_rolls, counts)]
    return EvalReport(pieces, float(np.mean([s.f1 for s in pieces])),
                      _accuracy(*counts.sum(axis=0).tolist()))


def format_report(report: EvalReport, model: str) -> str:
    """Plain-text table: model name, accuracy %, F1 %, then per piece."""
    lines = [f"{'model':<10} {'Accuracy':>10} {'F1 score':>10}",
             f"{model:<10} {report.frame_accuracy * 100:>9.2f}% "
             f"{report.macro_f1 * 100:>9.2f}%",
             "",
             f"{'piece':<30} {'P':>7} {'R':>7} {'F1':>7}"]
    for s in report.pieces:
        lines.append(f"{s.source_id:<30} {s.precision:>7.4f} {s.recall:>7.4f} {s.f1:>7.4f}")
    return "\n".join(lines)
