"""Multi-label scoring: per-piece precision/recall/F1 and corpus
frame-level accuracy (sum TP / sum(TP + FP + FN))."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpus, ShapeMismatch
from .network import NetworkParams, forward_sequence
from .pianoroll import PianoRoll, frame_stack


@dataclass
class FrameCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "FrameCounts") -> "FrameCounts":
        return FrameCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def prf(self) -> tuple[float, float, float]:
        """Precision, recall and F1 of these counts (see `piece_prf`)."""
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        if not precision + recall:
            return precision, recall, 0.0
        # Rounding can put 2PR/(P+R) one ulp outside [min(P, R), max(P, R)].
        f1 = 2 * precision * recall / (precision + recall)
        return precision, recall, min(max(f1, min(precision, recall)), max(precision, recall))

    def accuracy(self) -> float:
        """TP / (TP + FP + FN); empty tallies count as perfect."""
        denom = self.tp + self.fp + self.fn
        return self.tp / denom if denom else 1.0


@dataclass
class PieceScore:
    source_id: str
    precision: float
    recall: float
    f1: float
    counts: FrameCounts


@dataclass
class EvalReport:
    pieces: list[PieceScore] = field(default_factory=list)
    macro_f1: float = 0.0
    frame_accuracy: float = 0.0


def _count(predicted: np.ndarray, target: np.ndarray) -> FrameCounts:
    if predicted.shape != target.shape:
        raise ShapeMismatch(f"{predicted.shape} vs {target.shape}")
    pred_on = predicted > 0.5
    targ_on = target > 0.5
    return FrameCounts(
        tp=int(np.sum(pred_on & targ_on)),
        fp=int(np.sum(pred_on & ~targ_on)),
        fn=int(np.sum(~pred_on & targ_on)),
    )


def piece_prf(predicted: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    """P = |T∩S|/|S|, R = |T∩S|/|T|, F1 = 2PR/(P+R) over (step, pitch) cells.

    Conventions: empty prediction set gives P = 0; empty target set gives
    R = 0; P + R = 0 gives F1 = 0.
    """
    return _count(np.asarray(predicted), np.asarray(target)).prf()


def frame_accuracy(pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Acc over every frame of every piece; empty tallies count as perfect."""
    return sum((_count(np.asarray(p), np.asarray(t)) for p, t in pairs),
               FrameCounts()).accuracy()


def evaluate(params: NetworkParams, test_rolls: list[PianoRoll],
             threshold: float = 0.9) -> EvalReport:
    """Teacher-forced one-step-ahead scoring: each input frame is ground
    truth, the thresholded prediction is scored against the next frame.

    The pieces run as one (T_max, N, 88) stack, zero-padded at the end;
    the recurrence is causal, so padding does not change any real row.
    """
    if not test_rolls:
        raise EmptyCorpus("empty test split")
    stack, lengths = frame_stack(test_rolls)
    y = forward_sequence(params, stack[:-1]).y
    counts = [_count(y[:m, n] > threshold, stack[1 : m + 1, n])
              for n, m in enumerate(lengths)]
    report = EvalReport([PieceScore(roll.source_id, *c.prf(), c)
                         for roll, c in zip(test_rolls, counts)])
    report.macro_f1 = float(np.mean([s.f1 for s in report.pieces]))
    report.frame_accuracy = sum(counts, FrameCounts()).accuracy()
    return report


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
