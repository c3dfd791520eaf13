"""Piano-roll representation: quantization, packed next-frame pairs, corpus loading.

A roll is a T x 88 binary matrix; column 0 is A0 (MIDI 21), column 87 is
C8 (MIDI 108). Row t holds every pitch sounding during step t.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAfterQuantization, EmptyCorpus, Error, TooLong, TooShort
from .smf import checked_notes, parse_midi, write_messages

NUM_PITCHES = 88
MIN_PITCH = 21  # A0

# Fraction of a quarter note covered by one roll step; 0.5 = eighth note.
DEFAULT_STEP_FRACTION = 0.5

# The roll column of each MIDI pitch 0..127: its own inside A0..C8, else
# the nearest column of its pitch class (an octave fold).
_column = np.arange(128) - MIN_PITCH
PITCH_COLUMN = np.clip(_column, _column % 12, NUM_PITCHES - 1 - (NUM_PITCHES - 1 - _column) % 12)

# Longest roll `quantize` builds. File ticks can ask for far more: one
# 4-byte delta at PPQ 1 is 2^27 steps, a 94 GB roll.
MAX_STEPS = 1 << 16


@dataclass(frozen=True)
class QuantizationSpec:
    """The roll's time grid: one step is `ticks_per_step` ticks of the
    MIDI file and `step_fraction` quarter notes."""

    ticks_per_step: int
    step_fraction: float = DEFAULT_STEP_FRACTION

    def __post_init__(self):
        if self.ticks_per_step < 1:
            raise ValueError("ticks_per_step must be >= 1")
        if not 0 < 0x7FFF * self.step_fraction < math.inf:  # for_ppq's product at the top PPQ
            raise ValueError("step_fraction must be > 0, with 32767 * step_fraction finite")

    @classmethod
    def for_ppq(cls, ppq: int, step_fraction: float = DEFAULT_STEP_FRACTION):
        """Spec for `step_fraction` quarter notes of a file with this PPQ, in
        whole ticks; it records the step length those ticks really are."""
        if ppq < 1:
            raise ValueError("ppq must be >= 1")
        ticks = max(1, round(ppq * step_fraction))
        return cls(ticks, ticks / ppq)


@dataclass
class PianoRoll:
    frames: np.ndarray  # (T, 88) float64 of {0.0, 1.0}
    source_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != NUM_PITCHES:
            raise ValueError(f"frames must be (T, {NUM_PITCHES})")
        if self.frames.shape[0] < 1:
            raise ValueError("roll needs at least one frame")
        if np.count_nonzero(self.frames) != np.count_nonzero(self.frames == 1.0):  # every nonzero is 1.0
            raise ValueError("frames must be exactly 0.0 or 1.0")

    def __len__(self) -> int:
        return self.frames.shape[0]


def frame_pairs(roll: PianoRoll) -> int:
    """The roll's number of next-frame (input, target) pairs, len - 1. A
    roll of fewer than 2 frames has no pair and raises TooShort."""
    if len(roll) < 2:
        raise TooShort(f"{roll.source_id or 'roll'}: need >= 2 frames, got {len(roll)}")
    return len(roll) - 1


def frame_pack(rolls: list[PianoRoll]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rolls' next-frame pairs packed by length, as `forward_sequence`
    and `backward` take them: (inputs, targets, batch_sizes, rows).

    Inputs and targets are (ΣT_n, 88), T_n being roll n's `frame_pairs`.
    The rolls are sorted longest first, ties in corpus order: step t holds
    one row for each roll still running, `batch_sizes[t]` = #{n : T_n > t}
    of them in sorted order, and the steps follow in time order.
    `rows[n]` is the packed row of each of roll n's pairs, in time order.
    Rolls of one length give two views of one copy of the frames, N rows
    apart (one roll: its [:-1] and [1:]); nothing writes `ForwardTrace.x`.
    """
    lengths = np.array([frame_pairs(roll) for roll in rolls], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    batch_sizes = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    starts = np.cumsum(batch_sizes) - batch_sizes  # each step's first row
    rows = [None] * len(rolls)
    for k, n in enumerate(order.tolist()):
        rows[n] = starts[: lengths[n]] + k
    if (lengths == lengths[0]).all():
        frames = np.stack([roll.frames for roll in rolls], axis=1).reshape(-1, NUM_PITCHES)
        return frames[: -len(rolls)], frames[len(rolls) :], batch_sizes, rows
    inputs = np.empty((lengths.sum(), NUM_PITCHES))
    targets = np.empty_like(inputs)
    for roll, r in zip(rolls, rows):
        inputs[r], targets[r] = roll.frames[:-1], roll.frames[1:]
    return inputs, targets, batch_sizes, rows


def quantize(notes, spec: QuantizationSpec, source_id: str = "") -> PianoRoll:
    """Snap notes (see `smf.checked_notes`) onto the step grid as binary frames.

    Onsets/offsets round half-up to the nearest grid line; notes that
    would vanish are kept at one step. Out-of-range pitches are folded
    by octaves into the roll's range. A roll longer than MAX_STEPS
    raises TooLong before it is allocated.
    """
    roll = quantize_split([(notes, spec, source_id)])[0]
    if isinstance(roll, Error):
        raise roll
    return roll


def quantize_split(pieces) -> list[PianoRoll | Error]:
    """`quantize` of each (notes, spec, source_id) piece, in one pass: per
    piece, its PianoRoll or the EmptyAfterQuantization or TooLong error
    that refuses it. The rolls are row views of one buffer, freed only
    when every roll is dropped."""
    if not pieces:
        return []
    arrays, specs, names = zip(*pieces)
    notes = checked_notes(*arrays)
    counts = np.array([a.size for a in arrays], np.int64)
    filled = counts > 0
    firsts = (np.cumsum(counts) - counts)[filled]  # each filled piece's first note
    # Row 0 for onsets, row 1 for ends: their ticks, then steps, then cells of `marks`.
    ticks = np.empty((2, notes.size), np.int64)
    ticks[0] = notes["onset_ticks"]
    np.add(ticks[0], notes["duration_ticks"], out=ticks[1])
    # Any step longer than twice a piece's last tick rounds its every edge to
    # 0, so capping it there changes nothing and keeps the sums inside int64.
    steps = np.zeros(len(pieces), np.int64)  # each piece's last tick, then its step count
    steps[filled] = np.maximum.reduceat(ticks[1], firsts)
    tps = np.array([min(spec.ticks_per_step, 2 * last + 1)
                    for spec, last in zip(specs, steps.tolist())], np.int64)
    ticks += np.repeat(tps // 2, counts)
    ticks //= np.repeat(tps, counts)
    np.maximum(ticks[1], ticks[0] + 1, out=ticks[1])
    steps[filled] = np.maximum.reduceat(ticks[1], firsts)
    # A kept piece's rows are its steps and one spare end row, on which the
    # running sum of each of its columns is back to exactly 0.0.
    kept = filled & (steps <= MAX_STEPS)
    ends = np.cumsum(np.where(kept, steps + 1, 0))
    keep = np.repeat(kept, counts)
    ticks = ticks[:, keep]
    ticks += np.repeat((ends - steps - 1)[kept], counts[kept])  # each piece's first row
    ticks *= NUM_PITCHES
    ticks += PITCH_COLUMN[notes["pitch"][keep]]
    # +1.0 where a note starts, -1.0 where it ends; a cell sounds while the
    # exact running sum down its column is positive (overlaps merge).
    marks = np.bincount(ticks.ravel(), np.repeat([1.0, -1.0], ticks.shape[1]),
                        int(ends[-1]) * NUM_PITCHES)
    frames = marks.reshape(-1, NUM_PITCHES)
    np.minimum(frames.cumsum(axis=0, out=frames), 1, out=frames)
    return [EmptyAfterQuantization("no events to quantize") if not n
            else TooLong(f"{name or 'roll'}: {t} steps exceed MAX_STEPS = {MAX_STEPS}")
            if t > MAX_STEPS else PianoRoll(frames[end - t - 1 : end - 1], name)
            for name, n, t, end in zip(names, counts.tolist(), steps.tolist(), ends.tolist())]


def render_midi(roll: PianoRoll, spec: QuantizationSpec) -> bytes:
    """Render a roll as a format-0 SMF; consecutive on-steps merge into one note.

    One roll step spans spec.ticks_per_step ticks, and the file's PPQ makes
    it spec.step_fraction quarter notes. The file ends at the last note-off,
    so trailing silent steps are dropped; a roll with no sounding cell, whose
    file would read back as no events, raises EmptyAfterQuantization.
    """
    tps = spec.ticks_per_step
    if len(roll) * tps >= 1 << 63:
        raise TooLong(f"{roll.source_id or 'roll'}: {len(roll)} steps of {tps} "
                      "ticks pass 2^63 ticks")
    # Row t of `edges` is -1 where a note's last step was t - 1 and +1
    # where a note starts at t. Read step by step, note-offs before
    # note-ons and each by pitch, these edges are the file's messages.
    edges = np.empty((len(roll) + 1, NUM_PITCHES))
    edges[0], edges[-1] = roll.frames[0], -roll.frames[-1]
    np.subtract(roll.frames[1:], roll.frames[:-1], out=edges[1:-1])
    step, is_on, col = np.unravel_index(np.flatnonzero(np.stack([edges < 0, edges > 0], 1)),
                                        (len(edges), 2, NUM_PITCHES))
    if not step.size:
        raise EmptyAfterQuantization(f"{roll.source_id or 'roll'}: no sounding note to render")
    # SMF stores PPQ in 15 bits; at the cap a step spans slightly more time.
    ppq = min(max(1, round(tps / spec.step_fraction)), 0x7FFF)
    return write_messages(step * tps, is_on, MIN_PITCH + col, ppq)


def _read_midi(path: str, step_fraction: float) -> tuple[np.ndarray, QuantizationSpec]:
    """A MIDI file's notes, and the spec of `step_fraction` quarter notes at its PPQ."""
    with open(path, "rb") as fh:
        notes, ppq = parse_midi(fh.read())
    return notes, QuantizationSpec.for_ppq(ppq, step_fraction)


def load_roll(path: str, step_fraction: float) -> tuple[PianoRoll, QuantizationSpec]:
    """Read one MIDI file onto a grid of `step_fraction` quarter notes per
    step. Returns the roll, named after the file, and the spec that
    `render_midi` needs to write it back at the same tempo."""
    notes, spec = _read_midi(path, step_fraction)
    return quantize(notes, spec, os.path.basename(path)), spec


@dataclass
class Corpus:
    train: list[PianoRoll] = field(default_factory=list)
    test: list[PianoRoll] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def load_split(directory: str, split: str, step_fraction: float = DEFAULT_STEP_FRACTION
               ) -> tuple[list[PianoRoll], list[str]]:
    """The rolls of the quantized MIDI files in `directory`/`split`, in
    lexicographic order, and one warning per file skipped because it
    cannot be read or gives a roll of fewer than 2 frames. A missing
    subdirectory gives no rolls."""
    split_dir = os.path.join(directory, split)
    names = sorted(os.listdir(split_dir)) if os.path.isdir(split_dir) else []
    paths = [os.path.join(split_dir, n) for n in names if n.lower().endswith((".mid", ".midi"))]
    outcomes = []  # per path: its notes, spec and name, then its roll; or the error that skips it
    for path in paths:
        try:
            outcomes.append((*_read_midi(path, step_fraction), os.path.basename(path)))
        except (Error, OSError) as exc:
            outcomes.append(exc)
    quantized = iter(quantize_split([read for read in outcomes if isinstance(read, tuple)]))
    outcomes = [next(quantized) if isinstance(read, tuple) else read for read in outcomes]
    rolls, warnings = [], []
    for path, outcome in zip(paths, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            frame_pairs(outcome)  # TooShort below 2 frames
            rolls.append(outcome)
        except (Error, OSError) as exc:
            warnings.append(f"{path}: {exc}")
    return rolls, warnings


def load_corpus(directory: str, step_fraction: float = DEFAULT_STEP_FRACTION) -> Corpus:
    """Read the train/ and test/ subdirectories with `load_split`; any
    other subdirectory, such as valid/, is not read. Raises EmptyCorpus
    when train/ gives no roll."""
    corpus = Corpus()
    for split in ("train", "test"):
        rolls, warnings = load_split(directory, split, step_fraction)
        setattr(corpus, split, rolls)
        corpus.warnings += warnings
    if not corpus.train:
        raise EmptyCorpus(f"no parseable MIDI files under {directory}/train")
    return corpus


def parse_pianoroll_text(text: str, source_id: str = "") -> PianoRoll:
    """Text fixture form: exactly a `PIANOROLL v1 T=<T> P=88` line, then T rows of 88 {0,1} chars."""
    lines = text.strip().splitlines()
    header = re.fullmatch(r"PIANOROLL v1 T=(\d+) P=(\d+)", lines[0]) if lines else None
    if not header:
        raise ValueError("bad piano-roll header")
    num_rows, num_cols = map(int, header.groups())
    if num_cols != NUM_PITCHES or len(lines) != num_rows + 1:
        raise ValueError("piano-roll header does not match body")
    frames = np.array([[float(ch) for ch in line] for line in lines[1:]])
    return PianoRoll(frames, source_id=source_id)
