"""Piano-roll representation: quantization, next-frame stacks, corpus loading.

A roll is a T x 88 binary matrix; column 0 is A0 (MIDI 21), column 87 is
C8 (MIDI 108). Row t holds every pitch sounding during step t.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import EmptyAfterQuantization, EmptyCorpus, Error, TooLong, TooShort
from .smf import NoteEvent, checked_notes, note_array, parse_midi, write_midi

NUM_PITCHES = 88
MIN_PITCH = 21  # A0

# Fraction of a quarter note covered by one roll step; 0.5 = eighth note.
DEFAULT_STEP_FRACTION = 0.5

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
        if not np.isin(self.frames, (0.0, 1.0)).all():
            raise ValueError("frames must be exactly 0.0 or 1.0")

    def __len__(self) -> int:
        return self.frames.shape[0]


def frame_pairs(roll: PianoRoll) -> int:
    """The roll's number of next-frame (input, target) pairs, len - 1. A
    roll of fewer than 2 frames has no pair and raises TooShort."""
    if len(roll) < 2:
        raise TooShort(f"{roll.source_id or 'roll'}: need >= 2 frames, got {len(roll)}")
    return len(roll) - 1


def frame_stack(rolls: list[PianoRoll]) -> tuple[np.ndarray, list[int]]:
    """The rolls as one zero-padded (T_max + 1, N, 88) array, roll n in
    column n, and each roll's `frame_pairs` T_n. `stack[:-1]` are the
    inputs and `stack[1:]` the targets."""
    lengths = [frame_pairs(roll) for roll in rolls]
    stack = np.zeros((max(lengths) + 1, len(rolls), NUM_PITCHES))
    for n, roll in enumerate(rolls):
        stack[: len(roll), n] = roll.frames
    return stack, lengths


def quantize(events: list[NoteEvent], spec: QuantizationSpec,
             source_id: str = "") -> PianoRoll:
    """Snap note events onto the step grid as binary frames.

    Onsets/offsets round half-up to the nearest grid line; notes that
    would vanish are kept at one step. Out-of-range pitches are folded
    by octaves into the roll's range. A roll longer than MAX_STEPS
    raises TooLong before it is allocated.
    """
    if not events:
        raise EmptyAfterQuantization("no events to quantize")
    pitch, onset, duration = note_array(events).T
    ticks = np.stack([onset, onset + duration])
    # Any step longer than twice the last tick rounds every edge to 0, so
    # capping it there changes nothing and keeps the sums inside int64.
    tps = min(spec.ticks_per_step, 2 * int(ticks[1].max()) + 1)
    start, end = (ticks + tps // 2) // tps
    end = np.maximum(end, start + 1)
    num_steps = int(end.max())
    if num_steps > MAX_STEPS:
        raise TooLong(f"{source_id or 'roll'}: {num_steps} steps exceed "
                      f"MAX_STEPS = {MAX_STEPS}")
    col = pitch - MIN_PITCH
    col = np.clip(col, col % 12, NUM_PITCHES - 1 - (NUM_PITCHES - 1 - col) % 12)
    # +1 where a note starts, -1 where it ends; a cell sounds while the
    # running sum down its column is positive (overlaps merge).
    size = (num_steps + 1) * NUM_PITCHES
    marks = np.bincount(start * NUM_PITCHES + col, minlength=size)
    marks -= np.bincount(end * NUM_PITCHES + col, minlength=size)
    frames = marks.reshape(num_steps + 1, NUM_PITCHES)[:-1].cumsum(axis=0) > 0
    return PianoRoll(frames, source_id)


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
    # Rows of `edges` are pitches; +1 marks a note's first step, -1 the
    # step after its last, so the flat nonzero indices alternate start, end.
    edges = np.diff(np.pad(roll.frames.T, ((0, 0), (1, 1))))
    first, after = np.flatnonzero(edges).reshape(-1, 2).T
    if not first.size:
        raise EmptyAfterQuantization(f"{roll.source_id or 'roll'}: no sounding note to render")
    col, start = np.divmod(first, edges.shape[1])
    events = checked_notes(zip((MIN_PITCH + col).tolist(), (start * tps).tolist(),
                               ((after - first) * tps).tolist(), repeat(0)))
    # SMF stores PPQ in 15 bits; at the cap a step spans slightly more time.
    ppq = min(max(1, round(tps / spec.step_fraction)), 0x7FFF)
    return write_midi(events, ppq)


def load_roll(path: str, step_fraction: float) -> tuple[PianoRoll, QuantizationSpec]:
    """Read one MIDI file onto a grid of `step_fraction` quarter notes per
    step. Returns the roll, named after the file, and the spec that
    `render_midi` needs to write it back at the same tempo."""
    with open(path, "rb") as fh:
        events, ppq = parse_midi(fh.read())
    spec = QuantizationSpec.for_ppq(ppq, step_fraction)
    return quantize(events, spec, os.path.basename(path)), spec


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
    rolls, warnings = [], []
    if not os.path.isdir(split_dir):
        return rolls, warnings
    for name in sorted(os.listdir(split_dir)):
        if not name.lower().endswith((".mid", ".midi")):
            continue
        path = os.path.join(split_dir, name)
        try:
            roll = load_roll(path, step_fraction)[0]
            frame_pairs(roll)  # TooShort below 2 frames
            rolls.append(roll)
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
