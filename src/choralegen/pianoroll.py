"""Piano-roll representation: quantization, supervised pairs, corpus loading.

A roll is a T x 88 binary matrix; column 0 is A0 (MIDI 21), column 87 is
C8 (MIDI 108). Row t holds every pitch sounding during step t.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAfterQuantization, EmptyCorpus, Error, TooShort
from .smf import NoteEvent, parse_midi, write_midi

NUM_PITCHES = 88
MIN_PITCH = 21  # A0

# Fraction of a quarter note covered by one roll step; 0.5 = eighth note.
DEFAULT_STEP_FRACTION = 0.5


@dataclass(frozen=True)
class QuantizationSpec:
    ticks_per_step: int
    min_pitch: int = MIN_PITCH
    num_pitches: int = NUM_PITCHES

    def __post_init__(self):
        if self.ticks_per_step < 1:
            raise ValueError("ticks_per_step must be >= 1")
        if self.min_pitch + self.num_pitches - 1 > 127:
            raise ValueError("pitch range exceeds MIDI 127")

    @classmethod
    def for_ppq(cls, ppq: int, step_fraction: float = DEFAULT_STEP_FRACTION, **kw):
        """Spec whose step covers `step_fraction` quarter notes of a file with this PPQ."""
        return cls(ticks_per_step=max(1, round(ppq * step_fraction)), **kw)


@dataclass
class PianoRoll:
    frames: np.ndarray  # (T, 88) float64 of {0.0, 1.0}
    step_duration: float = DEFAULT_STEP_FRACTION  # quarter notes per row
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


@dataclass
class SupervisedSequence:
    """Next-frame prediction pairs: target row k is input row k+1."""

    inputs: np.ndarray  # rows 0..T-2
    targets: np.ndarray  # rows 1..T-1
    source_id: str = ""


def to_supervised(roll: PianoRoll) -> SupervisedSequence:
    if len(roll) < 2:
        raise TooShort(f"{roll.source_id or 'roll'}: need >= 2 frames, got {len(roll)}")
    return SupervisedSequence(roll.frames[:-1], roll.frames[1:], roll.source_id)


def _fold_pitch(pitch: int, min_pitch: int, num_pitches: int) -> int:
    """Transpose by octaves until the pitch fits the roll's range."""
    while pitch < min_pitch:
        pitch += 12
    while pitch > min_pitch + num_pitches - 1:
        pitch -= 12
    return pitch


def _round_half_up_div(numerator: int, denominator: int) -> int:
    return (2 * numerator + denominator) // (2 * denominator)


def quantize(events: list[NoteEvent], spec: QuantizationSpec,
             step_duration: float = DEFAULT_STEP_FRACTION,
             source_id: str = "") -> PianoRoll:
    """Snap note events onto the step grid as binary frames.

    Onsets/offsets round half-up to the nearest grid line; notes that
    would vanish are kept at one step. Out-of-range pitches are folded
    by octaves into the roll's range.
    """
    if not events:
        raise EmptyAfterQuantization("no events to quantize")
    spans = []
    for ev in events:
        start = _round_half_up_div(ev.onset_ticks, spec.ticks_per_step)
        end = _round_half_up_div(ev.onset_ticks + ev.duration_ticks, spec.ticks_per_step)
        if end <= start:
            end = start + 1
        pitch = _fold_pitch(ev.pitch, spec.min_pitch, spec.num_pitches)
        spans.append((start, end, pitch - spec.min_pitch))
    num_steps = max(end for _, end, _ in spans)
    frames = np.zeros((num_steps, spec.num_pitches))
    for start, end, col in spans:
        frames[start:end, col] = 1.0
    return PianoRoll(frames, step_duration, source_id)


def render_midi(roll: PianoRoll, spec: QuantizationSpec) -> bytes:
    """Render a roll as a format-0 SMF; consecutive on-steps merge into one note.

    The file's PPQ is chosen so one roll step spans spec.ticks_per_step
    ticks at the roll's step_duration.
    """
    tps = spec.ticks_per_step
    events = []
    for col in range(roll.frames.shape[1]):
        column = roll.frames[:, col]
        on = False
        start = 0
        for t, v in enumerate(column):
            if v and not on:
                on, start = True, t
            elif not v and on:
                on = False
                events.append(NoteEvent(spec.min_pitch + col, start * tps, (t - start) * tps))
        if on:
            events.append(NoteEvent(spec.min_pitch + col, start * tps,
                                    (len(column) - start) * tps))
    events.sort(key=lambda e: (e.onset_ticks, e.pitch))
    # SMF stores PPQ in 15 bits; at the cap a step spans slightly more time.
    ppq = min(max(1, round(tps / roll.step_duration)), 0x7FFF)
    return write_midi(events, ppq)


@dataclass
class Corpus:
    train: list[PianoRoll] = field(default_factory=list)
    valid: list[PianoRoll] = field(default_factory=list)
    test: list[PianoRoll] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _load_split(split_dir: str, step_fraction: float, warnings: list[str]) -> list[PianoRoll]:
    rolls = []
    if not os.path.isdir(split_dir):
        return rolls
    for name in sorted(os.listdir(split_dir)):
        if not name.lower().endswith((".mid", ".midi")):
            continue
        path = os.path.join(split_dir, name)
        try:
            with open(path, "rb") as fh:
                events, ppq = parse_midi(fh.read())
            spec = QuantizationSpec.for_ppq(ppq, step_fraction)
            rolls.append(quantize(events, spec, step_fraction, source_id=name))
        except (Error, OSError) as exc:
            warnings.append(f"{path}: {exc}")
    return rolls


def load_corpus(directory: str, step_fraction: float = DEFAULT_STEP_FRACTION) -> Corpus:
    """Read train/, valid/, test/ subdirectories of quantized MIDI files.

    Files are loaded in lexicographic order; unparseable files are
    recorded in .warnings and skipped.
    """
    corpus = Corpus()
    for split in ("train", "valid", "test"):
        rolls = _load_split(os.path.join(directory, split), step_fraction, corpus.warnings)
        setattr(corpus, split, rolls)
    if not corpus.train:
        raise EmptyCorpus(f"no parseable MIDI files under {directory}/train")
    return corpus


# -- plain-text fixture format ------------------------------------------------

def format_pianoroll_text(roll: PianoRoll) -> str:
    """Bit-exact text form: header line, then T rows of 88 {0,1} chars."""
    lines = [f"PIANOROLL v1 T={len(roll)} P={NUM_PITCHES}"]
    for row in roll.frames:
        lines.append("".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


def parse_pianoroll_text(text: str, source_id: str = "") -> PianoRoll:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("PIANOROLL v1 "):
        raise ValueError("bad piano-roll header")
    fields = dict(part.split("=") for part in lines[0].split()[2:])
    num_rows, num_cols = int(fields["T"]), int(fields["P"])
    if num_cols != NUM_PITCHES or len(lines) != num_rows + 1:
        raise ValueError("piano-roll header does not match body")
    frames = np.array([[float(ch) for ch in line] for line in lines[1:]])
    return PianoRoll(frames, source_id=source_id)
