import os
import tracemalloc

import numpy as np
import pytest

from choralegen.pianoroll import PianoRoll, load_roll
from choralegen.smf import NOTE, parse_midi

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Major-scale helpers for chorale-like synthetic pieces: four voices,
# chords changing every four steps, a random-walk melody on top.
_SCALE = [0, 2, 4, 5, 7, 9, 11]
_PROGRESSION = [0, 5, 3, 4, 0, 3, 1, 4, 0, 5, 3, 4, 1, 4, 4, 0]


def _degree(base, k):
    return base + 12 * (k // 7) + _SCALE[k % 7]


def chorale_piece(seed: int, length: int = 32) -> PianoRoll:
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = np.zeros((length, 88))
    mel = 10
    for t in range(length):
        chord = _PROGRESSION[(t // 4) % 16]
        mel = int(np.clip(mel + rng.integers(-2, 3), 0, 20))
        pitches = (_degree(36, chord), _degree(48, chord + 2),
                   _degree(48, chord + 4), _degree(60, mel))
        for p in pitches:
            frames[t, p - 21] = 1.0
    return PianoRoll(frames, source_id=f"piece{seed:02d}")


def random_roll(rng: np.random.Generator, num_frames: int = 8,
                density: float = 0.06) -> PianoRoll:
    frames = (rng.uniform(0, 1, (num_frames, 88)) < density).astype(float)
    return PianoRoll(frames, source_id="random")


def outcome(fn, *args):
    """What `fn` makes of `args`: its result, or the class it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def note_array(notes: list[tuple]) -> np.ndarray:
    """(pitch, onset_ticks, duration_ticks, track) tuples as the NOTE array
    that `write_midi` and `quantize` take."""
    return np.array(notes, NOTE)


def parsed(data: bytes) -> tuple[list[tuple], int]:
    """`parse_midi`'s notes as tuples of Python ints, and the PPQ."""
    notes, ppq = parse_midi(data)
    return notes.tolist(), ppq


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of the call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pack(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sequences (T_n, .) packed one row at a time as `frame_pack` packs a
    corpus: longest first, ties in list order, then step by step; and the
    batch size of each step."""
    order = sorted(range(len(seqs)), key=lambda n: -len(seqs[n]))
    steps = range(len(seqs[order[0]]))
    rows = [seqs[n][t] for t in steps for n in order if t < len(seqs[n])]
    return np.array(rows), np.array([sum(t < len(s) for s in seqs) for t in steps])


def load_chorale64() -> PianoRoll:
    """The bundled 64-frame chorale-style fixture of criteria 3 and 7, read
    from its MIDI file in eighth-note steps."""
    roll = load_roll(os.path.join(DATA_DIR, "chorale64.mid"), 0.5)[0]
    return PianoRoll(roll.frames, source_id="chorale64")


@pytest.fixture(scope="session")
def chorale64() -> PianoRoll:
    return load_chorale64()
