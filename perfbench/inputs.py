"""Seeded input generators owned by the benchmark.

Everything the program receives is made here from the run's seed: chorale-style
piano rolls, and Standard MIDI Files written by an encoder of the benchmark's
own. The encoder writes what `smf.write_midi` never does (format 1 with several
tracks, running status, note-on velocity 0 as note-off, meta, sysex and alien
chunks, off-grid timing, several PPQ values), and it returns the exact notes it
wrote so that the parser can be checked against them.
"""

from __future__ import annotations

import struct

import numpy as np

NUM_PITCHES = 88
MIN_PITCH = 21  # MIDI number of column 0 (A0)

# Even PPQ values, so that an eighth-note step is a whole number of ticks.
PPQ_CHOICES = (96, 120, 192, 240, 384, 480, 960)

_SCALE = (0, 2, 4, 5, 7, 9, 11)
# Chord degree -> degrees it may move to (a small functional-harmony walk).
_NEXT_CHORD = {0: (3, 4, 5, 1), 1: (4, 6), 2: (5, 3), 3: (4, 0, 1),
               4: (0, 5), 5: (3, 1, 4), 6: (0,)}


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent PCG64 stream for one input family of one run seed."""
    return np.random.Generator(np.random.PCG64([seed, *stream]))


def _degree(k: int) -> int:
    return 12 * (k // 7) + _SCALE[k % 7]


def chorale_roll(rng: np.random.Generator, length: int) -> np.ndarray:
    """(length, 88) binary roll: bass, tenor and alto on a chord walk that
    moves every 2 or 4 steps, and a stepwise melody that sometimes rests.
    Both rhythms are redrawn every 8-step phrase, so a long piece has the
    same note density whatever the seed. The bass always sounds, so the last
    frame is never empty and a MIDI rendering quantizes back to exactly
    `length` steps."""
    frames = np.zeros((length, NUM_PITCHES))
    tonic = 48 + int(rng.integers(0, 7))
    chord, mel = 0, 9
    for t in range(length):
        if t % 8 == 0:
            chord_len = int(rng.choice((2, 4)))
            mel_len = int(rng.choice((1, 2)))
        if t and t % chord_len == 0:
            chord = int(rng.choice(_NEXT_CHORD[chord]))
        if t % mel_len == 0:
            mel = int(np.clip(mel + rng.integers(-2, 3), 7, 16))
        pitches = [tonic - 12 + _degree(chord), tonic + _degree(chord + 2),
                   tonic + _degree(chord + 4)]
        if rng.random() >= 0.08:
            pitches.append(tonic + _degree(mel))
        for p in pitches:
            frames[t, p - MIN_PITCH] = 1.0
    return frames


def ragged_lengths(rng: np.random.Generator, count: int, total: int,
                   low: int = 16, high: int = 64) -> list[int]:
    """`count` lengths in [low, high] that vary with the seed but always sum
    to `total`, so every seed asks for the same amount of work."""
    if not count * low <= total <= count * high:
        raise ValueError("total outside the reachable range")
    lengths = [int(v) for v in rng.integers(low, high + 1, count)]
    while sum(lengths) != total:
        i = int(rng.integers(0, count))
        if sum(lengths) > total and lengths[i] > low:
            lengths[i] -= 1
        elif sum(lengths) < total and lengths[i] < high:
            lengths[i] += 1
    return lengths


def chorale_set(seed: int, stream: int, count: int, total: int) -> list[np.ndarray]:
    rng = rng_for(seed, stream)
    return [chorale_roll(rng, n) for n in ragged_lengths(rng, count, total)]


# -- Standard MIDI File encoder ------------------------------------------------

def vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def roll_notes(frames: np.ndarray) -> list[tuple[int, int, int]]:
    """(pitch, start_step, end_step) for every run of on-steps per column."""
    notes = []
    for col in range(frames.shape[1]):
        on = np.flatnonzero(frames[:, col])
        if on.size == 0:
            continue
        breaks = np.flatnonzero(np.diff(on) > 1)
        starts = np.concatenate(([on[0]], on[breaks + 1]))
        ends = np.concatenate((on[breaks], [on[-1]])) + 1
        notes.extend((MIN_PITCH + col, int(s), int(e)) for s, e in zip(starts, ends))
    return notes


def _meta(kind: int, payload: bytes) -> bytes:
    return bytes([0xFF, kind]) + vlq(len(payload)) + payload


def _track_bytes(events: list[tuple[int, int, bytes]], running_status: bool) -> bytes:
    """Events are (tick, order, message); channel messages start with their
    status byte, which running status drops when it repeats."""
    body = bytearray()
    last_tick, status = 0, None
    for tick, _, msg in sorted(events, key=lambda e: (e[0], e[1])):
        body += vlq(tick - last_tick)
        last_tick = tick
        if msg[0] < 0xF0:
            if running_status and msg[0] == status:
                msg = msg[1:]
            else:
                status = msg[0]
        else:
            status = None  # meta and sysex cancel running status
        body += msg
    body += vlq(0) + _meta(0x2F, b"")
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def encode_midi(frames: np.ndarray, rng: np.random.Generator
                ) -> tuple[bytes, int, list[tuple[int, int, int, int]]]:
    """Encode a roll as an SMF whose layout is drawn from `rng`.

    Returns (file bytes, PPQ, notes) where notes are the exact
    (pitch, onset_ticks, duration_ticks, track) the file holds, sorted as
    `smf.parse_midi` sorts them. Off-grid files move each note edge by less
    than half a step, so quantizing at PPQ/2 ticks per step gives `frames`
    back.
    """
    ppq = int(rng.choice(PPQ_CHOICES))
    tps = ppq // 2
    fmt = int(rng.integers(0, 2))
    running_status = bool(rng.integers(0, 2))
    off_as_zero_velocity = bool(rng.integers(0, 2))
    jitter = (tps - 1) // 2 if rng.integers(0, 2) else 0
    channels = int(rng.integers(2, 5))

    conductor = [
        (0, 0, _meta(0x03, b"perfbench")),
        (0, 1, _meta(0x51, struct.pack(">I", int(rng.integers(400_000, 700_000)))[1:])),
        (0, 2, _meta(0x58, bytes([4, 2, 24, 8]))),
        (0, 3, _meta(0x59, bytes([0, 0]))),
        (0, 4, bytes([0xF0]) + vlq(5) + bytes([0x7E, 0x7F, 0x09, 0x01, 0xF7])),
    ]
    # Format 0 interleaves every channel in one track; format 1 keeps the
    # conductor events in track 0 and gives each channel a track of its own.
    tracks = [conductor] + [[] for _ in range(channels if fmt == 1 else 0)]
    track_of = [ch + 1 if fmt == 1 else 0 for ch in range(channels)]
    for ch in range(channels):
        tracks[track_of[ch]] += [(0, 5, bytes([0xC0 | ch, int(rng.integers(0, 128))])),
                                 (0, 6, bytes([0xB0 | ch, 7, 100])),
                                 (0, 7, bytes([0xE0 | ch, 0x00, 0x40]))]

    notes = []
    for pitch, start, end in roll_notes(frames):
        ch = int(rng.integers(0, channels))
        track = track_of[ch]
        onset = start * tps + (int(rng.integers(0 if start == 0 else -jitter, jitter + 1))
                               if jitter else 0)
        offset = end * tps + (int(rng.integers(-jitter, jitter + 1)) if jitter else 0)
        notes.append((pitch, onset, offset - onset, track))
        tracks[track].append((onset, 20, bytes([0x90 | ch, pitch, int(rng.integers(1, 128))])))
        off = (bytes([0x90 | ch, pitch, 0]) if off_as_zero_velocity
               else bytes([0x80 | ch, pitch, 0x40]))
        tracks[track].append((offset, 10, off))
        if rng.random() < 0.05:
            tracks[track].append((onset, 30, bytes([0xA0 | ch, pitch, 20])))
            tracks[track].append((onset, 31, bytes([0xD0 | ch, 30])))
            tracks[track].append((onset, 32, _meta(0x06, b"mark")))

    chunks = [_track_bytes(evs, running_status) for evs in tracks]
    if fmt == 1 and rng.random() < 0.3:
        chunks.insert(1, b"XFIH" + struct.pack(">I", 3) + b"\x00\x01\x02")  # alien chunk
    data = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), ppq) + b"".join(chunks)
    notes.sort(key=lambda n: (n[1], n[0], n[3]))
    return data, ppq, notes
