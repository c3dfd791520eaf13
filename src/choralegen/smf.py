"""Standard MIDI File reader/writer (formats 0 and 1).

Hand-rolled binary codec: chunked layout, big-endian lengths,
variable-length delta times, running status on read. Tempo and velocity
are ignored on read and fixed constants on write (120 BPM, velocity 80).
"""

from __future__ import annotations

import struct
from collections import defaultdict, deque

import numpy as np

from .errors import MalformedMidi, TooLong, UnsupportedFormat

WRITE_VELOCITY = 80
WRITE_TEMPO_US = 500_000  # 120 BPM


# One sounding note in absolute MIDI ticks; a record dtype, so `note.pitch` reads a field.
NOTE = np.dtype((np.record, [(name, np.int64) for name in
                             ("pitch", "onset_ticks", "duration_ticks", "track")]))


def checked_notes(notes) -> np.ndarray:
    """`notes` itself, if it is a 1-d NOTE array whose notes keep NOTE's rules:
    0 <= pitch <= 127, onset_ticks >= 0, duration_ticks >= 1, an end before
    tick 2^63. Anything else, a list included, raises ValueError naming NOTE or the field."""
    if not isinstance(notes, np.ndarray) or notes.dtype != NOTE:
        raise ValueError(f"notes must be a NOTE array, not {getattr(notes, 'dtype', type(notes))}")
    if notes.ndim != 1:
        raise ValueError(f"notes must be a one-dimensional NOTE array, not {notes.ndim}-d")
    pitch, onset, duration = notes["pitch"], notes["onset_ticks"], notes["duration_ticks"]
    if pitch.min(initial=0) < 0 or pitch.max(initial=0) > 127:
        raise ValueError("pitch outside 0..127")
    if onset.min(initial=0) < 0:
        raise ValueError("onset_ticks must be >= 0")
    if duration.min(initial=1) < 1:
        raise ValueError("duration_ticks must be >= 1")
    if (duration > (1 << 63) - 1 - onset).any():  # onset + duration >= 2^63
        raise ValueError("onset_ticks + duration_ticks must stay below 2^63")
    return notes


def _read_vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= end:
            raise MalformedMidi("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedMidi("variable-length quantity longer than 4 bytes")


# What each status byte starts: 3 a note-off and 4 a note-on, each with two
# data bytes; 2 or 1 data bytes of a channel message that holds no note; 0
# meta (0xFF), sysex (0xF0, 0xF7) or a system message a track may not hold.
_ACTION = bytes(0 if s < 0x80 or s >= 0xF0 else 3 if s < 0x90 else 4 if s < 0xA0
                else 1 if 0xC0 <= s < 0xE0 else 2 for s in range(256))


def _parse_track(data: bytes, pos: int, end: int, track: int, notes: list):
    """Append the notes of the track in data[pos:end] to `notes` as flat
    int rows: pitch, onset, duration, track, then the next note's four."""
    opens = defaultdict(deque)  # pitch -> onset ticks of its sounding notes
    tick = status = action = 0  # status 0: no running status
    while pos < end:
        # Delta time: one or two bytes are read inline; longer or truncated ones go to _read_vlq.
        delta = data[pos]
        if delta < 0x80:
            pos += 1
        elif pos + 1 < end and data[pos + 1] < 0x80:
            delta = (delta & 0x7F) << 7 | data[pos + 1]
            pos += 2
        else:
            delta, pos = _read_vlq(data, pos, end)
        tick += delta
        if pos >= end:
            raise MalformedMidi("truncated event")
        if data[pos] >= 0x80:
            status = data[pos]
            action = _ACTION[status]
            pos += 1
        elif not status:
            raise MalformedMidi("data byte with no running status")

        if action > 2:
            if pos + 2 > end:
                raise MalformedMidi("truncated channel event")
            key, value = data[pos], data[pos + 1]
            pos += 2
            if (key | value) >= 0x80:
                raise MalformedMidi("data byte >= 0x80 in channel event")
            if value and action == 4:
                opens[key].append(tick)
            else:  # note-off, or note-on at velocity 0
                queue = opens[key]
                if queue:
                    onset = queue.popleft()
                    notes += (key, onset, tick - onset or 1, track)
        elif action:
            if pos + action > end:
                raise MalformedMidi("truncated channel event")
            if (data[pos] | data[pos + action - 1]) >= 0x80:
                raise MalformedMidi("data byte >= 0x80 in channel event")
            pos += action
        elif status == 0xFF or status == 0xF0 or status == 0xF7:
            meta_type = None
            if status == 0xFF:
                if pos >= end:
                    raise MalformedMidi("truncated meta event")
                meta_type = data[pos]
                pos += 1
            length, pos = ((data[pos], pos + 1) if pos < end and data[pos] < 0x80
                           else _read_vlq(data, pos, end))  # a one-byte length is read inline
            if pos + length > end:
                raise MalformedMidi("truncated meta or sysex payload")
            pos += length
            status = action = 0
            if meta_type == 0x2F:
                break
        else:
            raise MalformedMidi(f"unexpected status byte 0x{status:02x}")

    # Unmatched note-ons are closed at end of track.
    for pitch, queue in opens.items():
        for onset in queue:
            notes += (pitch, onset, tick - onset or 1, track)


def walk_midi(data: bytes, rows: list) -> int:
    """Append the notes of every track of SMF bytes to `rows` as flat int
    rows: pitch, onset, duration, track, then the next note's four, each
    track's in the order it closes them. Returns the ticks per quarter note.
    A file that raises part-way leaves the rows read before the fault."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedMidi("missing MThd header")
    header_len, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    if header_len < 6:
        raise MalformedMidi("MThd length < 6")
    if fmt == 2:
        raise UnsupportedFormat("format 2 files are not supported")
    if fmt not in (0, 1):
        raise MalformedMidi(f"unknown SMF format {fmt}")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time division is not supported")
    if division == 0:
        raise MalformedMidi("zero ticks per quarter note")

    pos = 8 + header_len
    track_index = 0
    while pos < len(data) and track_index < ntrks:
        if pos + 8 > len(data):
            raise MalformedMidi("truncated chunk header")
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        start, pos = pos + 8, pos + 8 + chunk_len
        if pos > len(data):
            raise MalformedMidi("truncated chunk body")
        if chunk_id == b"MTrk":
            _parse_track(data, start, pos, track_index, rows)
            track_index += 1
        # Alien chunks are skipped per the SMF spec.
    if track_index == 0:
        raise MalformedMidi("no MTrk chunk found")
    return division


def parse_midi(data: bytes) -> tuple[np.ndarray, int]:
    """Parse SMF bytes into the notes of every track, merged.

    Returns (notes, ticks_per_quarter_note), the notes a 1-d NOTE array
    sorted by (onset, pitch, track). Note-on with velocity 0 counts as
    note-off, and a pitch's note-offs close its sounding notes first in,
    first out.
    """
    rows: list[int] = []
    division = walk_midi(data, rows)
    # A stable sort: notes tied on (onset, pitch, track) keep the order
    # their track closed them in. Each keeps NOTE's rules already.
    notes = np.array(rows, np.int64).view(NOTE)
    return notes[np.lexsort((notes["track"], notes["pitch"], notes["onset_ticks"]))], division


# A delta time's VLQ is at most four 7-bit groups, at these shifts, most
# significant first; SMF allows no more, so a delta must stay below 2^28.
_VLQ_SHIFTS = np.arange(21, -1, -7)
_VLQ_CONTINUE = (_VLQ_SHIFTS > 0) * 0x80  # the high bit of every group but the last
_TEMPO = bytes([0x00, 0xFF, 0x51, 0x03]) + WRITE_TEMPO_US.to_bytes(3, "big")
_END_OF_TRACK = bytes([0x00, 0xFF, 0x2F, 0x00])


def write_midi(notes, ticks_per_quarter: int) -> bytes:
    """Serialize notes (see `checked_notes`) as a format-0 SMF with `write_messages`."""
    notes = checked_notes(notes)
    pitch, onset = notes["pitch"], notes["onset_ticks"]
    # One message per row: every note-off, then every note-on, sorted by
    # tick, note-offs before note-ons at a tick, then pitch.
    tick = np.concatenate([onset + notes["duration_ticks"], onset])
    is_on = np.arange(tick.size) >= onset.size
    pitch = np.concatenate([pitch, pitch])
    order = np.lexsort((pitch, is_on, tick))
    return write_messages(tick[order], is_on[order], pitch[order], ticks_per_quarter)


def write_messages(tick: np.ndarray, is_on: np.ndarray, pitch: np.ndarray,
                   ticks_per_quarter: int) -> bytes:
    """Serialize note messages, in file order, as a single-track format-0
    SMF: message k turns pitch[k] on if is_on[k], else off, at absolute
    tick[k]. Raises ValueError for a pitch outside 0..127, or a tick below 0
    or the one before, which `parse_midi` would reject or misread; TooLong
    for a tick 2^28 or more past the one before (or 0), past a 4-byte delta."""
    if ticks_per_quarter < 1 or ticks_per_quarter > 0x7FFF:
        raise ValueError("ticks_per_quarter out of range")
    if np.minimum.reduce(pitch, initial=0) < 0 or np.maximum.reduce(pitch, initial=0) > 127:
        raise ValueError("pitch outside 0..127")
    delta = tick.copy()
    delta[1:] -= tick[:-1]
    if np.minimum.reduce(delta, initial=0) < 0:
        raise ValueError("ticks must be >= 0 and must not decrease")
    gap = np.maximum.reduce(delta, initial=0)
    if gap >= 1 << 28:
        raise TooLong(f"a gap of {int(gap)} ticks between MIDI events "
                      "reaches 2^28, past SMF's 4-byte delta time")

    # Row k is message k's bytes: its delta's four VLQ groups, then status,
    # key and velocity. A leading group is written only when it or a group
    # before it is nonzero, the last group always.
    groups = delta[:, None] >> _VLQ_SHIFTS
    rows = np.empty((tick.size, 7), np.uint8)
    rows[:, :4] = groups & 0x7F | _VLQ_CONTINUE
    rows[:, 4] = np.where(is_on, 0x90, 0x80)
    rows[:, 5] = pitch
    rows[:, 6] = np.where(is_on, WRITE_VELOCITY, 0x40)
    used = np.empty(rows.shape, bool)
    np.greater(groups[:, :3], 0, out=used[:, :3])
    used[:, 3:] = True
    body = rows[used].tobytes()

    length = len(_TEMPO) + len(body) + len(_END_OF_TRACK)
    return b"".join([b"MThd", struct.pack(">IHHH", 6, 0, 1, ticks_per_quarter),
                     b"MTrk", struct.pack(">I", length), _TEMPO, body, _END_OF_TRACK])
