import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choralegen.errors import MalformedMidi, TooLong, UnsupportedFormat
from choralegen.pianoroll import QuantizationSpec, quantize
from choralegen.smf import NOTE, parse_midi, write_messages, write_midi

from conftest import note_array, outcome, parsed


def header(fmt=0, ntrks=1, division=480):
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, division)


def track(body: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(body)) + body


def vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


# -- byte-at-a-time reader and writer: the oracles for parse_midi and write_midi

def _reference_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MalformedMidi("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedMidi("variable-length quantity longer than 4 bytes")


_REFERENCE_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


def _reference_track(data: bytes, track_index: int) -> list[tuple]:
    events = []
    open_notes = {}  # pitch -> onset ticks, FIFO
    pos = 0
    tick = 0
    status = None

    def close(pitch, now):
        onsets = open_notes.get(pitch)
        if onsets:
            onset = onsets.pop(0)
            events.append((pitch, onset, max(1, now - onset), track_index))

    while pos < len(data):
        delta, pos = _reference_vlq(data, pos)
        tick += delta
        if pos >= len(data):
            raise MalformedMidi("truncated event")
        byte = data[pos]
        if byte >= 0x80:
            status = byte
            pos += 1
        elif status is None:
            raise MalformedMidi("data byte with no running status")

        if status == 0xFF:
            if pos >= len(data):
                raise MalformedMidi("truncated meta event")
            meta_type = data[pos]
            length, pos = _reference_vlq(data, pos + 1)
            if pos + length > len(data):
                raise MalformedMidi("truncated meta event payload")
            pos += length
            status = None
            if meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            length, pos = _reference_vlq(data, pos)
            if pos + length > len(data):
                raise MalformedMidi("truncated sysex payload")
            pos += length
            status = None
        elif 0x80 <= status < 0xF0:
            n = _REFERENCE_DATA_BYTES[status & 0xF0]
            if pos + n > len(data):
                raise MalformedMidi("truncated channel event")
            d1 = data[pos]
            d2 = data[pos + 1] if n == 2 else 0
            if d1 >= 0x80 or d2 >= 0x80:
                raise MalformedMidi("data byte >= 0x80 in channel event")
            pos += n
            kind = status & 0xF0
            if kind == 0x90 and d2 > 0:
                open_notes.setdefault(d1, []).append(tick)
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                close(d1, tick)
        else:
            raise MalformedMidi(f"unexpected status byte 0x{status:02x}")

    for pitch, onsets in open_notes.items():
        for onset in onsets:
            events.append((pitch, onset, max(1, tick - onset), track_index))
    return events


def parse_reference(data: bytes) -> tuple[list[tuple], int]:
    """Byte-at-a-time SMF reader: the oracle for `parse_midi`, its notes
    (pitch, onset_ticks, duration_ticks, track) tuples."""
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
    events = []
    pos = 8 + header_len
    track_index = 0
    while pos < len(data) and track_index < ntrks:
        if pos + 8 > len(data):
            raise MalformedMidi("truncated chunk header")
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        if pos + 8 + chunk_len > len(data):
            raise MalformedMidi("truncated chunk body")
        body = data[pos + 8 : pos + 8 + chunk_len]
        pos += 8 + chunk_len
        if chunk_id == b"MTrk":
            events.extend(_reference_track(body, track_index))
            track_index += 1
    if track_index == 0:
        raise MalformedMidi("no MTrk chunk found")
    events.sort(key=lambda e: (e[1], e[0], e[3]))
    return events, division


def write_reference(events: list[tuple], ticks_per_quarter: int) -> bytes:
    """Message-at-a-time SMF writer: the oracle for `write_midi`."""
    if ticks_per_quarter < 1 or ticks_per_quarter > 0x7FFF:
        raise ValueError("ticks_per_quarter out of range")
    channel_events = []
    for pitch, onset, duration, _ in events:
        channel_events.append((onset + duration, 0, 0x80, pitch))
        channel_events.append((onset, 1, 0x90, pitch))
    channel_events.sort()
    body = bytearray()
    body += vlq(0) + bytes([0xFF, 0x51, 0x03]) + struct.pack(">I", 500_000)[1:]
    last_tick = 0
    for tick, _, status, pitch in channel_events:
        if tick - last_tick >= 1 << 28:
            raise TooLong("delta time past 4 bytes")
        body += vlq(tick - last_tick)
        velocity = 80 if status == 0x90 else 0x40
        body += bytes([status, pitch, velocity])
        last_tick = tick
    body += vlq(0) + bytes([0xFF, 0x2F, 0x00])
    out = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_quarter)
    return out + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


# Single C4 quarter note at tick 0, PPQ 480, built by hand from the SMF
# spec: delta 0, note-on ch0; delta 480 (VLQ 83 60), note-off; end of track.
C4_QUARTER = header() + track(
    bytes([0x00, 0x90, 0x3C, 0x64,
           0x83, 0x60, 0x80, 0x3C, 0x40,
           0x00, 0xFF, 0x2F, 0x00]))


def test_single_c4_quarter_note():
    assert parsed(C4_QUARTER) == ([(60, 0, 480, 0)], 480)


def test_empty_track_yields_no_events():
    data = header() + track(bytes([0x00, 0xFF, 0x2F, 0x00]))
    assert parsed(data)[0] == []


def test_running_status_velocity_zero_closes_note():
    # note-on, then running-status note-on with velocity 0 at tick 240
    body = bytes([0x00, 0x90, 0x3C, 0x50,
                  0x81, 0x70, 0x3C, 0x00,
                  0x00, 0xFF, 0x2F, 0x00])
    assert parsed(header() + track(body))[0] == [(60, 0, 240, 0)]


def test_unmatched_note_on_closed_at_end_of_track():
    body = bytes([0x00, 0x90, 0x3C, 0x50,
                  0x83, 0x60, 0xFF, 0x2F, 0x00])
    assert parsed(header() + track(body))[0] == [(60, 0, 480, 0)]


def test_format_1_merges_tracks():
    t1 = track(bytes([0x00, 0x90, 0x30, 0x50, 0x60, 0x80, 0x30, 0x40,
                      0x00, 0xFF, 0x2F, 0x00]))
    t2 = track(bytes([0x00, 0x90, 0x40, 0x50, 0x60, 0x80, 0x40, 0x40,
                      0x00, 0xFF, 0x2F, 0x00]))
    events, _ = parse_midi(header(fmt=1, ntrks=2) + t1 + t2)
    assert [(e.pitch, e.track) for e in events] == [(0x30, 0), (0x40, 1)]


def test_bad_header_raises():
    with pytest.raises(MalformedMidi):
        parse_midi(b"RIFFxxxxxxxxxxxx")


def test_truncated_chunk_raises():
    with pytest.raises(MalformedMidi):
        parse_midi(C4_QUARTER[:-4])


@pytest.mark.parametrize("body, message", [
    pytest.param(bytes([0xFF, 0xFF, 0xFF, 0xFF, 0xFF]), "longer than 4 bytes", id="5-byte-delta"),
    pytest.param(bytes([0x81]), "truncated variable-length quantity", id="truncated-delta"),
    pytest.param(bytes([0x81, 0x00]), "truncated event", id="2-byte-delta-ends-track"),
    pytest.param(bytes([0x81, 0x80]), "truncated variable-length quantity",
                 id="truncated-3-byte-delta"),
    pytest.param(bytes([0x00, 0xFF, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]),
                 "longer than 4 bytes", id="5-byte-meta-length"),
])
def test_bad_vlq_raises(body, message):
    with pytest.raises(MalformedMidi, match=message):
        parse_midi(header() + track(body))


@pytest.mark.parametrize("data, message", [
    pytest.param(b"MThd" + struct.pack(">IHHH", 5, 0, 1, 480) + track(bytes([0x00, 0xFF, 0x2F, 0x00])),
                 "MThd length < 6", id="header-length-5"),
    pytest.param(header() + track(bytes([0x00, 0xFF])), "truncated meta event",
                 id="track-ends-after-0xff"),
    pytest.param(header() + track(bytes([0x00, 0xFF, 0x01])), "truncated variable-length quantity",
                 id="track-ends-before-meta-length"),
])
def test_short_header_or_meta_event_raises(data, message):
    with pytest.raises(MalformedMidi, match=message):
        parse_midi(data)


def test_importing_smf_loads_no_other_layer():
    # The package root exports nothing, so a MIDI reader imports no network.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, choralegen.smf; print(*sorted(m for m in sys.modules if 'choralegen' in m))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["choralegen", "choralegen.errors", "choralegen.smf"]


def test_format_2_rejected():
    with pytest.raises(UnsupportedFormat):
        parse_midi(header(fmt=2) + track(bytes([0x00, 0xFF, 0x2F, 0x00])))


def test_smpte_division_rejected():
    with pytest.raises(UnsupportedFormat):
        parse_midi(header(division=0xE250) + track(bytes([0x00, 0xFF, 0x2F, 0x00])))


def test_write_then_parse_round_trip():
    notes = [(60, 0, 480, 0), (64, 0, 240, 0), (67, 480, 480, 0)]
    events, ppq = parsed(write_midi(note_array(notes), 480))
    assert ppq == 480
    assert sorted(events) == sorted(notes)


def test_overlapping_notes_of_one_pitch_close_first_in_first_out():
    # C4 on at 0 and again at 10; the offs at 20 and 30 close them in order.
    body = bytes([0x00, 0x90, 0x3C, 0x50, 0x0A, 0x3C, 0x50,
                  0x0A, 0x80, 0x3C, 0x40, 0x0A, 0x3C, 0x40, 0x00, 0xFF, 0x2F, 0x00])
    assert parsed(header() + track(body))[0] == [(60, 0, 20, 0), (60, 10, 20, 0)]


@pytest.mark.parametrize("fields, message", [
    ((128, 0, 1), "pitch"), ((-1, 0, 1), "pitch"),
    ((60, -500, 10), "onset_ticks"), ((60, -1, 1), "onset_ticks"),
    ((60, 0, 0), "duration_ticks"), ((60, 1 << 62, 1 << 62), "2\\^63")])
def test_note_event_rejects_bad_fields(fields, message):
    # A note that breaks one of NOTE's rules, alone or second in a NOTE
    # array: write_midi and quantize refuse it by name.
    for notes in (note_array([(*fields, 0)]), note_array([(60, 0, 1, 0), (*fields, 0)])):
        with pytest.raises(ValueError, match=message):
            write_midi(notes, 480)
        with pytest.raises(ValueError, match=message):
            quantize(notes, QuantizationSpec(240))


@pytest.mark.parametrize("fields", [
    pytest.param((60, 0, 1), id="valid"),
    pytest.param(("60", 0, 1), id="pitch-a-string"),
    pytest.param((60.7, 0, 1), id="pitch-a-float"),
    pytest.param((60, 1 << 63, 1), id="onset-past-int64"),
    pytest.param((60, 0, 1 << 64), id="duration-past-int64"),
    pytest.param((1 << 63, 0, 1), id="pitch-past-int64")])
def test_a_list_of_notes_is_refused(fields):
    # Not converted, so not parsed from a string, truncated from a float or
    # overflowed from a Python int: ValueError naming NOTE, even for a valid note.
    with pytest.raises(ValueError, match="NOTE array"):
        write_midi([(*fields, 0)], 480)
    with pytest.raises(ValueError, match="NOTE array"):
        quantize([(*fields, 0)], QuantizationSpec(240))


@pytest.mark.parametrize("notes", [
    pytest.param(np.ones((1, 4), np.int64), id="int64-rows"),
    pytest.param(np.array([(60, 0, 480, 0)], [(name, np.int32) for name in NOTE.names]),
                 id="int32-fields")])
def test_notes_of_another_dtype_are_refused_not_cast(notes):
    # np.asarray(notes, NOTE) would make four notes of each int64 row.
    with pytest.raises(ValueError, match="NOTE array"):
        write_midi(notes, 480)
    with pytest.raises(ValueError, match="NOTE array"):
        quantize(notes, QuantizationSpec(240))


@pytest.mark.parametrize("notes", [
    pytest.param(np.array((60, 0, 480, 0), NOTE), id="0-d"),
    pytest.param(np.array([[(60, 0, 480, 0)], [(62, 0, 480, 0)]], NOTE), id="2-d")])
def test_notes_of_another_shape_are_refused(notes):
    # Only a 1-d NOTE array is a list of notes; numpy's own errors for
    # the others do not name NOTE.
    with pytest.raises(ValueError, match="one-dimensional NOTE array"):
        write_midi(notes, 480)
    with pytest.raises(ValueError, match="one-dimensional NOTE array"):
        quantize(notes, QuantizationSpec(240))


# Track events as (delta, event) byte pieces: notes on and off on a few
# pitches and channels, running status, velocity-0 note-offs, other channel
# messages, meta and sysex events, 1..4-byte deltas, and rarer junk.
_NOTE_MESSAGES = [bytes([kind | channel, pitch, velocity]) for kind in (0x80, 0x90, 0x90)
                  for channel in (0, 9) for pitch in (60, 61, 0, 127) for velocity in (0, 0x40)]
_RUNNING = [bytes([pitch, velocity]) for pitch in (60, 61) for velocity in (0, 0x40)]
_OTHER = [b"\xc0\x05", b"\xb0\x07\x64", b"\xe0\x00\x40", b"\xa0\x3c\x10", b"\xd0\x20",
          b"\xff\x51\x03\x07\xa1\x20", b"\xff\x01\x00", b"\xff\x01\x81\x00" + bytes(128),
          b"\xf0\x01\xf7", b"\xf7\x00", b"\xff\x2f\x00"]
_JUNK = [b"\xf3", b"\x90\x80\x40", b"\xc0\x80", b"\xff\x01\x09", b"\xff", b"\x90\x3c",
         b"\x05", b"\xf7\x05"]
_EVENTS = st.sampled_from(_NOTE_MESSAGES * 2 + _RUNNING * 2 + _OTHER * 3 + _JUNK)
_DELTAS = st.sampled_from([b"\x00"] * 8 + [b"\x05", b"\x60", b"\x7f", b"\x81\x00", b"\x83\x60",
                                          b"\xff\x7f", b"\x81\x80\x00", b"\xff\xff\xff\x7f"] * 2
                          + [b"\x80", b"\xff\xff\xff\xff\x7f"])


def _smf(fmt, extra_tracks, division, tracks, alien):
    chunks = [track(b"".join(delta + event for delta, event in pieces)) for pieces in tracks]
    if alien:
        chunks.insert(1, b"XFIH" + struct.pack(">I", 3) + b"abc")
    return header(fmt, max(0, len(tracks) + extra_tracks), division) + b"".join(chunks)


SOUPS = st.builds(_smf, st.sampled_from([0, 1] * 6 + [2, 3]), st.sampled_from([0] * 6 + [-1, 1]),
                  st.sampled_from([1, 96, 480, 0x7FFF] * 4 + [0, 0x8000]),
                  st.lists(st.lists(st.tuples(_DELTAS, _EVENTS), max_size=30),
                           min_size=1, max_size=3),
                  st.booleans())


def _note_track(messages, running_status):
    """A well-formed track of note messages (delta, on, pitch, channel,
    off_as_velocity_0), using running status wherever the status repeats."""
    body, status = bytearray(), None
    for delta, on, pitch, channel, off_as_velocity_0 in messages:
        kind = 0x90 if on or off_as_velocity_0 else 0x80
        body += vlq(delta)
        if not (running_status and kind | channel == status):
            body.append(kind | channel)
        body += bytes([pitch, 0 if kind == 0x90 and not on else 0x40])
        status = kind | channel
    return track(bytes(body) + b"\x00\xff\x2f\x00")


# Format-1 files of note messages on two pitches of two channels: notes of
# one pitch overlap, and note-offs come as 0x80 or as velocity-0 note-ons.
NOTE_FILES = st.builds(
    lambda tracks, running: header(1, len(tracks)) + b"".join(
        _note_track(messages, running) for messages in tracks),
    st.lists(st.lists(st.tuples(
        st.one_of(st.integers(0, 300), st.sampled_from([127, 128, 16383, 16384, (1 << 28) - 1])),
        st.booleans(), st.sampled_from([60, 61]), st.sampled_from([0, 1]), st.booleans()),
        max_size=40), min_size=1, max_size=3),
    st.booleans())


@settings(max_examples=300, deadline=None)
@given(NOTE_FILES)
def test_parse_midi_matches_reference_on_note_files(data):
    assert parsed(data) == parse_reference(data)


SMF_BYTES = st.one_of(st.binary(max_size=100),
                      st.binary(max_size=60).map(lambda body: header() + track(body)),
                      SOUPS,
                      SOUPS.flatmap(lambda data: st.integers(0, len(data)).map(lambda n: data[:n])))
TWO_TRACKS = (header(ntrks=2) + track(b"\x00\x90\x3c\x40\x00\x90\x3c\x40\x10\x3c\x00")
              + track(b"\x00\x91\x3c\x40"))


@settings(max_examples=500, deadline=None)
@given(SMF_BYTES)
@example(TWO_TRACKS)
@example(header() + track(b"\x00\x90\x3c\x40\x81\x80\x80\x80\x00\x80\x3c\x40"))  # 5-byte delta
@example(header() + track(b"\x00\x90\x3c\x40\x83\x60\x80\x3c\x40"))  # 2-byte delta, 480 ticks
@example(header() + track(b"\x00\x90\x3c\x40\x80\x00\x80\x3c\x40"))  # non-minimal zero delta
def test_parse_midi_matches_reference(data):
    assert outcome(parsed, data) == outcome(parse_reference, data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(NOTE_FILES, SMF_BYTES))
@example(TWO_TRACKS)
def test_parsed_notes_read_as_records_and_as_int_tuples(data):
    # The benchmark's corpus check reads each parsed note by field name,
    # or as a tuple of ints. A plain (n, 4) int array has no field names.
    expected = outcome(parse_reference, data)
    if isinstance(expected, type):  # an error: test_parse_midi_matches_reference
        return
    notes, _ = parse_midi(data)
    assert type(notes) is np.ndarray and notes.dtype == NOTE  # not a np.recarray
    assert [(e.pitch, e.onset_ticks, e.duration_ticks, e.track) for e in notes] == expected[0]
    assert [tuple(map(int, e)) for e in notes] == expected[0]


# Ticks on each side of each VLQ width boundary from 1 to 6 bytes, and
# deltas of 7 and 9 bytes: from 5 bytes on, both writers raise TooLong.
_BOUNDARY_TICKS = [0, 1, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21,
                   (1 << 28) - 1, 1 << 28, (1 << 35) - 1, 1 << 35, 1 << 42, 1 << 56]
_TICKS = st.one_of(st.sampled_from(_BOUNDARY_TICKS), st.integers(0, 2000))
_WRITE_EVENTS = st.lists(st.tuples(st.sampled_from([0, 21, 60, 61, 127]),
                                   _TICKS, _TICKS.map(lambda t: max(t, 1)),
                                   st.integers(0, 3)), max_size=12)


def _with_abutting_and_duplicate(events):
    # A note starting where the first ends (an off and an on at one tick)
    # and a second copy of the last note.
    if events:
        _, onset, duration, _ = events[0]
        events = events + [(61, onset + duration, 5, 0), events[-1]]
    return events


@settings(max_examples=300, deadline=None)
@given(_WRITE_EVENTS.map(_with_abutting_and_duplicate), st.sampled_from([1, 96, 480, 0x7FFF]))
@example([], 480)
def test_write_midi_matches_reference(events, ticks_per_quarter):
    assert (outcome(lambda e: write_midi(note_array(e), ticks_per_quarter), events)
            == outcome(lambda e: write_reference(e, ticks_per_quarter), events))


def test_write_midi_rejects_bad_ppq():
    for ppq in (0, 0x8000):
        with pytest.raises(ValueError, match="ticks_per_quarter"):
            write_midi(note_array([(60, 0, 1, 0)]), ppq)
        with pytest.raises(ValueError, match="ticks_per_quarter"):
            write_messages(np.array([0]), np.array([True]), np.array([60]), ppq)



def test_write_messages_delta_takes_its_vlq_width():
    # Each gap sits at the edge of a VLQ width: the note-off after it reads
    # back at its tick, and the delta's width shows in the track length.
    gaps = [0, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21, (1 << 28) - 1]
    for gap, width in zip(gaps, [1, 1, 2, 2, 3, 3, 4, 4]):
        data = write_messages(np.array([0, gap]), np.array([True, False]), np.array([60, 60]), 480)
        (track_length,) = struct.unpack(">I", data[18:22])
        assert track_length == 7 + (1 + 3) + (width + 3) + 4, gap
        assert parsed(data) == ([(60, 0, gap or 1, 0)], 480)


@pytest.mark.parametrize("tick, pitch, message", [
    pytest.param([0, 10], [200, 200], "pitch outside 0..127", id="pitch-200"),
    pytest.param([5, 3], [60, 60], "must not decrease", id="ticks-5-3"),
    pytest.param([-4, 0], [60, 60], ">= 0", id="ticks-minus-4-0")])
def test_write_messages_refuses_what_parse_midi_would_misread(tick, pitch, message):
    # Written, these read back as MalformedMidi, one note at tick 5 that is
    # 126 ticks long, and one note at tick 124.
    with pytest.raises(ValueError, match=message):
        write_messages(np.array(tick), np.array([True, False]), np.array(pitch), 480)
