import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choralegen import pianoroll
from choralegen.errors import (EmptyAfterQuantization, EmptyCorpus, Error,
                               MalformedMidi, TooLong, TooShort,
                               UnsupportedFormat)
from choralegen.pianoroll import (MAX_STEPS, MIN_PITCH, NUM_PITCHES, PITCH_COLUMN, PianoRoll,
                                  QuantizationSpec, frame_pack, frame_pairs, load_corpus,
                                  load_roll, load_split, parse_pianoroll_text, quantize,
                                  quantize_split, render_midi)
from choralegen.smf import parse_midi, write_midi

from conftest import (DATA_DIR, chorale_piece, note_array, outcome, pack, parsed,
                      traced_peak)

SPEC = QuantizationSpec(ticks_per_step=240)


def render_reference(roll, spec):
    """Per-cell walk over every (pitch, step) into run-length notes, which
    `write_midi` sorts into messages: the oracle for `render_midi`."""
    tps = spec.ticks_per_step
    if len(roll) * tps >= 1 << 63:
        raise TooLong("a note would end past tick 2^63")
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
                events.append((MIN_PITCH + col, start * tps, (t - start) * tps, 0))
        if on:
            events.append((MIN_PITCH + col, start * tps, (len(column) - start) * tps, 0))
    if not events:
        raise EmptyAfterQuantization("no sounding note")
    events.sort(key=lambda e: (e[1], e[0]))
    ppq = min(max(1, round(tps / spec.step_fraction)), 0x7FFF)
    return write_midi(note_array(events), ppq)


def quantize_reference(events, spec):
    """Per-event loop with Python integers: the oracle for `quantize`."""
    tps = spec.ticks_per_step
    spans = []
    for pitch, onset, duration, _ in events:
        start = (2 * onset + tps) // (2 * tps)
        end = (2 * (onset + duration) + tps) // (2 * tps)
        if end <= start:
            end = start + 1
        while pitch < MIN_PITCH:
            pitch += 12
        while pitch > MIN_PITCH + NUM_PITCHES - 1:
            pitch -= 12
        spans.append((start, end, pitch - MIN_PITCH))
    frames = np.zeros((max(end for _, end, _ in spans), NUM_PITCHES))
    for start, end, col in spans:
        frames[start:end, col] = 1.0
    return frames


STEP_FRACTIONS = st.sampled_from([0.25, 0.5, 1.0])

# Pitches below A0 and above C8 fold; a few fixed ones make overlaps on
# one pitch likely.
PITCHES = st.one_of(st.integers(0, 127), st.sampled_from([0, 9, 20, 21, 60, 108, 109, 127]))

EVENTS = st.lists(st.tuples(PITCHES, st.integers(0, 4000), st.integers(1, 1500), st.just(0)),
                  min_size=1, max_size=30)


def test_a0_two_steps():
    roll = quantize(note_array([(21, 0, 480, 0)]), SPEC)
    assert roll.frames[0][0] == 1.0 and roll.frames[1][0] == 1.0
    assert roll.frames.sum() == 2.0


def test_simultaneous_pitches_one_frame():
    roll = quantize(note_array([(60, 0, 240, 0), (64, 0, 240, 0)]), SPEC)
    assert len(roll) == 1
    assert set(np.flatnonzero(roll.frames[0])) == {60 - 21, 64 - 21}


def test_low_pitch_octave_folded():
    roll = quantize(note_array([(10, 0, 240, 0)]), SPEC)
    assert np.flatnonzero(roll.frames[0]).tolist() == [22 - 21]


def test_high_pitch_octave_folded():
    roll = quantize(note_array([(120, 0, 240, 0)]), SPEC)
    assert np.flatnonzero(roll.frames[0]).tolist() == [108 - 21]


def test_every_midi_pitch_quantizes_into_its_folded_column():
    # The table is the octave fold written out: a column in range keeps
    # its pitch, one outside moves by whole octaves to the nearest end.
    col = np.arange(128) - MIN_PITCH
    assert np.array_equal(PITCH_COLUMN, np.clip(col, col % 12, 87 - (87 - col) % 12))
    roll = quantize(note_array([(pitch, 240 * pitch, 240, 0) for pitch in range(128)]), SPEC)
    assert np.array_equal(roll.frames, np.eye(NUM_PITCHES)[PITCH_COLUMN])


def test_short_note_kept_one_step():
    roll = quantize(note_array([(60, 0, 10, 0)]), SPEC)
    assert roll.frames[0][39] == 1.0


def test_onset_rounds_half_up():
    roll = quantize(note_array([(60, 120, 240, 0)]), SPEC)  # onset exactly halfway
    assert roll.frames[1][39] == 1.0 and len(roll) == 2


def test_quantize_empty_raises():
    with pytest.raises(EmptyAfterQuantization):
        quantize(note_array([]), SPEC)


def test_frame_pack_minimal():
    frames = np.zeros((2, 88))
    frames[0, 5] = frames[1, 6] = 1.0
    roll = PianoRoll(frames)
    inputs, targets, batch_sizes, rows = frame_pack([roll])
    assert np.array_equal(inputs, roll.frames[:1])
    assert np.array_equal(targets, roll.frames[1:])
    assert batch_sizes.tolist() == [1] and [r.tolist() for r in rows] == [[0]]


def test_frame_pack_shift_property():
    rng = np.random.Generator(np.random.PCG64(7))
    roll = PianoRoll((rng.uniform(0, 1, (9, 88)) < 0.1).astype(float))
    inputs, targets, batch_sizes, _ = frame_pack([roll])
    assert batch_sizes.tolist() == [1] * (len(roll) - 1) and len(inputs) == len(roll) - 1
    assert np.array_equal(targets[:-1], inputs[1:])


def test_frame_pack_too_short():
    with pytest.raises(TooShort):
        frame_pack([PianoRoll(np.zeros((1, 88)))])


def test_frame_pack_sorts_longest_first_with_ties_in_corpus_order():
    rng = np.random.Generator(np.random.PCG64(8))
    rolls = [PianoRoll((rng.uniform(0, 1, (n, 88)) < 0.1).astype(float), source_id=str(k))
             for k, n in enumerate((4, 9, 2, 9, 6, 4))]
    inputs, targets, batch_sizes, rows = frame_pack(rolls)
    assert [r[0] for r in rows] == [3, 0, 5, 1, 2, 4]
    for roll, r in zip(rolls, rows):
        assert np.array_equal(inputs[r], roll.frames[:-1])
        assert np.array_equal(targets[r], roll.frames[1:])
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(len(inputs)))
    want_inputs, want_sizes = pack([r.frames[:-1] for r in rolls])
    assert batch_sizes.tolist() == want_sizes.tolist() == [6, 5, 5, 3, 3, 2, 2, 2]
    assert np.array_equal(inputs, want_inputs)
    assert np.array_equal(targets, pack([r.frames[1:] for r in rolls])[0])
    assert not np.shares_memory(inputs, targets)


@pytest.mark.parametrize("lengths", [(9,), (7, 7, 7)])
def test_frame_pack_of_equal_lengths_makes_two_views_of_one_copy(lengths):
    rng = np.random.Generator(np.random.PCG64(9))
    rolls = [PianoRoll((rng.uniform(0, 1, (n, 88)) < 0.1).astype(float)) for n in lengths]
    inputs, targets, batch_sizes, rows = frame_pack(rolls)
    assert np.shares_memory(inputs, targets)
    assert not any(np.shares_memory(inputs, roll.frames) for roll in rolls)
    assert np.array_equal(inputs, pack([r.frames[:-1] for r in rolls])[0])
    assert np.array_equal(targets, pack([r.frames[1:] for r in rolls])[0])
    assert batch_sizes.tolist() == [len(rolls)] * (lengths[0] - 1)
    for roll, r in zip(rolls, rows):
        assert np.array_equal(targets[r], roll.frames[1:])


def test_render_merges_consecutive_steps():
    frames = np.zeros((2, 88))
    frames[:, 0] = 1.0
    events, _ = parse_midi(render_midi(PianoRoll(frames), SPEC))
    assert events.tolist() == [(21, 0, 480, 0)]


def test_render_all_zero_roll():
    # Its file would hold no note, and reading it back would raise the same.
    with pytest.raises(EmptyAfterQuantization, match="no sounding note"):
        render_midi(PianoRoll(np.zeros((4, 88))), SPEC)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_midi_round_trip_property(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = (rng.uniform(0, 1, (8, 88)) < 0.08).astype(float)
    frames[-1, 0] = 1.0  # non-silent tail so the length survives the trip
    roll = PianoRoll(frames)
    events, _ = parse_midi(render_midi(roll, SPEC))
    assert np.array_equal(quantize(events, SPEC).frames, frames)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.one_of(st.integers(1, 1 << 30),
                 st.sampled_from([(1 << 27) - 1, 1 << 27, (1 << 28) - 1, 1 << 28])),
       STEP_FRACTIONS)
def test_rendered_midi_parses_back_or_raises_too_long(num_frames, seed, tps, step_fraction):
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = (rng.uniform(0, 1, (num_frames, 88)) < 0.08).astype(float)
    frames[-1, 0] = 1.0  # non-silent tail so the length survives the trip
    spec = QuantizationSpec(tps, step_fraction)
    try:
        data = render_midi(PianoRoll(frames), spec)
    except TooLong:
        # No gap between events exceeds the roll's span.
        assert num_frames * tps >= 1 << 28
        return
    events, _ = parse_midi(data)
    assert np.array_equal(quantize(events, spec).frames, frames)


def test_render_refuses_a_delta_of_2_28_ticks():
    # A 4-step roll at PPQ 480 and a million quarter notes per step: every
    # gap is 4.8e8 ticks, a 5-byte delta time.
    frames = np.zeros((4, 88))
    frames[-1, 39] = 1.0
    with pytest.raises(TooLong, match="2\\^28"):
        render_midi(PianoRoll(frames), QuantizationSpec.for_ppq(480, 1e6))
    # One note over both steps: its note-off comes 2 * ticks_per_step after its note-on.
    roll = PianoRoll(np.ones((2, 88)))
    below = QuantizationSpec((1 << 27) - 1)
    events, _ = parse_midi(render_midi(roll, below))
    assert np.array_equal(quantize(events, below).frames, roll.frames)
    with pytest.raises(TooLong, match="2\\^28"):
        render_midi(roll, QuantizationSpec(1 << 27))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
       st.integers(0, 2**32 - 1),
       st.one_of(st.integers(1, 500), st.integers(1, 1 << 63),
                 st.sampled_from([(1 << 27) - 1, 1 << 27, (1 << 62) - 1, 1 << 62])),
       st.one_of(STEP_FRACTIONS, st.just(2 / 3), st.floats(1e-6, 1e6)))
def test_render_midi_matches_reference(num_frames, density, seed, tps, step_fraction):
    # The same bytes, or the same error: EmptyAfterQuantization, or
    # TooLong for a gap of 2^28 ticks or a note past tick 2^63.
    rng = np.random.Generator(np.random.PCG64(seed))
    roll = PianoRoll((rng.uniform(0, 1, (num_frames, 88)) < density).astype(float))
    spec = QuantizationSpec(tps, step_fraction)
    assert outcome(render_midi, roll, spec) == outcome(render_reference, roll, spec)


@settings(max_examples=300, deadline=None)
@given(EVENTS, st.one_of(st.integers(1, 500), st.just(10**20)))
@example([(60, 0, 100, 0), (60, 50, 400, 0), (72, 119, 2, 0)], 240)
@example([(0, 120, 1, 0), (127, 359, 1, 0)], 240)
def test_quantize_matches_reference(events, tps):
    spec = QuantizationSpec(tps)
    assert np.array_equal(quantize(note_array(events), spec).frames,
                          quantize_reference(events, spec))


# Split pieces: empty ones, and at a MAX_STEPS of 32 many refused as too long.
PIECES = st.lists(st.tuples(st.lists(st.tuples(PITCHES, st.integers(0, 4000),
                                               st.integers(1, 1500), st.just(0)), max_size=12),
                            st.one_of(st.integers(1, 500), st.sampled_from([120, 240, 10**20]))),
                  max_size=8)


@settings(max_examples=300, deadline=None)
@given(PIECES)
@example([([(60, 1 << 62, 1 << 61, 0)], 240), ([(60, 0, 100, 0)], 10**20)])  # caps apart
def test_quantize_split_matches_quantize_of_each_piece(pieces):
    with mock.patch.object(pianoroll, "MAX_STEPS", 32):
        args = [(note_array(events), QuantizationSpec(tps), f"piece{k}")
                for k, (events, tps) in enumerate(pieces)]
        split = quantize_split(args)
        assert len(split) == len(args)
        for (events, _), arg, got in zip(pieces, args, split):
            try:
                alone = quantize(*arg)
            except (EmptyAfterQuantization, TooLong) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                assert got.source_id == alone.source_id
                assert got.frames.tobytes() == alone.frames.tobytes()
                assert np.array_equal(got.frames, quantize_reference(events, arg[1]))


def test_a_split_piece_ending_on_its_last_step_leaks_into_no_next_piece():
    # The first piece's note ends on the step after its last row: its
    # -1.0 lands on the piece's spare end row, not on the next piece's first.
    first, second = quantize_split([(note_array([(60, 0, 480, 0)]), SPEC, "first"),
                                    (note_array([(64, 0, 720, 0)]), SPEC, "second")])
    column = 60 - MIN_PITCH
    assert len(first) == 2 and first.frames[:, column].tolist() == [1.0, 1.0]
    assert len(second) == 3 and not second.frames[:, column].any()
    assert np.array_equal(second.frames, quantize(note_array([(64, 0, 720, 0)]), SPEC).frames)
    # Both rolls are row views of one buffer, whose spare rows read 0.0.
    buffer = first.frames.base
    assert second.frames.base is buffer and buffer.shape == (7 * NUM_PITCHES,)
    assert not buffer.reshape(-1, NUM_PITCHES)[[2, 6]].any()


# Track events as (delta, event) byte pieces: notes on and off, running
# status, meta and sysex events, long deltas, and junk status bytes.
_DELTAS = st.sampled_from([b"\x00", b"\x60", b"\x83\x60"] * 3 + [b"\xff\xff\xff\x7f"])
_GOOD = [b"\x90\x3c\x40", b"\x90\x15\x7f", b"\x9f\x3c\x00", b"\x80\x3c\x00",
         b"\x80\x15\x40", b"\x3c\x40", b"\xc0\x05", b"\xff\x51\x03\x07\xa1\x20",
         b"\xf0\x01\xf7", b"\xff\x2f\x00"]
_JUNK = [b"\xf3", b"\x90\x80", b"\xff\x01\x09", b"\x3c"]
_EVENTS = st.sampled_from(_GOOD * 8 + _JUNK)


def _smf(fmt, num_tracks, division, pieces):
    body = b"".join(delta + event for delta, event in pieces)
    return (b"MThd" + struct.pack(">IHHH", 6, fmt, num_tracks, division)
            + b"MTrk" + struct.pack(">I", len(body)) + body)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=80),
                 st.builds(_smf, st.sampled_from([0, 1] * 4 + [2, 3]),
                           st.sampled_from([1] * 8 + [0, 2]),
                           st.sampled_from([1, 2, 96, 480, 0x7FFF] * 2 + [0, 0x8000]),
                           st.lists(st.tuples(_DELTAS, _EVENTS), max_size=30))),
       STEP_FRACTIONS)
def test_arbitrary_bytes_quantize_or_raise_documented_errors(data, step_fraction):
    with mock.patch.object(pianoroll, "MAX_STEPS", 512):
        try:
            events, ppq = parse_midi(data)
            roll = quantize(events, QuantizationSpec.for_ppq(ppq, step_fraction))
        except (MalformedMidi, UnsupportedFormat, EmptyAfterQuantization, TooLong):
            return
    assert 1 <= len(roll) <= 512


def test_quantize_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(pianoroll, "MAX_STEPS", 4)
    assert len(quantize(note_array([(60, 0, 4 * 240, 0)]), SPEC)) == 4
    with pytest.raises(TooLong):
        quantize(note_array([(60, 0, 4 * 240 + 120, 0)]), SPEC)  # rounds up to step 5
    with pytest.raises(TooLong):
        quantize(note_array([(60, 4 * 240, 1, 0)]), SPEC)  # kept at one step: 4..5


def test_quantize_refuses_a_2_27_tick_note():
    # One 4-byte delta at PPQ 1 spans 2^27 steps, about 94 GB of frames;
    # only the bound stands between this file and that allocation.
    events, ppq = parse_midi(write_midi(note_array([(60, 0, 1 << 27, 0)]), 1))
    assert ppq == 1 and events[0].duration_ticks == 1 << 27
    with pytest.raises(TooLong, match="MAX_STEPS"):
        quantize(events, QuantizationSpec.for_ppq(ppq))


def test_render_refuses_ticks_past_2_63():
    # NOTE ticks must fit int64; 2 steps of 2^62 ticks end at 2^63.
    roll = PianoRoll(np.ones((2, 88)))
    with pytest.raises(TooLong, match="2\\^28"):  # renderable ticks, but no 4-byte delta
        render_midi(roll, QuantizationSpec((1 << 62) - 1))
    with pytest.raises(TooLong, match="2\\^63"):
        render_midi(roll, QuantizationSpec(1 << 62))


def test_spec_rejects_bad_step_fraction():
    for bad in (0.0, -0.5, float("nan"), float("inf"), 1e306):
        with pytest.raises(ValueError, match="step_fraction"):
            QuantizationSpec(240, bad)


def test_spec_rejects_ticks_per_step_below_1():
    with pytest.raises(ValueError, match="ticks_per_step must be >= 1"):
        QuantizationSpec(0)


@pytest.mark.parametrize("shape, message", [((4, 87), r"frames must be \(T, 88\)"),
                                            ((0, 88), "at least one frame")])
def test_piano_roll_rejects_a_shape_that_is_not_rows_of_88(shape, message):
    with pytest.raises(ValueError, match=message):
        PianoRoll(np.zeros(shape))


@pytest.mark.parametrize("ppq", [0, -480])
def test_for_ppq_rejects_a_ppq_below_1(ppq):
    with pytest.raises(ValueError, match="ppq must be >= 1"):
        QuantizationSpec.for_ppq(ppq)


@pytest.fixture(scope="module")
def max_steps_quantize_peak():
    """`quantize`'s traced peak on notes that make a MAX_STEPS roll, in rolls."""
    rng = np.random.Generator(np.random.PCG64(3))
    events = note_array([(int(p), int(o), int(d), 0) for p, o, d in zip(
        rng.integers(0, 128, 3000), rng.integers(0, (MAX_STEPS - 8) * 240, 3000),
        rng.integers(1, 2000, 3000))] + [(60, 0, MAX_STEPS * 240, 0)])
    roll_bytes = quantize(events, SPEC).frames.nbytes
    assert roll_bytes == MAX_STEPS * NUM_PITCHES * 8
    return traced_peak(quantize, events, SPEC) / roll_bytes


def test_quantize_of_a_max_steps_roll_peaks_below_1_6_rolls(max_steps_quantize_peak):
    # The roll is 46 MB of float64. Its step marks are counted and summed
    # in that one buffer: no integer counts, bool roll or copy beside it.
    assert max_steps_quantize_peak <= 1.6


def test_quantize_of_a_max_steps_roll_peaks_below_1_2_rolls(max_steps_quantize_peak):
    # Beside the roll, PianoRoll's value check holds one bool array, 1/8 of
    # the roll, from comparing it with 1.0.
    assert max_steps_quantize_peak <= 1.2


@pytest.mark.parametrize("value, accepted", [
    (0.0, True), (-0.0, True), (1.0, True), (np.nan, False), (np.inf, False),
    (-np.inf, False), (0.5, False), (2.0, False), (-1.0, False), (5e-324, False),
    (1.0 - 2**-53, False), (1.0 + 2**-52, False)])
def test_piano_roll_accepts_exactly_0_and_1(value, accepted):
    frames = np.zeros((3, NUM_PITCHES))
    frames[0, 4] = 1.0
    frames[1, 7] = value
    if accepted:
        assert PianoRoll(frames).frames[1, 7] == value
    else:
        with pytest.raises(ValueError, match="exactly 0.0 or 1.0"):
            PianoRoll(frames)


def test_load_roll_spec_carries_the_step_length(tmp_path):
    path = tmp_path / "sixteenths.mid"
    path.write_bytes(write_midi(note_array([(60, 0, 720, 0), (64, 720, 240, 0)]), 480))
    roll, spec = load_roll(str(path), 0.25)
    assert spec == QuantizationSpec(120, 0.25)
    assert roll.source_id == "sixteenths.mid" and len(roll) == 8
    assert parsed(render_midi(roll, spec)) == parsed(path.read_bytes())


def test_chorale64_mid_loads_as_the_chorale64_fixture():
    # The .mid that conftest loads is pinned to the text fixture it was rendered from.
    with open(os.path.join(DATA_DIR, "chorale64.txt")) as fh:
        text_roll = parse_pianoroll_text(fh.read())
    path = os.path.join(DATA_DIR, "chorale64.mid")
    roll, spec = load_roll(path, 0.5)
    assert spec == QuantizationSpec(240, 0.5)
    assert len(roll) == 64 and np.array_equal(roll.frames, text_roll.frames)
    with open(path, "rb") as fh:  # the file is the fixture as render_midi writes it
        assert fh.read() == render_midi(text_roll, spec)


@pytest.mark.parametrize("ppq", [1, 3, 5, 480])
def test_note_length_survives_a_round_trip_at_any_ppq(ppq):
    # At PPQ 1, 3 and 5 an eighth note is not a whole number of ticks.
    events, ppq = parse_midi(write_midi(note_array([(60, 0, 4 * ppq, 0)]), ppq))
    spec = QuantizationSpec.for_ppq(ppq, 0.5)
    again, again_ppq = parse_midi(render_midi(quantize(events, spec), spec))
    assert again_ppq == ppq
    assert [e.duration_ticks / again_ppq for e in again] == [4.0]


TEXT_ROWS = ["1" + "0" * 87, "0" * 88, "0" * 86 + "11"]


def test_parse_pianoroll_text():
    roll = parse_pianoroll_text("PIANOROLL v1 T=3 P=88\n" + "\n".join(TEXT_ROWS) + "\n", "x")
    expected = np.zeros((3, 88))
    expected[0, 0] = expected[2, 86] = expected[2, 87] = 1.0
    assert np.array_equal(roll.frames, expected) and roll.source_id == "x"


@pytest.mark.parametrize("header, rows, message", [
    ("PIANOROLL v1 T=4 P=88", TEXT_ROWS, "does not match body"),
    ("PIANOROLL v1 T=3 P=88", TEXT_ROWS[:2], "does not match body"),
    ("PIANOROLL v1 T=3 P=87", TEXT_ROWS, "does not match body"),
    ("PIANOROLL v2 T=3 P=88", TEXT_ROWS, "bad piano-roll header"),
    ("PIANOROLL v1 T=1", TEXT_ROWS[:1], "bad piano-roll header"),
    ("PIANOROLL v1 T=1 P=88 X", TEXT_ROWS[:1], "bad piano-roll header"),
    ("PIANOROLL v1 T=x P=88", TEXT_ROWS[:1], "bad piano-roll header")])
def test_parse_pianoroll_text_rejects_a_bad_header(header, rows, message):
    with pytest.raises(ValueError, match=message):
        parse_pianoroll_text("\n".join([header, *rows]))


def _write_roll(path, frames):
    roll = PianoRoll(frames)
    with open(path, "wb") as fh:
        fh.write(render_midi(roll, SPEC))


def test_load_corpus(tmp_path):
    os.makedirs(tmp_path / "train")
    os.makedirs(tmp_path / "test")
    frames = np.zeros((4, 88))
    frames[:, 10] = 1.0
    _write_roll(tmp_path / "train" / "b.mid", frames)
    _write_roll(tmp_path / "train" / "a.mid", frames)
    _write_roll(tmp_path / "test" / "c.mid", frames)
    (tmp_path / "train" / "bad.mid").write_bytes(b"not midi at all")
    os.makedirs(tmp_path / "valid")  # not read: neither a roll nor a warning
    (tmp_path / "valid" / "v.mid").write_bytes(b"not midi at all")
    corpus = load_corpus(str(tmp_path))
    assert [r.source_id for r in corpus.train] == ["a.mid", "b.mid"]
    assert [r.source_id for r in corpus.test] == ["c.mid"]
    assert len(corpus.warnings) == 1


def test_load_split_passes_over_files_that_are_not_midi(tmp_path):
    os.makedirs(tmp_path / "train")
    frames = np.zeros((4, 88))
    frames[:, 10] = 1.0
    _write_roll(tmp_path / "train" / "a.mid", frames)
    (tmp_path / "train" / "notes.txt").write_text("not a piece, and no warning")
    rolls, warnings = load_split(str(tmp_path), "train")
    assert [r.source_id for r in rolls] == ["a.mid"]
    assert warnings == []


def load_split_reference(directory, split):
    """`load_roll` and `frame_pairs` on each file in turn: the oracle for `load_split`."""
    rolls, warnings = [], []
    split_dir = os.path.join(directory, split)
    for name in sorted(os.listdir(split_dir)):
        if not name.lower().endswith((".mid", ".midi")):
            continue
        path = os.path.join(split_dir, name)
        try:
            roll = load_roll(path, 0.5)[0]
            frame_pairs(roll)
            rolls.append(roll)
        except (Error, OSError) as exc:
            warnings.append(f"{path}: {exc}")
    return rolls, warnings


def test_load_split_of_a_mixed_directory_matches_a_per_file_loop(tmp_path):
    split_dir = tmp_path / "train"
    os.makedirs(split_dir / "folder.mid")  # open() raises IsADirectoryError
    for k, length in enumerate([5, 17, 2, 9]):
        _write_roll(split_dir / f"good{k}.mid", chorale_piece(k, length).frames)
    _write_roll(split_dir / "UPPER.MIDI", chorale_piece(7, 4).frames)
    _write_roll(split_dir / "one_frame.mid", chorale_piece(8, 1).frames)
    (split_dir / "garbage.mid").write_bytes(b"\x00\xffnot a MIDI file at all")
    (split_dir / "no_note.mid").write_bytes(write_midi(note_array([]), 480))
    (split_dir / "too_long.mid").write_bytes(write_midi(note_array([(60, 0, 1 << 27, 0)]), 1))
    (split_dir / "readme.txt").write_text("not a piece")
    rolls, warnings = load_split(str(tmp_path), "train")
    want_rolls, want_warnings = load_split_reference(str(tmp_path), "train")
    assert [r.source_id for r in rolls] == [r.source_id for r in want_rolls] == [
        "UPPER.MIDI", "good0.mid", "good1.mid", "good2.mid", "good3.mid"]
    assert [r.frames.tobytes() for r in rolls] == [r.frames.tobytes() for r in want_rolls]
    assert warnings == want_warnings
    assert [w[len(str(split_dir)) + 1 :].split(":")[0] for w in warnings] == [
        "folder.mid", "garbage.mid", "no_note.mid", "one_frame.mid", "too_long.mid"]
    for warning, text in zip(warnings[1:], ["missing MThd header", "no events to quantize",
                                            "need >= 2 frames, got 1", "exceed MAX_STEPS"]):
        assert text in warning


def test_load_split_of_many_short_pieces_peaks_below_1_4_rolls(tmp_path):
    # The rolls are row views of one buffer with a spare row per piece;
    # beside it the split's notes and their step cells are held, but no
    # second copy of the buffer, which alone would read 2.
    os.makedirs(tmp_path / "train")
    for k in range(120):
        _write_roll(tmp_path / "train" / f"piece{k:03d}.mid", chorale_piece(k, 16 + k % 17).frames)
    rolls, warnings = load_split(str(tmp_path), "train")
    assert len(rolls) == 120 and not warnings
    roll_bytes = sum(roll.frames.nbytes for roll in rolls)
    assert traced_peak(load_split, str(tmp_path), "train") <= 1.4 * roll_bytes


def test_load_corpus_empty(tmp_path):
    os.makedirs(tmp_path / "train")
    with pytest.raises(EmptyCorpus):
        load_corpus(str(tmp_path))


def test_render_caps_ppq_of_a_ppq_32767_seed():
    # 0.5 quarter notes at PPQ 32767 round to 16384 ticks per step, which
    # would ask for PPQ 32768; the rendered file caps PPQ at 32767.
    events, ppq = parse_midi(write_midi(note_array([(60, 0, 3 * 16384, 0)]), 0x7FFF))
    spec = QuantizationSpec.for_ppq(ppq, 0.5)
    roll = quantize(events, spec)
    again, again_ppq = parse_midi(render_midi(roll, spec))
    assert again_ppq == 0x7FFF
    assert QuantizationSpec.for_ppq(again_ppq, 0.5) == spec
    assert np.array_equal(quantize(again, spec).frames, roll.frames)
