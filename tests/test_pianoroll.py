import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choralegen.errors import EmptyAfterQuantization, EmptyCorpus, TooShort
from choralegen.pianoroll import (PianoRoll, QuantizationSpec,
                                  format_pianoroll_text, load_corpus,
                                  parse_pianoroll_text, quantize, render_midi,
                                  to_supervised)
from choralegen.smf import NoteEvent, parse_midi, write_midi

SPEC = QuantizationSpec(ticks_per_step=240)


def test_a0_two_steps():
    roll = quantize([NoteEvent(21, 0, 480)], SPEC)
    assert roll.frames[0][0] == 1.0 and roll.frames[1][0] == 1.0
    assert roll.frames.sum() == 2.0


def test_simultaneous_pitches_one_frame():
    roll = quantize([NoteEvent(60, 0, 240), NoteEvent(64, 0, 240)], SPEC)
    assert len(roll) == 1
    assert set(np.flatnonzero(roll.frames[0])) == {60 - 21, 64 - 21}


def test_low_pitch_octave_folded():
    roll = quantize([NoteEvent(10, 0, 240)], SPEC)
    assert np.flatnonzero(roll.frames[0]).tolist() == [22 - 21]


def test_high_pitch_octave_folded():
    roll = quantize([NoteEvent(120, 0, 240)], SPEC)
    assert np.flatnonzero(roll.frames[0]).tolist() == [108 - 21]


def test_short_note_kept_one_step():
    roll = quantize([NoteEvent(60, 0, 10)], SPEC)
    assert roll.frames[0][39] == 1.0


def test_onset_rounds_half_up():
    roll = quantize([NoteEvent(60, 120, 240)], SPEC)  # onset exactly halfway
    assert roll.frames[1][39] == 1.0 and len(roll) == 2


def test_quantize_empty_raises():
    with pytest.raises(EmptyAfterQuantization):
        quantize([], SPEC)


def test_to_supervised_minimal():
    frames = np.zeros((2, 88))
    frames[0, 5] = frames[1, 6] = 1.0
    sup = to_supervised(PianoRoll(frames))
    roll = PianoRoll(frames)
    assert np.array_equal(sup.inputs, roll.frames[:1])
    assert np.array_equal(sup.targets, roll.frames[1:])


def test_to_supervised_shift_property():
    rng = np.random.Generator(np.random.PCG64(7))
    roll = PianoRoll((rng.uniform(0, 1, (9, 88)) < 0.1).astype(float))
    sup = to_supervised(roll)
    assert len(sup.inputs) == len(roll) - 1
    assert np.array_equal(sup.targets[:-1], sup.inputs[1:])


def test_to_supervised_too_short():
    with pytest.raises(TooShort):
        to_supervised(PianoRoll(np.zeros((1, 88))))


def test_render_merges_consecutive_steps():
    frames = np.zeros((2, 88))
    frames[:, 0] = 1.0
    events, _ = parse_midi(render_midi(PianoRoll(frames), SPEC))
    assert events == [NoteEvent(21, 0, 480)]


def test_render_all_zero_roll():
    events, _ = parse_midi(render_midi(PianoRoll(np.zeros((4, 88))), SPEC))
    assert events == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_midi_round_trip_property(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = (rng.uniform(0, 1, (8, 88)) < 0.08).astype(float)
    frames[-1, 0] = 1.0  # non-silent tail so the length survives the trip
    roll = PianoRoll(frames)
    events, _ = parse_midi(render_midi(roll, SPEC))
    assert np.array_equal(quantize(events, SPEC).frames, frames)


def test_text_format_round_trip(chorale64):
    again = parse_pianoroll_text(format_pianoroll_text(chorale64))
    assert np.array_equal(again.frames, chorale64.frames)


def test_text_format_header():
    text = format_pianoroll_text(PianoRoll(np.zeros((3, 88))))
    assert text.splitlines()[0] == "PIANOROLL v1 T=3 P=88"


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
    corpus = load_corpus(str(tmp_path))
    assert [r.source_id for r in corpus.train] == ["a.mid", "b.mid"]
    assert len(corpus.test) == 1 and not corpus.valid
    assert len(corpus.warnings) == 1


def test_load_corpus_empty(tmp_path):
    os.makedirs(tmp_path / "train")
    with pytest.raises(EmptyCorpus):
        load_corpus(str(tmp_path))


def test_render_caps_ppq_of_a_ppq_32767_seed():
    # 0.5 quarter notes at PPQ 32767 round to 16384 ticks per step, which
    # would ask for PPQ 32768; the rendered file caps PPQ at 32767.
    events, ppq = parse_midi(write_midi([NoteEvent(60, 0, 3 * 16384)], 0x7FFF))
    spec = QuantizationSpec.for_ppq(ppq, 0.5)
    roll = quantize(events, spec)
    again, again_ppq = parse_midi(render_midi(roll, spec))
    assert again_ppq == 0x7FFF
    assert QuantizationSpec.for_ppq(again_ppq, 0.5) == spec
    assert np.array_equal(quantize(again, spec).frames, roll.frames)
