import os
import shutil

import numpy as np
import pytest

from choralegen.cli import main
from choralegen.model_io import load_model, save_model
from choralegen.network import NetworkConfig, init_params
from choralegen.pianoroll import (PianoRoll, QuantizationSpec, parse_midi,
                                  quantize, render_midi)
from choralegen.smf import NoteEvent, write_midi

SPEC = QuantizationSpec(ticks_per_step=240)

CONFIG_TEXT = """
num_blocks = 16
delta_max = 0.1
max_epochs = 400
target_mse = 1e-5
log_every = 1000
"""


def alternating_frames(num_frames=12):
    frames = np.zeros((num_frames, 88))
    frames[0::2, 10] = 1.0
    frames[1::2, 50] = 1.0
    return frames


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus"
    for split in ("train", "test"):
        os.makedirs(corpus / split)
    midi = render_midi(PianoRoll(alternating_frames()), SPEC)
    (corpus / "train" / "piece.mid").write_bytes(midi)
    (corpus / "test" / "piece.mid").write_bytes(midi)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    return tmp_path


def train_args(ws, model="model.chlf"):
    return ["train", "--config", str(ws / "run.cfg"),
            "--corpus", str(ws / "corpus"), "--out", str(ws / model)]


def test_train_writes_model_and_history(workspace, capsys):
    assert main(train_args(workspace)) == 0
    out = capsys.readouterr().out
    assert "final mse" in out
    params = load_model(str(workspace / "model.chlf"))
    assert params.num_blocks == 16
    history = (workspace / "model.chlf.history.tsv").read_text()
    assert history.startswith("epoch\tmse")


def test_train_skips_corrupt_midi(workspace, capsys):
    (workspace / "corpus" / "train" / "bad.mid").write_bytes(b"garbage")
    assert main(train_args(workspace)) == 0
    assert "skipped" in capsys.readouterr().err


def test_train_determinism(workspace):
    assert main(train_args(workspace, "a.chlf")) == 0
    assert main(train_args(workspace, "b.chlf")) == 0
    assert (workspace / "a.chlf").read_bytes() == (workspace / "b.chlf").read_bytes()


def test_evaluate_memorized_corpus(workspace, capsys):
    assert main(train_args(workspace)) == 0
    assert main(["evaluate", "--config", str(workspace / "run.cfg"),
                 "--model", str(workspace / "model.chlf"),
                 "--corpus", str(workspace / "corpus")]) == 0
    assert "100.00%" in capsys.readouterr().out


def test_corpus_env_var(workspace, monkeypatch):
    monkeypatch.setenv("CHORALEGEN_CORPUS", str(workspace / "corpus"))
    args = train_args(workspace)
    args.remove("--corpus")
    args.remove(str(workspace / "corpus"))
    assert main(args) == 0


def test_generate_zero_steps_round_trips_seed(workspace, tmp_path):
    assert main(train_args(workspace)) == 0
    seed_path = workspace / "corpus" / "train" / "piece.mid"
    out_path = workspace / "gen.mid"
    assert main(["generate", "--model", str(workspace / "model.chlf"),
                 "--seed-midi", str(seed_path), "--steps", "0",
                 "--out", str(out_path)]) == 0
    events, _ = parse_midi(out_path.read_bytes())
    roll = quantize(events, SPEC)
    assert np.array_equal(roll.frames, alternating_frames()[:1])


def test_generate_negative_steps_exit_1(workspace, capsys):
    assert main(["generate", "--model", str(workspace / "model.chlf"),
                 "--seed-midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--steps", "-5", "--out", str(workspace / "gen.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "num_steps" in err
    assert len(err.strip().splitlines()) == 1
    assert not (workspace / "gen.mid").exists()


def test_negative_truncation_window_exit_1(workspace, capsys):
    (workspace / "run.cfg").write_text(CONFIG_TEXT + "truncation_window = -3\n")
    assert main(train_args(workspace)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncation_window" in err
    assert not (workspace / "model.chlf").exists()


def untrained_model(ws):
    path = ws / "untrained.chlf"
    save_model(str(path), init_params(NetworkConfig(num_blocks=4)))
    return str(path)


def test_generate_keeps_the_seed_note_lengths(workspace):
    # Eight sixteenth-note rows: C4 for 1.5 quarters, then E4 for 0.5.
    (workspace / "run.cfg").write_text("step_fraction = 0.25\nseed_frames = 8\n")
    seed = workspace / "seed.mid"
    seed.write_bytes(write_midi([NoteEvent(60, 0, 720), NoteEvent(64, 720, 240)], 480))
    out = workspace / "gen.mid"
    assert main(["generate", "--config", str(workspace / "run.cfg"),
                 "--model", untrained_model(workspace), "--seed-midi", str(seed),
                 "--steps", "0", "--out", str(out)]) == 0
    events, ppq = parse_midi(out.read_bytes())
    assert [(e.pitch, e.onset_ticks / ppq, e.duration_ticks / ppq) for e in events] \
        == [(60, 0.0, 1.5), (64, 1.5, 0.5)]


def test_reconstruct_rows_are_sixteenths(workspace):
    (workspace / "run.cfg").write_text("step_fraction = 0.25\n")
    out = workspace / "recon.mid"
    assert main(["reconstruct", "--config", str(workspace / "run.cfg"),
                 "--model", untrained_model(workspace),
                 "--midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--out", str(out)]) == 0
    # The piece is written at PPQ 480, so a sixteenth-note row is 120
    # ticks; the rendition keeps one row at a quarter of a quarter note.
    _, ppq = parse_midi(out.read_bytes())
    assert QuantizationSpec.for_ppq(ppq, 0.25).ticks_per_step == 120 and ppq == 480


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_step_fraction_exit_1(workspace, capsys, value):
    (workspace / "run.cfg").write_text(f"step_fraction = {value}\n")
    # No model file exists: the config must fail before any input is read.
    assert main(["generate", "--config", str(workspace / "run.cfg"),
                 "--model", str(workspace / "missing.chlf"),
                 "--seed-midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--steps", "4", "--out", str(workspace / "gen.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and "step_fraction" in err
    assert len(err.strip().splitlines()) == 1


def huge_midi():
    # One 4-byte delta at PPQ 1: 2^27 eighth-note steps.
    return write_midi([NoteEvent(60, 0, 1 << 27)], 1)


@pytest.mark.parametrize("command", ["generate", "reconstruct"])
def test_too_long_seed_exit_1(workspace, capsys, command):
    huge = workspace / "huge.mid"
    huge.write_bytes(huge_midi())
    out = workspace / "out.mid"
    args = (["--seed-midi", str(huge), "--steps", "4"] if command == "generate"
            else ["--midi", str(huge)])
    assert main([command, "--model", untrained_model(workspace), *args,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: huge.mid:") and "MAX_STEPS" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_train_skips_too_long_midi(workspace, capsys):
    (workspace / "corpus" / "train" / "huge.mid").write_bytes(huge_midi())
    assert main(train_args(workspace)) == 0
    err = capsys.readouterr().err
    assert "warning: skipped" in err and "huge.mid" in err and "MAX_STEPS" in err


def test_reconstruct_command(workspace, capsys):
    assert main(train_args(workspace)) == 0
    assert main(["reconstruct", "--model", str(workspace / "model.chlf"),
                 "--midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--out", str(workspace / "recon.mid")]) == 0
    out = capsys.readouterr().out
    assert "frame accuracy: 1.0000" in out
    assert (workspace / "recon.mid").exists()


def test_tampered_model_exit_3(workspace, capsys):
    assert main(train_args(workspace)) == 0
    data = bytearray((workspace / "model.chlf").read_bytes())
    data[100] ^= 0x01
    (workspace / "model.chlf").write_bytes(bytes(data))
    assert main(["evaluate", "--model", str(workspace / "model.chlf"),
                 "--corpus", str(workspace / "corpus")]) == 3


def test_missing_corpus_exit_1(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.chlf")]) == 1


def test_bad_config_exit_1(workspace, capsys):
    (workspace / "run.cfg").write_text("bogus_key = 1")
    assert main(train_args(workspace)) == 1


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out
