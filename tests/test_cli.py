import os
import shutil

import numpy as np
import pytest

from choralegen.cli import main
from choralegen.model_io import load_model
from choralegen.pianoroll import (PianoRoll, QuantizationSpec, parse_midi,
                                  quantize, render_midi)

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
