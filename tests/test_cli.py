import contextlib
import io
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from choralegen.cli import CORPUS_ENV, main
from choralegen.config import KEYS
from choralegen.model_io import load_model, save_model
from choralegen.network import NetworkConfig, init_params
from choralegen.pianoroll import (PianoRoll, QuantizationSpec, parse_midi,
                                  quantize, render_midi)
from choralegen.smf import write_midi

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


def test_evaluate_labels_the_row_with_the_model_file(workspace, capsys):
    # .chlf does not record the optimizer, so the report must not name one.
    assert main([*train_args(workspace, "gd_run.chlf"), "--optimizer", "gd"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(workspace / "gd_run.chlf"),
                 "--corpus", str(workspace / "corpus")]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header.split()[0] == "model" and row.split()[0] == "gd_run"


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
    seed.write_bytes(write_midi([(60, 0, 720, 0), (64, 720, 240, 0)], 480))
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
    return write_midi([(60, 0, 1 << 27, 0)], 1)


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


@pytest.mark.parametrize("command", ["generate", "reconstruct"])
def test_silent_rendition_exit_1(workspace, capsys, command):
    # The seed's first step is silent and the untrained model predicts no
    # note, so the roll to write holds none: a file its own reader refuses.
    frames = alternating_frames()
    frames[0] = 0.0
    late = workspace / "late.mid"
    late.write_bytes(render_midi(PianoRoll(frames), SPEC))
    out = workspace / "out.mid"
    args = (["--seed-midi", str(late), "--steps", "8"] if command == "generate"
            else ["--midi", str(late)])
    assert main([command, "--model", untrained_model(workspace), *args,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: generated: no sounding note to render\n"
    assert not out.exists()


def test_reconstruct_one_frame_piece_exit_1(workspace, capsys):
    one = workspace / "one.mid"
    one.write_bytes(write_midi([(60, 0, 240, 0)], 480))  # one eighth-note step
    assert main(["reconstruct", "--model", untrained_model(workspace),
                 "--midi", str(one)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: one.mid:") and ">= 2 frames" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_generate_failed_render_writes_no_file(workspace, capsys):
    # One step of 480e18 ticks: the 5-frame rendition passes 2^63 ticks.
    (workspace / "run.cfg").write_text("step_fraction = 1e18\n")
    out = workspace / "gen.mid"
    assert main(["generate", "--config", str(workspace / "run.cfg"),
                 "--model", untrained_model(workspace),
                 "--seed-midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--steps", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^63 ticks" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def one_frame_midi():
    return write_midi([(60, 0, 240, 0)], 480)  # one eighth-note step


def test_train_skips_one_frame_midi(workspace, capsys):
    (workspace / "corpus" / "train" / "b.mid").write_bytes(one_frame_midi())
    assert main(train_args(workspace)) == 0
    err = capsys.readouterr().err
    assert "warning: skipped" in err and "b.mid" in err and ">= 2 frames" in err


def test_evaluate_skips_one_frame_midi(workspace, capsys):
    (workspace / "corpus" / "test" / "b.mid").write_bytes(one_frame_midi())
    assert main(["evaluate", "--model", untrained_model(workspace),
                 "--corpus", str(workspace / "corpus")]) == 0
    err = capsys.readouterr().err
    assert "warning: skipped" in err and "b.mid" in err and ">= 2 frames" in err


def test_evaluate_empty_test_split_exit_1(workspace, capsys):
    os.remove(workspace / "corpus" / "test" / "piece.mid")
    assert main(["evaluate", "--model", untrained_model(workspace),
                 "--corpus", str(workspace / "corpus")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "empty test split" in err
    assert len(err.strip().splitlines()) == 1


def test_generate_unwritable_delta_exit_1(workspace, capsys):
    # PPQ 480 at a million quarter notes per step: 4.8e8 ticks per step, so
    # every gap needs a 5-byte delta time, more than SMF allows.
    (workspace / "run.cfg").write_text("step_fraction = 1e6\n")
    out = workspace / "gen.mid"
    assert main(["generate", "--config", str(workspace / "run.cfg"),
                 "--model", untrained_model(workspace),
                 "--seed-midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--steps", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^28" in err
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


COMMAND_ARGS = {
    "generate": lambda ws: ["--seed-midi", str(ws / "corpus" / "train" / "piece.mid"),
                            "--steps", "4", "--out", str(ws / "out.mid")],
    "reconstruct": lambda ws: ["--midi", str(ws / "corpus" / "train" / "piece.mid"),
                               "--out", str(ws / "out.mid")],
    "evaluate": lambda ws: ["--corpus", str(ws / "corpus")],
}


@pytest.mark.parametrize("sizes", [(3, 3, 3), (88, 3, 5)], ids=["3-3-3", "88-3-5"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_model_of_other_layer_sizes_exit_3(workspace, capsys, command, sizes):
    # A valid .chlf that does not read and predict 88-pitch frames.
    path = workspace / "other.chlf"
    ni, nb, no = sizes
    save_model(str(path), init_params(NetworkConfig(num_inputs=ni, num_blocks=nb,
                                                    num_outputs=no)))
    assert main([command, "--model", str(path), *COMMAND_ARGS[command](workspace)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"layer sizes {ni}-{nb}-{no}" in err
    assert len(err.strip().splitlines()) == 1
    assert not (workspace / "out.mid").exists()


def test_evaluate_reads_only_test(workspace, capsys):
    shutil.rmtree(workspace / "corpus" / "train")
    assert main(["evaluate", "--model", untrained_model(workspace),
                 "--corpus", str(workspace / "corpus")]) == 0
    assert capsys.readouterr().err == ""


def test_train_reads_only_train(workspace, capsys):
    (workspace / "corpus" / "test" / "bad.mid").write_bytes(b"garbage")
    assert main(train_args(workspace)) == 0
    assert "warning" not in capsys.readouterr().err


def test_missing_corpus_exit_1(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.chlf")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corpus directory") and "nope" in err and "not found" in err


def test_train_without_a_corpus_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    assert main(["train", "--out", str(tmp_path / "m.chlf")]) == 1
    assert capsys.readouterr().err.startswith("error: no corpus directory given")
    assert not (tmp_path / "m.chlf").exists()


@pytest.mark.parametrize("flag", ["--out", "--history"])
def test_train_output_in_a_missing_directory_exit_1_before_the_corpus_is_read(
        workspace, capsys, flag):
    # The corpus is not read (no warning for its corrupt file) and no
    # epoch runs: the run would be lost when its model or history is written.
    (workspace / "corpus" / "train" / "bad.mid").write_bytes(b"garbage")
    missing = workspace / "nope" / "out"
    args = train_args(workspace) + [flag, str(missing)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: directory of {missing} not found"]
    assert captured.out == ""
    assert not (workspace / "model.chlf").exists()


def test_bad_config_exit_1(workspace, capsys):
    (workspace / "run.cfg").write_text("bogus_key = 1")
    assert main(train_args(workspace)) == 1


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def command_args(ws, command):
    # No model file exists: every command must fail on the config first.
    model, piece = str(ws / "missing.chlf"), str(ws / "corpus" / "train" / "piece.mid")
    return {
        "train": ["--corpus", str(ws / "corpus"), "--out", str(ws / "out.chlf")],
        "generate": ["--model", model, "--seed-midi", piece, "--steps", "4",
                     "--out", str(ws / "out.mid")],
        "evaluate": ["--model", model, "--corpus", str(ws / "corpus")],
        "reconstruct": ["--model", model, "--midi", piece, "--out", str(ws / "out.mid")],
        "gradcheck": [],
    }[command]


def error_places(err):
    """The lines and flags an `error: <places>: <message>` line names."""
    assert err.startswith("error: ")
    return err.split(":")[1].strip().split(", ")


COMMANDS = ["train", "generate", "evaluate", "reconstruct", "gradcheck"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("line", ["num_blocks = 0", "threshold = 1.5", "seed = -1",
                                  "init_scale = inf", "delta_max = 0.05",
                                  "optimizer = adam", "rprop_variant = x",
                                  "truncation_window = -3", "learning_rate = nan",
                                  "delta_max = inf", "eta_plus = inf",
                                  "seed_frames = 70000", "init_scale = 1e308",
                                  "step_fraction = 1e306", "eta_plus = 1e308"])
def test_bad_config_value_exit_1_on_every_command(workspace, capsys, command, line):
    (workspace / "run.cfg").write_text(f"# one bad value\n{line}\n")
    assert main([command, "--config", str(workspace / "run.cfg"),
                 *command_args(workspace, command)]) == 1
    err = capsys.readouterr().err
    # generate's --steps sets a field of the same section as threshold.
    assert error_places(err) in (["line 2"], ["line 2", "--steps"])
    assert len(err.strip().splitlines()) == 1
    assert not any(workspace.glob("out.*"))


def test_seed_frames_past_max_steps_states_both_values(workspace, capsys):
    (workspace / "run.cfg").write_text("seed_frames = 70000\n")
    assert main(["gradcheck", "--config", str(workspace / "run.cfg")]) == 1
    assert capsys.readouterr().err == ("error: line 1: seed_frames (70000) + num_steps (1) "
                                       "must be <= MAX_STEPS = 65536\n")


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--threshold", "1.5"), ("generate", "--threshold", "0"),
    ("reconstruct", "--threshold", "nan"), ("train", "--seed", "-1"),
    ("gradcheck", "--seed", "x"), ("train", "--optimizer", "adam")])
def test_bad_flag_value_exit_1(workspace, capsys, command, flag, value):
    assert main([command, flag, value, *command_args(workspace, command)]) == 1
    err = capsys.readouterr().err
    assert flag in error_places(err)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, flag", [
    ("train", "--threshold"), ("gradcheck", "--threshold"), ("evaluate", "--seed"),
    ("generate", "--seed"), ("reconstruct", "--seed"), ("evaluate", "--optimizer")])
def test_flag_a_command_ignores_is_a_usage_error(workspace, capsys, command, flag):
    assert main([command, flag, "1", *command_args(workspace, command)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_error_exit_1(workspace, capsys):
    args = command_args(workspace, "generate")
    assert main(["generate", *args[:-2]]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_bad_steps_exit_1(workspace, capsys):
    args = command_args(workspace, "generate")
    args[args.index("--steps") + 1] = "abc"
    assert main(["generate", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --steps: invalid literal")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("steps", ["65536", "65537", "100000000000"])
def test_too_many_steps_exit_1(workspace, capsys, steps):
    # Checked at load: the roll is never allocated.
    assert main(["generate", "--model", untrained_model(workspace),
                 "--seed-midi", str(workspace / "corpus" / "train" / "piece.mid"),
                 "--steps", steps, "--out", str(workspace / "gen.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --steps:") and "MAX_STEPS" in err
    assert len(err.strip().splitlines()) == 1
    assert not (workspace / "gen.mid").exists()


def test_non_utf8_config_exit_1(workspace, capsys):
    (workspace / "run.cfg").write_bytes(b"num_blocks = 4\n\xff\n")
    assert main(["gradcheck", "--config", str(workspace / "run.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert len(err.strip().splitlines()) == 1


CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(KEYS)),
              st.one_of(st.integers(-3, 10 ** 6).map(str), st.floats().map(repr),
                        st.text(max_size=6))).map(" = ".join),
    st.text(max_size=12))
ARGV_TOKENS = st.one_of(st.sampled_from([*COMMANDS, "--config", "--seed", "--threshold",
                                         "--optimizer", "--steps", "--model", "--out",
                                         "--corpus", "--midi", "--seed-midi", "--history",
                                         "-h", "gd", "1", "-1", "0.5", "nan"]),
                        st.text(st.characters(codec="ascii", exclude_characters="/\\\x00"),
                                max_size=6))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.lists(CONFIG_LINES, max_size=6).map("\n".join),
       junk=st.lists(ARGV_TOKENS, max_size=6))
def test_cli_on_generated_configs_and_argv_exits_documented(tmp_path, monkeypatch,
                                                            config, junk):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    (tmp_path / "gen.cfg").write_text(config, encoding="utf-8")
    for argv in (["gradcheck", "--config", "gen.cfg"], junk):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
