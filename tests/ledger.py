"""Byte ledger: the sha256 of every model, history, MIDI file and report
that a fixed set of training recipes makes, printed as one sorted JSON
object. Nothing in it depends on the machine, so two source trees whose
ledgers are equal train, generate and score to the same bytes on these
recipes. Run it against a tree as

    PYTHONPATH=<tree>/src:tests python tests/ledger.py

The entries whose names begin with "gd" come from gradient-descent
training, whose bytes are not promised across BLAS kernel families (see
README, Determinism); every other entry comes from RProp training.
"""

import hashlib
import json
import os
import tempfile

from choralegen.metrics import evaluate
from choralegen.model_io import serialize_model
from choralegen.network import NetworkConfig, init_params
from choralegen.optim import GDConfig, RPropConfig
from choralegen.pianoroll import (QuantizationSpec, load_roll, load_split, parse_midi,
                                  render_midi)
from choralegen.runner import (GenerationConfig, TrainConfig, format_history,
                               generate, reconstruct, train)

from conftest import DATA_DIR, chorale_piece, load_chorale64
from test_acceptance import FIXTURE_NET, FIXTURE_OPT, FIXTURE_TRAIN

# 40 epochs of a 32-block net on ten 32-frame pieces, per optimizer
# setting; each model is scored on a ragged held-out split.
CORPUS_RECIPES = {
    "rprop40": (RPropConfig(), None),
    "backtrack40": (RPropConfig(delta_max=1.0, variant="with_backtracking"), None),
    "gd40": (GDConfig(learning_rate=0.5), None),
    "truncated40": (RPropConfig(), 5),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def criterion3(out: dict):
    """The pinned single-piece recipe of criteria 3 and 7."""
    piece = load_chorale64()
    params, history = train([piece], init_params(FIXTURE_NET), FIXTURE_OPT, FIXTURE_TRAIN)
    spec = QuantizationSpec(ticks_per_step=240)
    rendition, _ = reconstruct(params, piece, GenerationConfig(threshold=0.9))
    generated = generate(params, piece.frames[:1], GenerationConfig(threshold=0.9, num_steps=32))
    out["criterion3.model"] = sha256(serialize_model(params))
    out["criterion3.epochs_run"] = history.epochs_run
    out["criterion3.reconstruct_mid"] = sha256(render_midi(rendition, spec))
    out["criterion3.generate_mid"] = sha256(render_midi(generated, spec))


def held_out40():
    """The ragged held-out split `corpus40` scores its models on."""
    return [chorale_piece(s, n) for s, n in zip(range(10, 16), (8, 33, 17, 64, 2, 40))]


def corpus40(out: dict):
    corpus = [chorale_piece(s) for s in range(10)]
    held_out = held_out40()
    for name, (optimizer, window) in CORPUS_RECIPES.items():
        params, history = train(corpus, init_params(NetworkConfig(num_blocks=32, rng_seed=0)),
                                optimizer, TrainConfig(max_epochs=40, target_mse=1e-9,
                                                       truncation_window=window))
        out[f"{name}.model"] = sha256(serialize_model(params))
        out[f"{name}.history"] = sha256(format_history(history).encode())
        out[f"{name}.evaluate"] = sha256(repr(evaluate(params, held_out)).encode())


def ragged40(out: dict):
    """40 epochs of RProp on ten pieces of 2 to 150 frames, all lengths
    distinct, so every step of the corpus has its own batch size."""
    corpus = [chorale_piece(s, n) for s, n in zip(range(20, 30),
                                                  (8, 33, 17, 64, 2, 40, 150, 25, 97, 31))]
    params, history = train(corpus, init_params(NetworkConfig(num_blocks=32, rng_seed=0)),
                            RPropConfig(), TrainConfig(max_epochs=40, target_mse=1e-9))
    out["ragged40.model"] = sha256(serialize_model(params))
    out["ragged40.history"] = sha256(format_history(history).encode())


def wide_and_long(out: dict):
    """A 64-block RProp model with a top-k and a raw-feedback generation
    and a ragged evaluation at threshold 0.5, and gradient descent past
    one 128-row block: on one 400-frame piece, and on four pieces of 64
    to 203 frames, 510 packed rows."""
    params, _ = train([chorale_piece(s) for s in range(6)],
                      init_params(NetworkConfig(num_blocks=64, rng_seed=0)),
                      RPropConfig(delta_max=0.1), TrainConfig(max_epochs=15, target_mse=1e-9))
    held_out = [chorale_piece(s, n) for s, n in zip(range(6, 11), (20, 45, 32, 27, 38))]
    roll = generate(params, held_out[0].frames[:2],
                    GenerationConfig(threshold=0.5, num_steps=48, fallback="top_k"))
    out["rprop64.model"] = sha256(serialize_model(params))
    out["rprop64.generate_top_k"] = sha256(roll.frames.tobytes())
    roll = generate(params, held_out[1].frames[:2],
                    GenerationConfig(threshold=0.5, num_steps=48, feedback="raw"))
    out["rprop64.generate_raw"] = sha256(roll.frames.tobytes())
    out["rprop64.evaluate"] = sha256(repr(evaluate(params, held_out, threshold=0.5)).encode())
    corpora = {"gd_long": [chorale_piece(11, 400)],
               "gd_ragged": [chorale_piece(s, n) for s, n in zip(range(12, 16),
                                                                 (150, 97, 203, 64))]}
    for name, corpus in corpora.items():
        params, _ = train(corpus, init_params(NetworkConfig(num_blocks=32, rng_seed=1)),
                          GDConfig(), TrainConfig(max_epochs=3, target_mse=1e-9))
        out[f"{name}.model"] = sha256(serialize_model(params))


def rendered(out: dict):
    """MIDI files of the held-out pieces of `corpus40`, where one step
    often ends one pitch and starts another, at PPQ 3 (steps of two ticks,
    2/3 of a quarter note) and at PPQ 480."""
    for ppq in (3, 480):
        spec = QuantizationSpec.for_ppq(ppq)
        out[f"render.ppq{ppq}"] = sha256(b"".join(render_midi(roll, spec)
                                                  for roll in held_out40()))


def read(out: dict):
    """The NOTE bytes `parse_midi` reads from tests/data/chorale64.mid and
    from the files of `rendered`, the frames `load_roll` makes of
    chorale64.mid at four step lengths, and what `load_split` makes of a
    directory of those files and two it skips."""
    path = os.path.join(DATA_DIR, "chorale64.mid")
    with open(path, "rb") as fh:
        out["read.chorale64"] = sha256(parse_midi(fh.read())[0].tobytes())
    for ppq in (3, 480):
        spec = QuantizationSpec.for_ppq(ppq)
        out[f"read.render.ppq{ppq}"] = sha256(b"".join(
            parse_midi(render_midi(roll, spec))[0].tobytes() for roll in held_out40()))
    for label, step_fraction in (("1/4", 0.25), ("1/3", 1 / 3), ("1/2", 0.5), ("1", 1.0)):
        out[f"read.load_roll.{label}"] = sha256(load_roll(path, step_fraction)[0].frames.tobytes())
    # One split of chorale64.mid, the files of `rendered`, a garbage file
    # and a 1-frame roll: the frames, source ids and warnings of `load_split`,
    # each warning without the temporary directory's path.
    with tempfile.TemporaryDirectory() as directory:
        split_dir = os.path.join(directory, "test")
        os.makedirs(split_dir)
        with open(path, "rb") as fh:
            files = {"chorale64.mid": fh.read(), "garbage.mid": b"MThd, then garbage",
                     "one_frame.mid": render_midi(chorale_piece(9, 1), QuantizationSpec(240))}
        for ppq in (3, 480):
            for k, roll in enumerate(held_out40()):
                files[f"held{k}.ppq{ppq}.mid"] = render_midi(roll, QuantizationSpec.for_ppq(ppq))
        for name, data in files.items():
            with open(os.path.join(split_dir, name), "wb") as fh:
                fh.write(data)
        rolls, warnings = load_split(directory, "test")
        out["read.load_split"] = sha256(b"".join(roll.frames.tobytes() for roll in rolls)
                                        + repr([roll.source_id for roll in rolls]).encode()
                                        + repr([w[len(split_dir):] for w in warnings]).encode())


def ledger() -> dict:
    out = {}
    for recipe in (criterion3, corpus40, ragged40, wide_and_long, rendered, read):
        recipe(out)
    return out


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=1, sort_keys=True))
