"""Command-line entry point.

Exit codes: 0 success, 1 input, config and usage errors, 2 non-finite
loss, 3 corrupt model file or one whose layers are not 88 pitches wide,
4 gradient-check failure. The whole run config, file and flags, is
checked before any other input is read.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bptt, metrics, model_io, runner
from .config import KEYS, RunConfig, load_run_config
from .errors import ChecksumMismatch, Error, NonFiniteLoss, VersionMismatch
from .network import PARAM_FIELDS, NetworkConfig, forward_sequence, init_params
from .pianoroll import NUM_PITCHES, PianoRoll, load_roll, load_split, render_midi

CORPUS_ENV = "CHORALEGEN_CORPUS"
EXIT_CODES = {NonFiniteLoss: 2, ChecksumMismatch: 3, VersionMismatch: 3}  # other errors: 1


def _split(args, split: str, step_fraction: float) -> list[PianoRoll]:
    """The rolls of one split of the corpus at --corpus or
    $CHORALEGEN_CORPUS, the only one read; one warning line per skipped
    file."""
    directory = args.corpus or os.environ.get(CORPUS_ENV)
    if not directory:
        raise Error(f"no corpus directory given (flag --corpus or ${CORPUS_ENV})")
    if not os.path.isdir(directory):
        raise Error(f"corpus directory {directory} not found")
    rolls, warnings = load_split(directory, split, step_fraction)
    for warning in warnings:
        print(f"warning: skipped {warning}", file=sys.stderr)
    return rolls


def _roll_model(path: str):
    """The model at `path`, if it reads and predicts 88-pitch frames."""
    params = model_io.load_model(path)
    if params.num_inputs != NUM_PITCHES or params.num_outputs != NUM_PITCHES:
        raise VersionMismatch(f"{path}: layer sizes {params.num_inputs}-{params.num_blocks}-"
                              f"{params.num_outputs}, but piano-roll commands need "
                              f"{NUM_PITCHES} inputs and {NUM_PITCHES} outputs")
    return params


def cmd_train(args, config: RunConfig) -> int:
    for path in filter(None, (args.out, args.history)):  # before the run, not after
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise Error(f"directory of {path} not found")
    rolls = _split(args, "train", config.step_fraction)
    params, history = runner.train(rolls, init_params(config.network),
                                   config.optimizer_config(), config.train, log=print)
    model_io.save_model(args.out, params)
    history_path = args.history or args.out + ".history.tsv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write(runner.format_history(history))
    print(f"epochs: {history.epochs_run}  final mse: {history.mse[-1]:.6f}  "
          f"converged: {history.converged}")
    print(f"model written to {args.out}")
    return 0


def cmd_generate(args, config: RunConfig) -> int:
    params = _roll_model(args.model)
    seed_roll, spec = load_roll(args.seed_midi, config.step_fraction)
    seed = seed_roll.frames[: config.generation.seed_frames]
    roll = runner.generate(params, seed, config.generation)
    data = render_midi(roll, spec)  # before --out is opened: a failed render writes no file
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(roll)} frames to {args.out}")
    return 0


def cmd_evaluate(args, config: RunConfig) -> int:
    params = _roll_model(args.model)
    rolls = _split(args, "test", config.step_fraction)
    report = metrics.evaluate(params, rolls, config.generation.threshold)
    # .chlf does not record the optimizer, so the row names the model file.
    model = os.path.splitext(os.path.basename(args.model))[0]
    print(metrics.format_report(report, model=model))
    return 0


def cmd_reconstruct(args, config: RunConfig) -> int:
    params = _roll_model(args.model)
    original, spec = load_roll(args.midi, config.step_fraction)
    rendition, accuracy = runner.reconstruct(params, original, config.generation)
    print(f"frame accuracy: {accuracy:.4f}")
    if args.out:
        data = render_midi(rendition, spec)
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"rendition written to {args.out}")
    return 0


def cmd_gradcheck(args, config: RunConfig) -> int:
    seed = config.network.rng_seed
    net = NetworkConfig(num_inputs=3, num_blocks=3, num_outputs=3,
                        rng_seed=seed, init_scale=0.5)
    params = init_params(net)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    inputs = rng.uniform(0, 1, (6, net.num_inputs))
    targets = (rng.uniform(0, 1, (6, net.num_outputs)) > 0.5).astype(float)
    analytic = bptt.backward(params, forward_sequence(params, inputs), targets)
    numeric = bptt.finite_diff_gradient(params, inputs, targets, h=1e-5)
    err = bptt.max_relative_error(analytic, numeric)
    diff = analytic.with_flat(np.abs(analytic.vector - numeric.vector))
    worst = max(PARAM_FIELDS, key=lambda name: getattr(diff, name).max())
    print(f"max relative gradient error: {err:.3e} (parameter {worst})")
    return 4 if err >= 1e-6 else 0


def _setting(parser, flag, target, **kwargs):
    """A flag that sets a config field as a key of the file does, checked
    with the rest of the config and taking precedence over the file."""
    parser.add_argument(flag, dest="settings", action="append", default=[],
                        type=lambda value: (flag, target, value), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choralegen",
                                     description="LSTM piano-roll learner: "
                                                 "train, generate, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, keys):
        # No abbreviations: `--seed` must not stand for `--seed-midi`.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value run-config file")
        for key in keys:
            _setting(p, f"--{key}", KEYS[key], metavar=key.upper(),
                     help=f"sets config key {key}")
        return p

    p = command("train", cmd_train, "batch-train a model on a corpus", ["seed", "optimizer"])
    p.add_argument("--corpus", help=f"corpus root (default ${CORPUS_ENV})")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", help="epoch/MSE table path")

    p = command("generate", cmd_generate, "continue a seed MIDI file", ["threshold"])
    p.add_argument("--model", required=True)
    p.add_argument("--seed-midi", required=True, dest="seed_midi")
    _setting(p, "--steps", ("generation", "num_steps", int), required=True, metavar="N")
    p.add_argument("--out", required=True)

    p = command("evaluate", cmd_evaluate, "score a model on the test split", ["threshold"])
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help=f"corpus root (default ${CORPUS_ENV})")

    p = command("reconstruct", cmd_reconstruct,
                "free-run a model against an original piece", ["threshold"])
    p.add_argument("--model", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--out", help="optional rendition MIDI path")

    command("gradcheck", cmd_gradcheck, "verify BPTT against finite differences", ["seed"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args, load_run_config(args.config, args.settings))
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
