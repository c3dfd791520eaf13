"""Command-line entry point.

Exit codes: 0 success, 1 input/config errors, 2 non-finite loss,
3 model checksum failure, 4 gradient-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bptt, metrics, model_io, runner
from .config import load_run_config
from .errors import ChecksumMismatch, Error, NonFiniteLoss, VersionMismatch
from .network import PARAM_FIELDS, NetworkConfig, forward_sequence, init_params
from .pianoroll import load_corpus, load_roll, render_midi

CORPUS_ENV = "CHORALEGEN_CORPUS"


def _corpus_dir(args) -> str:
    directory = args.corpus or os.environ.get(CORPUS_ENV)
    if not directory:
        raise Error(f"no corpus directory given (flag --corpus or ${CORPUS_ENV})")
    return directory


def _load_config(args):
    config = load_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "optimizer", None):
        config.optimizer = args.optimizer
    if getattr(args, "threshold", None) is not None:
        config.threshold = args.threshold
    return config


def cmd_train(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(_corpus_dir(args), config.step_fraction)
    for warning in corpus.warnings:
        print(f"warning: skipped {warning}", file=sys.stderr)
    params = init_params(config.network_config())
    try:
        params, history = runner.train(corpus.train, params,
                                       config.optimizer_config(),
                                       config.train_config(), log=print)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model_io.save_model(args.out, params)
    history_path = args.history or args.out + ".history.tsv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write(runner.format_history(history))
    print(f"epochs: {history.epochs_run}  final mse: {history.mse[-1]:.6f}  "
          f"converged: {history.converged}")
    print(f"model written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    config = _load_config(args)
    gen_config = config.generation_config(num_steps=args.steps)
    params = model_io.load_model(args.model)
    seed_roll, spec = load_roll(args.seed_midi, config.step_fraction)
    seed = seed_roll.frames[: gen_config.seed_frames]
    roll = runner.generate(params, seed, gen_config)
    with open(args.out, "wb") as fh:
        fh.write(render_midi(roll, spec))
    print(f"wrote {len(roll)} frames to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    params = model_io.load_model(args.model)
    corpus = load_corpus(_corpus_dir(args), config.step_fraction)
    if not corpus.test:
        print("error: test split is empty", file=sys.stderr)
        return 1
    report = metrics.evaluate(params, corpus.test, config.threshold)
    print(metrics.format_report(report, method=config.optimizer))
    return 0


def cmd_reconstruct(args) -> int:
    config = _load_config(args)
    params = model_io.load_model(args.model)
    original, spec = load_roll(args.midi, config.step_fraction)
    gen_config = config.generation_config()
    rendition, accuracy = runner.reconstruct(params, original, gen_config)
    print(f"frame accuracy: {accuracy:.4f}")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(render_midi(rendition, spec))
        print(f"rendition written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _load_config(args)
    net = NetworkConfig(num_inputs=3, num_blocks=3, num_outputs=3,
                        rng_seed=config.seed, init_scale=0.5)
    params = init_params(net)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    inputs = rng.uniform(0, 1, (6, net.num_inputs))
    targets = (rng.uniform(0, 1, (6, net.num_outputs)) > 0.5).astype(float)
    analytic = bptt.backward(params, forward_sequence(params, inputs), targets)
    numeric = bptt.finite_diff_gradient(params, inputs, targets, h=1e-5)
    err = bptt.max_relative_error(analytic, numeric)
    diff = analytic.with_flat(np.abs(analytic.vector - numeric.vector))
    worst = max(PARAM_FIELDS, key=lambda name: getattr(diff, name).max())
    print(f"max relative gradient error: {err:.3e} (parameter {worst})")
    return 4 if err >= 1e-6 else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choralegen",
                                     description="LSTM piano-roll learner: "
                                                 "train, generate, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value run-config file")
        p.add_argument("--seed", type=int, help="override RNG seed")
        p.add_argument("--threshold", type=float, help="note-on decision threshold")

    p = sub.add_parser("train", help="batch-train a model on a corpus")
    common(p)
    p.add_argument("--corpus", help=f"corpus root (default ${CORPUS_ENV})")
    p.add_argument("--optimizer", choices=("rprop", "gd"))
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--history", help="epoch/MSE table path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="continue a seed MIDI file")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--seed-midi", required=True, dest="seed_midi")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a model on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", help=f"corpus root (default ${CORPUS_ENV})")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reconstruct", help="free-run a model against an original piece")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--out", help="optional rendition MIDI path")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="verify BPTT against finite differences")
    common(p)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChecksumMismatch, VersionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
