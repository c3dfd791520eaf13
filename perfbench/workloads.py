"""The four workloads. Each builds its inputs from the run seed in `setup`,
yields one round of timed library calls from `round`, and checks an op's
output in `check` against the computations in `reference`.

Library functions are always looked up on their module at call time
(`runner.train`, not a name imported from it), so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from choralegen import bptt, metrics, model_io, network, optim, pianoroll, runner

import inputs
import reference

TRAIN_RPROP = optim.RPropConfig(delta_max=0.1)
GRADIENT_BOUND = 1e-6   # acceptance criterion 1
MSE_REL_TOL = 1e-12


@dataclass
class Op:
    """One timed library call; `count` is how many operations it stands for
    (epochs, files, requests) and `frames` how many roll frames it carries."""
    kind: str
    seconds: float
    count: int
    frames: int
    output: object = None
    parts: dict = field(default_factory=dict)
    cal: float = 0.0  # calibration kernel time measured before the op (run.py)


def call(kind: str, count: int, frames: int, fn, *args) -> Op:
    start = time.perf_counter()
    try:
        output = fn(*args)
    except Exception:  # a failing call is a failed operation, not the end of the run
        traceback.print_exc(file=sys.stderr)
        output = None
    return Op(kind, time.perf_counter() - start, count, frames, output)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def round_rate(rounds: list[list[Op]], kinds: tuple[str, ...], attr: str) -> float:
    """Median over rounds of (sum of `attr`) / (seconds) over ops of `kinds`."""
    rates = []
    for ops in rounds:
        chosen = [op for op in ops if op.kind in kinds]
        rates.append(sum(getattr(op, attr) for op in chosen) / sum(op.seconds for op in chosen))
    return statistics.median(rates)


def write_corpus(rolls: list[np.ndarray], directory: str, rng) -> list[tuple]:
    """Write each roll as `train/NNN.mid` with the benchmark's encoder;
    returns (file name, bytes, PPQ, notes) per file."""
    train_dir = os.path.join(directory, "train")
    os.makedirs(train_dir, exist_ok=True)
    files = []
    for i, frames in enumerate(rolls):
        data, ppq, notes = inputs.encode_midi(frames, rng)
        name = f"{i:03d}.mid"
        with open(os.path.join(train_dir, name), "wb") as fh:
            fh.write(data)
        files.append((name, data, ppq, notes))
    return files


def corpus_problems(corpus, rolls, files) -> list[str]:
    """What differs between a loaded corpus and the rolls and notes written."""
    problems = [f"load warning: {w}" for w in corpus.warnings]
    if len(corpus.train) != len(rolls):
        return problems + [f"loaded {len(corpus.train)} of {len(rolls)} files"]
    for roll, frames, (name, data, _, notes) in zip(corpus.train, rolls, files):
        if roll.source_id != name or not np.array_equal(roll.frames, frames):
            problems.append(f"{name}: loaded roll differs from the roll written")
        events, _ = pianoroll.parse_midi(data)
        if [(e.pitch, e.onset_ticks, e.duration_ticks, e.track) for e in events] != notes:
            problems.append(f"{name}: parsed notes differ from the notes written")
    return problems


class Workload:
    shape: tuple[int, int, int] | None = None  # (inputs, blocks, outputs) of the net run

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def round(self):
        """Yield the round's ops one at a time, in the same order every round."""
        raise NotImplementedError

    def key(self, op: Op):
        """A comparable summary of an op's output; equal keys, equal outputs."""
        raise NotImplementedError

    def check(self, index: int, op: Op) -> bool:
        """Whether the `index`-th op of a round produced a correct output."""
        raise NotImplementedError

    def problems(self) -> list[str]:
        """Faults found outside any timed op (set-up, corpus, gradient
        oracle); called after the reference round has been checked. An op
        whose output is wrong counts as failed and is not listed here."""
        return []

    def named_metrics(self, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


class Training(Workload):
    """Full-batch RProp for a fixed number of epochs per `runner.train` call,
    from the same initial parameters every round; the target MSE is out of
    reach, so every call runs all its epochs."""

    def __init__(self, count, total, blocks, epochs):
        self.count, self.total, self.epochs = count, total, epochs
        self.shape = (inputs.NUM_PITCHES, blocks, inputs.NUM_PITCHES)
        self.config = runner.TrainConfig(max_epochs=epochs, target_mse=1e-9)

    def setup(self, seed, workdir):
        self.seed = seed
        count, total = self.count, self.total
        rng = inputs.rng_for(seed, 1)
        lengths = [total] if count == 1 else inputs.ragged_lengths(rng, count, total)
        self.frames = [inputs.chorale_roll(rng, n) for n in lengths]
        self.files = write_corpus(self.frames, workdir, inputs.rng_for(seed, 2))
        self.corpus = pianoroll.load_corpus(workdir)
        self.rolls = self.corpus.train
        self.params0 = network.init_params(network.NetworkConfig(
            num_blocks=self.shape[1], rng_seed=seed))
        self.frames_per_epoch = sum(len(r) - 1 for r in self.rolls)

    def round(self):
        yield call("train", self.epochs, self.epochs * self.frames_per_epoch,
                   runner.train, self.rolls, self.params0, TRAIN_RPROP, self.config)

    def key(self, op):
        if op.output is None:
            return None
        params, history = op.output
        return (digest(params.flatten()), tuple(history.mse), history.epochs_run,
                history.converged)

    def check(self, index, op):
        if op.output is None:
            return False
        params, history = op.output
        self.trained = params
        start_mse = reference.corpus_mse(reference.weights_of(self.params0), self.frames)
        end_mse = reference.corpus_mse(reference.weights_of(params), self.frames)
        ok = (abs(history.mse[0] - start_mse) <= MSE_REL_TOL * start_mse
              and history.epochs_run == self.epochs and not history.converged
              and end_mse < 0.5 * history.mse[0])
        if not ok:
            print(f"train check failed: mse[0] {history.mse[0]!r} vs reference {start_mse!r}, "
                  f"{history.epochs_run} epochs, reference mse after {end_mse!r}",
                  file=sys.stderr)
        return ok

    def problems(self):
        # Gradient of the trained net on one workload piece against central
        # differences of the reference loss.
        params = getattr(self, "trained", self.params0)
        piece = self.frames[0]
        trace = network.forward_sequence(params, piece[:-1])
        grads = bptt.backward(params, trace, piece[1:])
        err = reference.gradient_check(params, grads, piece, inputs.rng_for(self.seed, 3))
        found = corpus_problems(self.corpus, self.frames, self.files)
        if not err < GRADIENT_BOUND:
            found.append(f"bptt.backward vs finite differences: rel err {err:.3e}")
        return found

    def named_metrics(self, rounds):
        return {"train_frames_per_s": (round_rate(rounds, ("train",), "frames"), "frames/s")}


FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "tests", "data", "chorale64.txt")
RECONSTRUCT = runner.GenerationConfig(threshold=0.9)
GENERATE = runner.GenerationConfig(threshold=0.9, num_steps=256, seed_frames=4,
                                   fallback="top_k", top_k=4)
EVAL_THRESHOLD = 0.9


class FreeRun(Workload):
    """The criterion-3 model (trained in set-up) reconstructs its piece,
    continues seeded openings, and is scored teacher-forced on held-out
    pieces. No backward pass and no optimizer step in the timed phase."""

    shape = (inputs.NUM_PITCHES, 64, inputs.NUM_PITCHES)

    def setup(self, seed, workdir):
        with open(FIXTURE, encoding="utf-8") as fh:
            self.fixture = pianoroll.parse_pianoroll_text(fh.read(), source_id="chorale64")
        self.params, history = runner.train(
            [self.fixture], network.init_params(network.NetworkConfig(rng_seed=6)),
            TRAIN_RPROP, runner.TrainConfig(max_epochs=500, target_mse=1e-7))
        self.converged = history.converged
        self.held_out = [pianoroll.PianoRoll(f, source_id=f"held{i}")
                         for i, f in enumerate(inputs.chorale_set(seed, 1, 8, 384))]
        self.openings = [f[: GENERATE.seed_frames]
                         for f in inputs.chorale_set(seed, 2, 3, 48)]
        self.weights = reference.weights_of(self.params)

    def round(self):
        yield call("reconstruct", 1, len(self.fixture) - RECONSTRUCT.seed_frames,
                   runner.reconstruct, self.params, self.fixture, RECONSTRUCT)
        for opening in self.openings:
            yield call("generate", 1, GENERATE.num_steps, runner.generate,
                       self.params, opening, GENERATE)
        yield call("evaluate", 1, sum(len(r) - 1 for r in self.held_out),
                   metrics.evaluate, self.params, self.held_out, EVAL_THRESHOLD)

    def key(self, op):
        out = op.output
        if out is None:
            return None
        if op.kind == "reconstruct":
            return digest(out[0].frames), out[1]
        if op.kind == "generate":
            return digest(out.frames)
        return (out.frame_accuracy, out.macro_f1,
                tuple((s.source_id, s.precision, s.recall, s.f1) for s in out.pieces))

    def check(self, index, op):
        return op.output is not None and getattr(self, f"_check_{op.kind}")(op.output)

    def problems(self):
        return [] if self.converged else ["fixture recipe did not converge"]

    def _check_reconstruct(self, out):
        rendition, accuracy = out
        rows = rendition.frames
        counts = reference.brute_counts(rows, self.fixture.frames)
        return (rows.shape == self.fixture.frames.shape
                and reference.free_run_mismatches(self.weights, rows, RECONSTRUCT.seed_frames,
                                                  RECONSTRUCT.threshold, None) == 0
                and accuracy == reference.accuracy_of(counts) >= 0.8)

    def _check_generate(self, roll):
        rows = roll.frames
        seed_len = GENERATE.seed_frames
        return (rows.shape[0] == seed_len + GENERATE.num_steps
                and any(np.array_equal(rows[:seed_len], o) for o in self.openings)
                and reference.free_run_mismatches(self.weights, rows, seed_len,
                                                  GENERATE.threshold, GENERATE.top_k) == 0)

    def _check_evaluate(self, report):
        totals, f1s = [0, 0, 0], []
        for roll in self.held_out:
            y = reference.forward(self.weights, roll.frames[:-1])
            if np.any(np.abs(y - EVAL_THRESHOLD) < 1e-9):
                return True  # a prediction on the threshold: either side is right
            counts = reference.brute_counts((y > EVAL_THRESHOLD).astype(float), roll.frames[1:])
            totals = [a + b for a, b in zip(totals, counts)]
            f1s.append(reference.f1_of(counts))
        return (len(report.pieces) == len(self.held_out)
                and abs(report.frame_accuracy - reference.accuracy_of(totals)) <= 1e-12
                and abs(report.macro_f1 - sum(f1s) / len(f1s)) <= 1e-12)

    def named_metrics(self, rounds):
        return {
            "gen_steps_per_s": (round_rate(rounds, ("reconstruct", "generate"), "frames"),
                                "steps/s"),
            "eval_frames_per_s": (round_rate(rounds, ("evaluate",), "frames"), "frames/s"),
        }


class MidiCorpus(Workload):
    """Parse and quantize a corpus of encoder-written files, render every
    roll back to MIDI, and round-trip a 64-block model through `.chlf`
    bytes. No network math runs."""

    files_count, total_frames, round_trips = 240, 9600, 100

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.frames = inputs.chorale_set(seed, 1, self.files_count, self.total_frames)
        self.files = write_corpus(self.frames, workdir, inputs.rng_for(seed, 2))
        self.rolls = [pianoroll.PianoRoll(f) for f in self.frames]
        self.specs = [pianoroll.QuantizationSpec.for_ppq(ppq) for _, _, ppq, _ in self.files]
        self.model = network.init_params(network.NetworkConfig(num_blocks=64, rng_seed=seed))

    def round(self):
        yield call("load", len(self.files), self.total_frames,
                   pianoroll.load_corpus, self.workdir)
        for roll, spec in zip(self.rolls, self.specs):
            yield call("render", 1, len(roll), pianoroll.render_midi, roll, spec)
        for _ in range(self.round_trips):
            t0 = time.perf_counter()
            data = model_io.serialize_model(self.model)
            t1 = time.perf_counter()
            loaded = model_io.deserialize_model(data)
            t2 = time.perf_counter()
            yield Op("roundtrip", t2 - t0, 1, 0, (data, loaded),
                     {"save": t1 - t0, "load": t2 - t1})

    def key(self, op):
        out = op.output
        if out is None:
            return None
        if op.kind == "load":
            return (digest(*(r.frames for r in out.train)),
                    tuple(r.source_id for r in out.train), tuple(out.warnings))
        if op.kind == "render":
            return out
        return out[0], digest(out[1].flatten())

    def check(self, index, op):
        if op.output is None:
            return False
        if op.kind == "load":
            found = corpus_problems(op.output, self.frames, self.files)
            for problem in found[:5]:
                print(f"load check failed: {problem}", file=sys.stderr)
            return not found
        if op.kind == "render":
            events, ppq = pianoroll.parse_midi(op.output)
            again = pianoroll.quantize(events, pianoroll.QuantizationSpec.for_ppq(ppq))
            return np.array_equal(again.frames, self.frames[index - 1])
        data, loaded = op.output
        w = reference.weights_of(self.model)
        return not reference.chlf_problems(data, w) and all(
            getattr(loaded, g).tobytes() == w[g].tobytes() for g in reference.GROUPS)

    def named_metrics(self, rounds):
        trips = [op.parts for ops in rounds for op in ops if op.kind == "roundtrip"]
        return {
            "midi_parse_files_per_s": (round_rate(rounds, ("load",), "count"), "files/s"),
            "midi_render_files_per_s": (round_rate(rounds, ("render",), "count"), "files/s"),
            "model_save_ms": (statistics.median(t["save"] for t in trips) * 1e3, "ms"),
            "model_load_ms": (statistics.median(t["load"] for t in trips) * 1e3, "ms"),
        }


WORKLOADS = {
    "chorale_corpus": lambda: Training(count=12, total=480, blocks=32, epochs=2),
    "long_piece": lambda: Training(count=1, total=512, blocks=64, epochs=2),
    "free_run": FreeRun,
    "midi_corpus": MidiCorpus,
}
