"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper in every
`choralegen` module that holds it by name (so `runner.forward_step` and
`metrics.forward_sequence` are traced as well as the definitions), and
`uninstall` puts the originals back. Spans live in memory until `dump`.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# Traced function -> how much work one call does, from (args, kwargs, result).
WORK = {
    "network.forward_sequence": lambda a, k, r: len(r),
    "network.forward_step": None,
    "network.init_params": None,
    "bptt.backward": lambda a, k, r: len(a[1]),
    "bptt.add_into": None,
    "optim.rprop_step": lambda a, k, r: r[0].size(),
    "runner.train": None,
    "runner.generate": None,
    "runner.reconstruct": None,
    "metrics.evaluate": None,
    "metrics.frame_accuracy": None,
    "smf.parse_midi": lambda a, k, r: len(a[0]),
    "smf.write_midi": None,
    "pianoroll.quantize": lambda a, k, r: len(r),
    "pianoroll.load_corpus": None,
    "pianoroll.render_midi": None,
    "model_io.serialize_model": None,
    "model_io.deserialize_model": None,
}


class Tracer:
    def __init__(self):
        self.names = list(WORK)
        self.spans: list = []  # [name index, parent span index or -1, start ns, end ns, work]
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, index: int, fn, work):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [index, open_[-1] if open_ else -1, 0, 0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "choralegen" or name.startswith("choralegen.")]
        for index, qualname in enumerate(self.names):
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"choralegen.{module_name}"], func_name)
            wrapper = self._wrap(index, original, WORK[qualname])
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._patched.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self):
        for module, func_name, original in reversed(self._patched):
            setattr(module, func_name, original)
        self._patched.clear()

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "span_fields":
                       ["name", "parent", "start_ns", "end_ns", "work"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def totals(self) -> dict[str, dict]:
        """Per function: calls, inclusive and self nanoseconds, summed work."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {n: {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": 0} for n in self.names}
        forward_step_outside_sequence = 0
        seq_index = self.names.index("network.forward_sequence")
        step_index = self.names.index("network.forward_step")
        for i, (name, parent, start, end, work) in enumerate(self.spans):
            t = out[self.names[name]]
            t["calls"] += 1
            t["incl_ns"] += end - start
            t["self_ns"] += end - start - child_ns[i]
            t["work"] += work
            if name == step_index and (parent < 0 or self.spans[parent][0] != seq_index):
                forward_step_outside_sequence += 1
        out["network.forward_step"]["outside_sequence"] = forward_step_outside_sequence
        return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, dict], shape: tuple[int, int, int] | None,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit). A rate over a function
    that was never called reads 0."""
    def ms(name):
        return totals[name]["self_ns"] / 1e6

    seq, step = totals["network.forward_sequence"], totals["network.forward_step"]
    back, rprop = totals["bptt.backward"], totals["optim.rprop_step"]
    parse, quant = totals["smf.parse_midi"], totals["pianoroll.quantize"]
    m = {
        "network.forward_sequence.calls": (seq["calls"], "count"),
        "network.forward_sequence.self_ms": (ms("network.forward_sequence"), "ms"),
        "network.forward_sequence.us_per_step": (_per(seq["incl_ns"] / 1e3, seq["work"]), "us"),
        "network.forward_step.calls": (step["calls"], "count"),
        "network.forward_step.self_ms": (ms("network.forward_step"), "ms"),
        "network.forward_step.us_per_call": (_per(step["self_ns"] / 1e3, step["calls"]), "us"),
        "bptt.backward.calls": (back["calls"], "count"),
        "bptt.backward.self_ms": (ms("bptt.backward"), "ms"),
        "bptt.backward.us_per_step": (_per(back["self_ns"] / 1e3, back["work"]), "us"),
        "bptt.add_into.calls": (totals["bptt.add_into"]["calls"], "count"),
        "bptt.add_into.self_ms": (ms("bptt.add_into"), "ms"),
        "optim.rprop_step.calls": (rprop["calls"], "count"),
        "optim.rprop_step.self_ms": (ms("optim.rprop_step"), "ms"),
        "optim.rprop_step.ns_per_param": (_per(rprop["self_ns"], rprop["work"]), "ns"),
        "runner.train.self_ms": (ms("runner.train"), "ms"),
        "runner.generate.self_ms": (ms("runner.generate"), "ms"),
        "runner.reconstruct.self_ms": (ms("runner.reconstruct"), "ms"),
        "metrics.evaluate.self_ms": (ms("metrics.evaluate"), "ms"),
        "metrics.frame_accuracy.self_ms": (ms("metrics.frame_accuracy"), "ms"),
        "smf.parse_midi.calls": (parse["calls"], "count"),
        "smf.parse_midi.self_ms": (ms("smf.parse_midi"), "ms"),
        "smf.parse_midi.mb_per_s": (_per(parse["work"] / 1e6, parse["self_ns"] / 1e9), "MB/s"),
        "pianoroll.quantize.calls": (quant["calls"], "count"),
        "pianoroll.quantize.self_ms": (ms("pianoroll.quantize"), "ms"),
        "pianoroll.quantize.frames_per_s": (_per(quant["work"], quant["self_ns"] / 1e9), "frames/s"),
        "pianoroll.load_corpus.self_ms": (ms("pianoroll.load_corpus"), "ms"),
        "pianoroll.render_midi.self_ms": (ms("pianoroll.render_midi"), "ms"),
        "smf.write_midi.calls": (totals["smf.write_midi"]["calls"], "count"),
        "smf.write_midi.self_ms": (ms("smf.write_midi"), "ms"),
        "model_io.serialize_model.calls": (totals["model_io.serialize_model"]["calls"], "count"),
        "model_io.serialize_model.self_ms": (ms("model_io.serialize_model"), "ms"),
        "model_io.deserialize_model.calls": (totals["model_io.deserialize_model"]["calls"], "count"),
        "model_io.deserialize_model.self_ms": (ms("model_io.deserialize_model"), "ms"),
        "network.init_params.calls": (totals["network.init_params"]["calls"], "count"),
    }
    # Computed, not counted: multiply-adds of the matrix products implied by
    # the layer shapes, over the time spent forward and backward.
    forward_frames = seq["work"] + step["outside_sequence"]
    if shape is not None and forward_frames:
        ni, nb, no = shape
        fwd = 2 * 4 * nb * (ni + nb) + 2 * no * nb
        bwd = 8 * nb * ni + 16 * nb * nb + 4 * no * nb
        flops = fwd * forward_frames + bwd * back["work"]
        busy_s = (seq["self_ns"] + step["self_ns"] + back["self_ns"]) / 1e9
        m["kernel.mflop_per_frame"] = ((fwd + bwd) / 1e6, "MFLOP")
        m["kernel.gflop_per_s"] = (_per(flops / 1e9, busy_s), "GFLOP/s")
    else:
        m["kernel.mflop_per_frame"] = (0.0, "MFLOP")
        m["kernel.gflop_per_s"] = (0.0, "GFLOP/s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
