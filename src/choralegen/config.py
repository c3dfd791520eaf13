"""Run configuration: plain-text key=value files covering every knob.

Unknown keys are errors; missing keys take the documented defaults.
Lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .network import NetworkConfig
from .optim import GDConfig, RPropConfig
from .runner import GenerationConfig, TrainConfig


@dataclass
class RunConfig:
    # quantization
    step_fraction: float = 0.5  # quarter notes per roll step (0.5 = eighth)
    # network
    num_blocks: int = 64
    init_scale: float = 0.1
    seed: int = 0
    # optimizer
    optimizer: str = "rprop"
    learning_rate: float = 0.01
    delta_zero: float = 0.1
    delta_min: float = 1e-6
    delta_max: float = 50.0
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    rprop_variant: str = "plain"
    # training
    max_epochs: int = 500
    target_mse: float = 0.01
    truncation_window: int = 0  # 0 = full BPTT
    log_every: int = 25
    # generation
    threshold: float = 0.9
    gen_steps: int = 64
    seed_frames: int = 1
    feedback: str = "binary"
    fallback: str = "silence"
    top_k: int = 4

    def network_config(self) -> NetworkConfig:
        return _typed(NetworkConfig, num_blocks=self.num_blocks, rng_seed=self.seed,
                      init_scale=self.init_scale)

    def optimizer_config(self) -> RPropConfig | GDConfig:
        if self.optimizer == "gd":
            return _typed(GDConfig, learning_rate=self.learning_rate)
        return _typed(RPropConfig, self.delta_zero, self.delta_min, self.delta_max,
                      self.eta_plus, self.eta_minus, self.rprop_variant)

    def train_config(self) -> TrainConfig:
        window = self.truncation_window or None
        return _typed(TrainConfig, self.max_epochs, self.target_mse, self.optimizer,
                      window, self.log_every)

    def generation_config(self, num_steps: int | None = None) -> GenerationConfig:
        if num_steps is None:
            num_steps = self.gen_steps
        return _typed(GenerationConfig, self.threshold, num_steps,
                      self.seed_frames, self.feedback, self.fallback,
                      self.top_k)


def _typed(kind, *args, **kwargs):
    """Build a typed config; a value it rejects becomes a ConfigError."""
    try:
        return kind(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_run_config(text: str) -> RunConfig:
    config = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind == "int":
                setattr(config, key, int(value))
            elif kind == "float":
                setattr(config, key, float(value))
            else:
                setattr(config, key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return config


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())
