"""Weight updates: resilient propagation (sign-only, per-weight step sizes)
and a plain gradient-descent baseline.

RProp uses only the sign of each summed derivative. Default rule is the
plain three-case update (no weight revert); with_backtracking adds the
classic revert-on-sign-change behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bptt import GradientSet
from .network import NetworkParams


@dataclass(frozen=True)
class RPropConfig:
    # Defaults follow the customary RProp settings.
    delta_zero: float = 0.1
    delta_min: float = 1e-6
    delta_max: float = 50.0
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    variant: str = "plain"  # or "with_backtracking"

    def __post_init__(self):
        if not 0 < self.delta_min <= self.delta_zero <= self.delta_max:
            raise ValueError("need 0 < delta_min <= delta_zero <= delta_max")
        if not 0 < self.eta_minus < 1 < self.eta_plus:
            raise ValueError("need 0 < eta_minus < 1 < eta_plus")
        if not np.isfinite([self.delta_max, self.eta_plus]).all():
            raise ValueError("delta_max and eta_plus must be finite")
        if self.variant not in ("plain", "with_backtracking"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class GDConfig:
    learning_rate: float = 0.01

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")


@dataclass
class RPropState:
    step_sizes: NetworkParams      # all entries in [delta_min, delta_max]
    prev_grad_sign: NetworkParams  # entries in {-1, 0, +1}
    prev_weight_delta: NetworkParams


def rprop_init(params: NetworkParams, config: RPropConfig) -> RPropState:
    deltas = params.with_flat(np.full(params.size(), config.delta_zero))
    return RPropState(deltas, params.zeros_like(), params.zeros_like())


def rprop_step(params: NetworkParams, grads: GradientSet, state: RPropState,
               config: RPropConfig) -> tuple[NetworkParams, RPropState]:
    """One batch update. Per weight: grow the step on a repeated gradient
    sign, shrink it on a sign flip, then move by the step against the
    current sign. Zero gradient leaves both weight and step untouched."""
    params.check_congruent(grads)
    w = params.vector.copy()
    delta = state.step_sizes.vector.copy()
    sign = np.sign(grads.vector)
    agree = state.prev_grad_sign.vector * sign
    grew = agree > 0
    flipped = agree < 0
    delta[grew] = np.minimum(delta[grew] * config.eta_plus, config.delta_max)
    delta[flipped] = np.maximum(delta[flipped] * config.eta_minus, config.delta_min)

    if config.variant == "with_backtracking":
        w[flipped] -= state.prev_weight_delta.vector[flipped]
        sign = np.where(flipped, 0.0, sign)  # skip the next adaptation

    dw = -delta * sign
    w += dw
    return params.with_flat(w), RPropState(params.with_flat(delta),
                                           params.with_flat(sign), params.with_flat(dw))


def gd_step(params: NetworkParams, grads: GradientSet, config: GDConfig) -> NetworkParams:
    """Plain batch gradient descent: w <- w - lr * dE/dw."""
    params.check_congruent(grads)
    return params.with_flat(params.vector - config.learning_rate * grads.vector)
