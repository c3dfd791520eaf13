"""Weight updates: resilient propagation (sign-only, per-weight step sizes)
and a plain gradient-descent baseline.

RProp uses only the sign of each summed derivative. Default rule is the
plain three-case update (no weight revert); with_backtracking adds the
classic revert-on-sign-change behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if not self.delta_max * self.eta_plus < np.inf:  # so a grown step cannot overflow
            raise ValueError("delta_max * eta_plus must be finite")
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
    """Per-weight vectors in the `NetworkParams.vector` layout."""
    step_sizes: np.ndarray  # in [delta_min, delta_max]: start at delta_zero, clipped each step
    prev_grad_sign: np.ndarray  # entries in {-1, 0, +1}


def rprop_init(params: NetworkParams, config: RPropConfig) -> RPropState:
    n = params.size()
    return RPropState(np.full(n, config.delta_zero), np.zeros(n))


def rprop_step(params: NetworkParams, grads: NetworkParams, state: RPropState,
               config: RPropConfig) -> tuple[NetworkParams, RPropState]:
    """One batch update. Per weight: grow the step by eta_plus on a repeated
    gradient sign, shrink it by eta_minus on a sign flip, clip it into
    [delta_min, delta_max], then move by it against the current sign. Zero
    gradient leaves both weight and step untouched."""
    params.check_congruent(grads)
    sign = np.sign(grads.vector)
    agree = np.multiply(state.prev_grad_sign, sign)  # -1 flip, 0 none, +1 repeat
    # The factor by agree, -1 reading the last entry.
    delta = np.array([1.0, config.eta_plus, config.eta_minus])[agree.astype(np.intp)]
    delta *= state.step_sizes
    np.clip(delta, config.delta_min, config.delta_max, out=delta)
    w = params.vector.copy()
    if config.variant == "with_backtracking":
        flipped = agree < 0  # undo the last move, -step_sizes * prev_grad_sign
        np.add(w, state.step_sizes * state.prev_grad_sign, out=w, where=flipped)
        np.copyto(sign, 0.0, where=flipped)  # skip the next adaptation
    w -= np.multiply(delta, sign, out=agree)
    return params.with_flat(w), RPropState(delta, sign)


def gd_step(params: NetworkParams, grads: NetworkParams, config: GDConfig) -> NetworkParams:
    """Plain batch gradient descent: w <- w - lr * dE/dw."""
    params.check_congruent(grads)
    return params.with_flat(params.vector - config.learning_rate * grads.vector)
