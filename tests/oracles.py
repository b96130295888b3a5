"""Victims with explicit parameters, for tests that need closed-form answers."""

import numpy as np

from uapaudio.models import Dense, Flatten, VictimModel


def linear_victim_from_params(weight: np.ndarray, bias: np.ndarray) -> VictimModel:
    """Linear model with explicit (d, C) weights, for closed-form oracles."""
    weight = np.asarray(weight, dtype=np.float64)
    return VictimModel([Flatten(), Dense(weight, np.asarray(bias, dtype=np.float64))],
                       input_dim=weight.shape[0], num_classes=weight.shape[1], arch="linear")
