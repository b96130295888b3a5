"""Reference implementations for tests that need closed-form or first-principles answers."""

import numpy as np

from uapaudio.models import Dense, Flatten, MaxPool1D, ReLU, VictimModel


def linear_victim_from_params(weight: np.ndarray, bias: np.ndarray) -> VictimModel:
    """Linear model with explicit (d, C) weights, for closed-form oracles."""
    weight = np.asarray(weight, dtype=np.float64)
    return VictimModel([Flatten(), Dense(weight, np.asarray(bias, dtype=np.float64))],
                       input_dim=weight.shape[0], num_classes=weight.shape[1], arch="linear")


def relu_before_pool(model: VictimModel) -> VictimModel:
    """The model over the same layer objects, with each ReLU moved before the MaxPool1D it follows."""
    layers = list(model.layers)
    for i in range(len(layers) - 1):
        if isinstance(layers[i], MaxPool1D) and isinstance(layers[i + 1], ReLU):
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return VictimModel(layers, model.input_dim, model.num_classes, arch=model.arch,
                       seed=model.seed, sample_rate=model.sample_rate)


def conv_input_grad_per_tap(weight: np.ndarray, stride: int, dy: np.ndarray,
                            length: int) -> np.ndarray:
    """Conv1D input gradient of (batch, length, chans) by one strided add per kernel tap."""
    batch, n_out, _ = dy.shape
    dx = np.zeros((batch, length, weight.shape[2]))
    for k in range(weight.shape[1]):
        dx[:, k : k + n_out * stride : stride, :] += dy @ weight[:, k, :]
    return dx


def maxpool_first_max(x: np.ndarray, width: int, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool forward and backward of (batch, length, chans) by an argmax over each window.

    The first maximum of a window takes its value and its whole gradient; a
    tail that the width does not divide gets no gradient.
    """
    batch, length, chans = x.shape
    n_out = length // width
    windows = x[:, : n_out * width, :].reshape(batch, n_out, width, chans)
    idx = windows.argmax(axis=2)  # argmax returns the first maximum
    y = np.take_along_axis(windows, idx[:, :, None, :], axis=2)[:, :, 0, :]
    dwindows = np.zeros((batch, n_out, width, chans))
    np.put_along_axis(dwindows, idx[:, :, None, :], dy[:, :, None, :], axis=2)
    dx = np.zeros((batch, length, chans))
    dx[:, : n_out * width, :] = dwindows.reshape(batch, n_out * width, chans)
    return y, dx


def recover_vprime(w: np.ndarray, x_tanh: np.ndarray) -> np.ndarray:
    """Invert a perturbed sample w = (tanh(x' + v') + 1) / 2 to its perturbation: (1/2)ln(w/(1-w)) - x'."""
    return 0.5 * (np.log(w) - np.log1p(-w)) - x_tanh
