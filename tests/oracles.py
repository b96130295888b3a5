"""Reference implementations for tests that need closed-form or first-principles answers."""

from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import as_strided

from uapaudio.models import (_ONE_THREAD_GEMM, Conv1D, Dense, Flatten, MaxPool1D, ReLU, VictimModel,
                             accuracy, cross_entropy_grad)
from uapaudio.optim import AdamState, adam_update, seeded_batches


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


def conv_windows(layer: Conv1D, x: np.ndarray) -> np.ndarray:
    """The (batch, out, kernel, chans) windows of a Conv1D layer over contiguous x, as a strided view."""
    batch, length, chans = x.shape
    sb, sl, sc = x.strides
    return as_strided(x, (batch, layer.out_length(length), layer.weight.shape[1], chans),
                      (sb, layer.stride * sl, sl, sc))


def conv_forward_tensordot(layer: Conv1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conv1D forward by np.tensordot over the windows; the cache is the contiguous input, as Conv1D's."""
    x = np.ascontiguousarray(x)
    return np.tensordot(conv_windows(layer, x), layer.weight, axes=([2, 3], [1, 2])) + layer.bias, x


def conv_param_grads_tensordot(layer: Conv1D, x: np.ndarray, dy: np.ndarray) -> dict:
    """Conv1D weight gradient by np.tensordot over the windows, and bias gradient by a sum over rows."""
    weight = np.tensordot(dy, conv_windows(layer, x), axes=([0, 1], [0, 1]))
    return {"weight": weight, "bias": dy.sum(axis=(0, 1))}


def conv_param_grads_by_phase(layer: Conv1D, x: np.ndarray, dy: np.ndarray) -> dict:
    """Conv1D parameter gradients, the weight's summed in Conv1D's fixed order by plain loops.

    Stride phase q holds outputs q, q + P, q + 2P, ... (P = kernel / stride).
    For each phase in turn, the longer of its batch and output axes is cut
    into blocks of at most `span` rows; for each block, and each row of the
    shorter axis, one product dy^T @ windows sums over the block, and the
    products are added one after another.
    """
    batch, _, chans = x.shape
    filters, kernel, _ = layer.weight.shape
    n_out, phases = dy.shape[1], kernel // layer.stride
    span = max(1, _ONE_THREAD_GEMM // (filters * kernel * chans))
    windows = conv_windows(layer, x).reshape(batch, n_out, kernel * chans)
    total = None
    for q in range(phases):
        a, d = windows[:, q::phases], dy[:, q::phases]
        if a.shape[1] < batch:  # rows along the outputs, blocks along the batch
            a, d = a.transpose(1, 0, 2), d.transpose(1, 0, 2)
        for start in range(0, a.shape[1], span):
            for row in range(a.shape[0]):
                part = d[row, start : start + span].T @ a[row, start : start + span]
                total = part if total is None else total + part
    return {"weight": total.reshape(layer.weight.shape), "bias": dy.sum(axis=(0, 1))}


def use_tensordot_conv(monkeypatch, param_grads=conv_param_grads_tensordot) -> None:
    """Patch Conv1D to run conv_forward_tensordot, and param_grads(layer, x, dy) for its parameter gradients.

    The input gradient is still Conv1D.backward's own, which reads only the
    input shape from the cache.
    """
    original = Conv1D.backward

    def backward(layer, cache, dy, want_params, want_input=True):
        dx, _ = original(layer, cache, dy, want_params=False, want_input=want_input)
        return dx, param_grads(layer, cache, dy) if want_params else None

    monkeypatch.setattr(Conv1D, "forward", conv_forward_tensordot)
    monkeypatch.setattr(Conv1D, "backward", backward)


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


def train_per_parameter(model: VictimModel, dataset, epochs: int, *, lr: float = 1e-3,
                        batch_size: int = 32, seed: int = 0) -> dict[str, float]:
    """models.train's loop run plainly: every step a full forward of its batch rows, one Adam state per array."""
    x_train, y_train = dataset.arrays("train")
    n = x_train.shape[0]
    states: dict[tuple[int, str], AdamState] = {}
    for batch in islice(seeded_batches(n, batch_size, np.random.default_rng(seed)), epochs * -(-n // batch_size)):
        logits, caches = model.forward_cached(x_train[batch])
        grads = model.backward_params(caches, cross_entropy_grad(logits, y_train[batch]) / batch.size)
        for i, layer_grads in enumerate(grads):
            for name, g in (layer_grads or {}).items():
                delta, states[i, name] = adam_update(states.get((i, name), AdamState(lr=lr)), g)
                setattr(model.layers[i], name, getattr(model.layers[i], name) + delta)
    return {"train_accuracy": accuracy(model, x_train, y_train)}


def recover_vprime(w: np.ndarray, x_tanh: np.ndarray) -> np.ndarray:
    """Invert a perturbed sample w = (tanh(x' + v') + 1) / 2 to its perturbation: (1/2)ln(w/(1-w)) - x'."""
    return 0.5 * (np.log(w) - np.log1p(-w)) - x_tanh
