"""Desk-scale raw-waveform classifiers with hand-written reverse-mode gradients.

Registry architectures:

    rand-cnn    two conv-maxpool-relu blocks + dense head, random init
    gamma-cnn   same topology with a frozen band-pass filterbank first layer
    linear      flatten + one dense layer, for closed-form oracle tests

Layer forwards are pure functions returning (output, cache); backward consumes
the cache, so one immutable model serves concurrent forward/gradient calls.
Conv1D's forward above batch 1 and its weight gradient multiply views of the
input, one per stride phase, so they copy no windows; its cache is the
contiguous input. The weight gradient adds small products in a fixed order,
so its bits do not depend on the BLAS thread count. Every batched pass cuts
its rows by one rule, _row_blocks. Training runs frozen front layers once per
call, and one Adam state covers every trained weight.
All arithmetic is float64, and checkpoints store the float64 parameters, so a
loaded model is the model that was saved, bit for bit.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .audio import DEFAULT_SAMPLE_RATE, _check_labels, _check_sample_rate, _count
from .container import _int_or_null, read_container, write_container
from .exceptions import FormatError, InvalidInputError
from .optim import AdamState, adam_update, seeded_batches


class _Layer:
    """Checkpoint declaration shared by all layers.

    KIND names the layer in a checkpoint, FIELDS lists its spec fields, and
    PARAMS lists its parameter arrays in storage order.
    """

    KIND = ""
    FIELDS: tuple[str, ...] = ()
    PARAMS: tuple[str, ...] = ()
    frozen = True

    def spec(self) -> dict:
        return {"type": self.KIND, **{name: getattr(self, name) for name in self.FIELDS}}

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAMS}


# OpenBLAS (at its default GEMM_MULTITHREAD_THRESHOLD) runs a GEMM of fewer than
# 2 * 2**18 multiply-adds on one thread, whatever its thread count
_ONE_THREAD_GEMM = 2**18


class Conv1D(_Layer):
    """1-D convolution over (batch, length, channels) -> (batch, out, filters).

    The stride must divide the kernel (see forward and backward).
    """

    KIND, FIELDS, PARAMS = "conv1d", ("stride", "frozen"), ("weight", "bias")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, stride: int, frozen: bool = False):
        self.weight = np.asarray(weight, dtype=np.float64)  # (filters, kernel, in_ch)
        self.bias = np.asarray(bias, dtype=np.float64)  # (filters,)
        self.stride = int(stride)
        self.frozen = frozen
        if self.stride < 1 or self.weight.shape[1] % self.stride:
            raise InvalidInputError(f"stride {self.stride} must divide kernel {self.weight.shape[1]}")

    def out_length(self, length: int) -> int:
        return (length - self.weight.shape[1]) // self.stride + 1

    def _phases(self, x: np.ndarray, n_out: int) -> list[np.ndarray]:
        """The windows of each stride phase, as (batch, windows, kernel*chans) views of contiguous x.

        Output t = i*phases + q reads frames from i*kernel + q*stride: the windows
        of phase q abut, so they are a reshape of a slice of x.
        """
        batch, _, chans = x.shape
        kernel = self.weight.shape[1]
        s, phases = self.stride, kernel // self.stride
        n = [(n_out - 1 - q) // phases + 1 for q in range(phases)]  # windows per phase
        return [x[:, q * s : q * s + n[q] * kernel].reshape(batch, n[q], kernel * chans)
                for q in range(phases)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch, length, chans = x.shape
        filters, kernel, _ = self.weight.shape
        n_out = (length - kernel) // self.stride + 1
        if n_out < 1:
            raise InvalidInputError("input shorter than convolution kernel")
        x = np.ascontiguousarray(x)
        # C-contiguous: OpenBLAS then rounds a row alike in all GEMMs of 2+ rows (1 row goes to GEMV)
        w = np.ascontiguousarray(self.weight.transpose(1, 2, 0)).reshape(kernel * chans, filters)
        if batch == 1:  # one GEMM (matmul copies the overlapping windows) costs less than one per phase
            # a view of the windows: np.ndarray checks its extent in x and costs a fifth of as_strided
            step = x.itemsize
            cols = np.ndarray((n_out, kernel * chans), x.dtype, x, 0, (self.stride * chans * step, step))
            y = (cols if n_out > 1 else np.repeat(cols, 2, axis=0)) @ w
            y += self.bias
            return y[None, :n_out], x
        # one stacked GEMM fills phase q's slots of y
        phases = kernel // self.stride
        y = np.empty((batch, -(-n_out // phases), phases * filters))
        for q, a in enumerate(self._phases(x, n_out)):
            out = y[:, : a.shape[1], q * filters : (q + 1) * filters]
            if a.shape[1] < batch:  # the GEMM rows run along the longer axis
                a, out = a.transpose(1, 0, 2), out.transpose(1, 0, 2)
            np.matmul(a, w, out=out)
        y.reshape(batch, -1, filters)[:, n_out:] = 0.0  # slots past the last output, which the bias add reads
        y += np.tile(self.bias, phases)
        return y.reshape(batch, -1, filters)[:, :n_out], x

    def backward(self, cache: np.ndarray, dy: np.ndarray, want_params: bool,
                 want_input: bool = True) -> tuple[np.ndarray | None, dict | None]:
        x = cache  # the contiguous input
        batch, length, chans = x.shape
        filters, kernel, _ = self.weight.shape
        n_out = dy.shape[1]
        dx = None
        if want_input:
            # tap k = j*stride + r of output t lands on input frame t + j at offset r, so tap
            # block j is one GEMM added at a shift of j frames; in ascending j, each element
            # sums its taps in order. A GEMM per block writes contiguous rows, which add
            # faster than the blocks of one wide GEMM.
            s, blocks = self.stride, kernel // self.stride
            rows = dy.reshape(-1, filters)
            weight = self.weight.reshape(filters, blocks, s * chans)
            dx = np.zeros((batch, length, chans))
            frames = dx[:, : (n_out + blocks - 1) * s, :].reshape(batch, n_out + blocks - 1, s * chans)
            for j in range(blocks):
                frames[:, j : j + n_out, :] += (rows @ weight[:, j, :]).reshape(batch, n_out, s * chans)
        grads = None
        if want_params:
            # the weight gradient sums dy_q[b, i]^T a_q[b, i] over each phase's windows a_q (see
            # _phases). Per phase, a stacked GEMM along the shorter of batch and windows gives one
            # product per row, summed over the longer axis in spans that OpenBLAS runs on one
            # thread; np.sum then adds the products in order, so no sum depends on the thread count
            views = self._phases(x, n_out)
            span = max(1, _ONE_THREAD_GEMM // (filters * kernel * chans))
            pairs = []
            for q, a in enumerate(views):
                d = dy[:, q :: len(views), :]
                if a.shape[1] < batch:  # the GEMMs sum along the longer axis, as the forward's rows run
                    a, d = a.transpose(1, 0, 2), d.transpose(1, 0, 2)
                pairs += [(d[:, i : i + span].transpose(0, 2, 1), a[:, i : i + span])
                          for i in range(0, a.shape[1], span)]
            prods = np.empty((sum(len(a) for _, a in pairs), filters, kernel * chans))
            start = 0
            for d, a in pairs:
                np.matmul(d, a, out=prods[start : start + len(a)])
                start += len(a)
            # einsum gives dy.sum(axis=(0, 1))'s bytes, faster
            grads = {"weight": prods.sum(axis=0).reshape(self.weight.shape), "bias": np.einsum("btf->f", dy)}
        return dx, grads


class ReLU(_Layer):
    KIND = "relu"

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # subgradient at 0 taken as 0: the mask is strict
        return np.maximum(x, 0.0), x > 0.0

    def backward(self, cache: np.ndarray, dy: np.ndarray, want_params: bool) -> tuple[np.ndarray, None]:
        return dy * cache, None


class MaxPool1D(_Layer):
    KIND, FIELDS = "maxpool1d", ("width",)

    def __init__(self, width: int):
        self.width = int(width)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        n_out = x.shape[1] // self.width
        if n_out < 1:
            raise InvalidInputError("input shorter than pooling window")
        span = n_out * self.width
        y = x[:, 0:span:self.width, :].copy()
        for k in range(1, self.width):
            # on a tie np.maximum returns its second argument, so y keeps the
            # first maximum (its sign too, for +-0), as an argmax would
            np.maximum(x[:, k:span:self.width, :], y, out=y)
        return y, (x, y)

    def backward(self, cache: tuple, dy: np.ndarray, want_params: bool) -> tuple[np.ndarray, None]:
        # dy goes to the first element of each window that equals its maximum
        x, y = cache
        span = y.shape[1] * self.width
        dx = np.zeros(x.shape)
        dy_bits = np.asarray(dy, dtype=np.float64).view(np.int64)
        free = None  # windows whose maximum is not yet found
        for k in range(self.width):
            hit = x[:, k:span:self.width, :] == y
            if free is not None:
                hit &= free
            # branch-free select: dy's bits under an all-ones mask, +0.0 under a zero mask
            np.bitwise_and(dy_bits, -hit.astype(np.int64), out=dx[:, k:span:self.width, :].view(np.int64))
            if free is None:
                free = ~hit
            elif k < self.width - 1:
                free ^= hit
        return dx, None


class Flatten(_Layer):
    KIND = "flatten"

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache: tuple, dy: np.ndarray, want_params: bool) -> tuple[np.ndarray, None]:
        return dy.reshape(cache), None


class Dense(_Layer):
    KIND, FIELDS, PARAMS = "dense", ("frozen",), ("weight", "bias")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, frozen: bool = False):
        self.weight = np.asarray(weight, dtype=np.float64)  # (in, out)
        self.bias = np.asarray(bias, dtype=np.float64)  # (out,)
        self.frozen = frozen

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x @ self.weight + self.bias, x

    def backward(self, cache: np.ndarray, dy: np.ndarray, want_params: bool,
                 want_input: bool = True) -> tuple[np.ndarray | None, dict | None]:
        dx = dy @ self.weight.T if want_input else None
        grads = {"weight": cache.T @ dy, "bias": dy.sum(axis=0)} if want_params else None
        return dx, grads


# Most rows per block of a batched pass: a 32-row block's activations (conv1's output
# is 1 MB at d=4096) stay in cache. Only _row_blocks reads it.
_ROW_BLOCK = 32


def _row_blocks(*arrays: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The one block rule of batched passes: each array cut alike into np.array_split's
    fewest equal blocks of at most _ROW_BLOCK rows; one block is the arrays themselves."""
    count = -(-len(arrays[0]) // _ROW_BLOCK)
    return list(zip(*(np.array_split(a, count) for a in arrays))) if count > 1 else [arrays]


class VictimModel:
    """A differentiable classifier over fixed-length waveforms in [0, 1]."""

    def __init__(self, layers: list, input_dim: int, num_classes: int, arch: str,
                 seed: int | None = None, sample_rate: int = DEFAULT_SAMPLE_RATE):
        self.layers = layers
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.arch = arch
        self.seed = seed
        self.sample_rate = int(sample_rate)

    # -- forward / backward ------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InvalidInputError(f"expected input of length {self.input_dim}, got shape {x.shape}")
        if x.shape[0] == 0:
            raise InvalidInputError("empty batch")
        return x, single

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        batch, _ = self._as_batch(x)
        return self._forward(batch[:, :, None])  # (batch, length, 1)

    def _forward(self, h: np.ndarray, start: int = 0) -> tuple[np.ndarray, list]:
        """layers[start:] over activations h: the logits, and each layer's cache (None below start)."""
        caches = [None] * start
        for layer in self.layers[start:]:
            h, cache = layer.forward(h)
            caches.append(cache)
        return h, caches

    def _front(self, rows, stop: int) -> np.ndarray:
        """layers[:stop] over a (rows, input_dim) batch cut by _row_blocks, or over an iterable of
        such blocks, one block at a time, stacked in order; a view of a batch if stop is 0.

        No block keeps a cache, so one block's temporaries (conv1's output above all)
        are alive at a time; a conv row has the same bits in a block of any size.
        """
        if isinstance(rows, np.ndarray):
            rows = [rows] if stop == 0 else (block for (block,) in _row_blocks(rows))
        out = []
        for h in rows:
            h = h[:, :, None]
            for layer in self.layers[:stop]:
                h, _ = layer.forward(h)
            out.append(h)
        return out[0] if len(out) == 1 else np.concatenate(out)

    def backward_input(self, caches: list, dlogits: np.ndarray) -> np.ndarray:
        dh = dlogits
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dh, _ = layer.backward(cache, dh, want_params=False)
        return dh[:, :, 0]

    def backward_params(self, caches: list, dlogits: np.ndarray) -> list[dict | None]:
        """Gradients of the trainable layers' parameters; None for the other layers.

        The reverse pass stops at the lowest trainable layer, which computes no
        input gradient: nothing below it has a parameter to update.
        """
        trainable = [i for i, layer in enumerate(self.layers) if layer.params() and not layer.frozen]
        grads: list[dict | None] = [None] * len(self.layers)
        if not trainable:
            return grads
        dh = dlogits
        for i in range(len(self.layers) - 1, trainable[0], -1):
            dh, grads[i] = self.layers[i].backward(caches[i], dh, want_params=i in trainable)
        _, grads[trainable[0]] = self.layers[trainable[0]].backward(
            caches[trainable[0]], dh, want_params=True, want_input=False)
        return grads

    def logits(self, x: np.ndarray) -> np.ndarray:
        """The logits of forward_cached, float for float (see _logits)."""
        batch, single = self._as_batch(x)
        out = self._logits(batch)
        return out[0] if single else out

    def _logits(self, rows) -> np.ndarray:
        """The logits of a checked batch or of its row blocks. The layers before the first Flatten
        run through _front; Flatten and the head run once on all rows, since OpenBLAS rounds a Dense
        GEMM differently at many row counts (its edge tiles), 17 to 32 rows included. A linear
        victim has no such layer: its head reads iterated blocks stacked, two copies at the peak."""
        front = next((i for i, layer in enumerate(self.layers) if isinstance(layer, Flatten)),
                     len(self.layers))
        return self._forward(self._front(rows, front), front)[0]

    def predict(self, x: np.ndarray) -> int | np.ndarray:
        out = self.logits(x)
        if out.ndim == 1:
            return int(np.argmax(out))  # lowest index wins ties
        return np.argmax(out, axis=1)

    # -- parameters ----------------------------------------------------------

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out.append((f"layer{i}.{name}", arr))
        return out

    def parameter_vector(self) -> np.ndarray:
        arrays = [arr.ravel() for _, arr in self.named_params()]
        return np.concatenate(arrays) if arrays else np.zeros(0)


def softmax(z: np.ndarray) -> np.ndarray:
    zm = z - z.max(axis=-1, keepdims=True)
    e = np.exp(zm)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_grad(logits: np.ndarray, labels) -> np.ndarray:
    """Gradient of -log softmax(logits)[label] w.r.t. the logits, row by row.

    logits is (batch, classes) and labels holds one class per row.
    """
    grad = softmax(logits)
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad


# -- registry ----------------------------------------------------------------


def _he_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _bandpass_filterbank(filters: int, kernel: int, sample_rate: int) -> np.ndarray:
    # log-spaced band-pass filters between ~300 Hz and 0.45*sr, hamming windowed
    centers = np.geomspace(300.0 / sample_rate, 0.45, filters)
    n = np.arange(kernel) - (kernel - 1) / 2.0
    window = np.hamming(kernel)
    bank = np.stack([window * np.sin(2.0 * np.pi * fc * n) for fc in centers])
    bank /= np.linalg.norm(bank, axis=1, keepdims=True)
    return bank[:, :, None]  # (filters, kernel, 1)


def _build_cnn(input_dim: int, num_classes: int, seed: int, sample_rate: int, gamma_front: bool) -> list:
    rng = np.random.default_rng(seed)
    if gamma_front:
        conv1 = Conv1D(_bandpass_filterbank(8, 64, sample_rate), np.zeros(8), stride=8, frozen=True)
    else:
        conv1 = Conv1D(_he_init(rng, (8, 32, 1), 32), np.zeros(8), stride=8)
    length = conv1.out_length(input_dim) // 4
    conv2 = Conv1D(_he_init(rng, (16, 16, 8), 16 * 8), np.zeros(16), stride=2)
    length = conv2.out_length(length) // 4
    if length < 1:
        raise InvalidInputError(f"input dimension {input_dim} too small for this architecture")
    flat = 16 * length
    # pooling first leaves the ReLU a quarter of the values; a max commutes with a monotone map
    layers = [
        conv1, MaxPool1D(4), ReLU(),
        conv2, MaxPool1D(4), ReLU(),
        Flatten(),
        Dense(_he_init(rng, (flat, 32), flat), np.zeros(32)), ReLU(),
        Dense(_he_init(rng, (32, num_classes), 32), np.zeros(num_classes)),
    ]
    return layers


def _build_linear(input_dim: int, num_classes: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [Flatten(), Dense(rng.standard_normal((input_dim, num_classes)) / np.sqrt(input_dim),
                             np.zeros(num_classes))]


# each builder takes (input_dim, num_classes, seed, sample_rate) and returns the layer list
_BUILDERS = {
    "rand-cnn": lambda dim, classes, seed, rate: _build_cnn(dim, classes, seed, rate, gamma_front=False),
    "gamma-cnn": lambda dim, classes, seed, rate: _build_cnn(dim, classes, seed, rate, gamma_front=True),
    "linear": lambda dim, classes, seed, rate: _build_linear(dim, classes, seed),
}
ARCHITECTURES = tuple(_BUILDERS)


def build_victim(arch: str, input_dim: int, num_classes: int, seed: int = 0,
                 sample_rate: int = DEFAULT_SAMPLE_RATE) -> VictimModel:
    if num_classes < 2:
        raise InvalidInputError("victim needs at least 2 classes")
    if arch not in ARCHITECTURES:  # a tuple test, so an unhashable arch is rejected too
        raise InvalidInputError(f"unknown architecture {arch!r}; choose from {ARCHITECTURES}")
    layers = _BUILDERS[arch](input_dim, num_classes, seed, sample_rate)
    return VictimModel(layers, input_dim, num_classes, arch=arch, seed=seed, sample_rate=sample_rate)


# -- checkpoints ---------------------------------------------------------------


def save_model(model: VictimModel, path: str | Path) -> None:
    if model.arch not in ARCHITECTURES:  # load_model rebuilds only registry architectures
        raise InvalidInputError(f"cannot save architecture {model.arch!r}; choose from {ARCHITECTURES}")
    manifest = {
        "kind": "victim-model",
        "arch": model.arch,
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "sample_rate": model.sample_rate,
        "seed": model.seed,
        "layers": [layer.spec() for layer in model.layers],
    }
    blobs = {name: arr for name, arr in model.named_params()}
    write_container(path, manifest, blobs)


# load_model builds up to this many weights unchecked, so a damaged small file keeps its precise error
_FREE_REBUILD = 2**20


def load_model(path: str | Path) -> VictimModel:
    """Rebuild the checkpoint's registry architecture and fill in its stored weights.

    The stored layer specs must equal the registry's, types included, and each
    stored parameter must have the rebuilt shape.
    """
    manifest, blobs = read_container(path)
    if manifest.get("kind") != "victim-model":
        raise FormatError(f"not a model checkpoint: {path}")
    try:
        arch, input_dim, num_classes = manifest["arch"], manifest["input_dim"], manifest["num_classes"]
        sample_rate = manifest.get("sample_rate", DEFAULT_SAMPLE_RATE)
        if not all(type(n) is int and n >= 1 for n in (input_dim, num_classes, sample_rate)):
            raise FormatError(f"model checkpoint {path}: input_dim, num_classes and sample_rate "
                              "must be positive integers")
        # a small file must not make the rebuild allocate much: every registry architecture stores
        # more weights than input_dim or num_classes, and linear their product
        stored = sum(blob.size for blob in blobs.values())
        need = input_dim * num_classes if arch == "linear" else max(input_dim, num_classes)
        if need > max(stored, _FREE_REBUILD):
            raise FormatError(f"model checkpoint {path}: its layers store {stored} weights, too few for "
                              f"input_dim {input_dim} and num_classes {num_classes}")
        try:
            model = build_victim(arch, input_dim, num_classes, sample_rate=_check_sample_rate(sample_rate))
        except InvalidInputError as exc:
            raise FormatError(f"model checkpoint {path}: cannot rebuild its layers: {exc}") from exc
        # JSON text tells 8 from 8.0 and 1 from true, which == on the parsed values does not
        specs = [layer.spec() for layer in model.layers]
        if json.dumps(manifest["layers"], sort_keys=True) != json.dumps(specs, sort_keys=True):
            raise FormatError(f"model checkpoint {path}: layers {manifest['layers']!r} are not "
                              f"the {arch} architecture's {specs!r}")
        for i, layer in enumerate(model.layers):
            for name, param in layer.params().items():
                blob = blobs[f"layer{i}.{name}"]
                if blob.shape != param.shape:
                    raise FormatError(f"model checkpoint {path}: layer {i} ({layer.KIND}) {name} has shape "
                                      f"{blob.shape}, the {arch} architecture needs {param.shape}")
                setattr(layer, name, blob)
    except KeyError as exc:
        raise FormatError(f"model checkpoint {path} has no entry {exc}") from exc
    model.seed = _int_or_null(manifest, "seed", f"model checkpoint {path}")
    return model


# -- training ------------------------------------------------------------------


def accuracy(model: VictimModel, x: np.ndarray, y: np.ndarray) -> float:
    _check_labels(x, y)
    return float(np.mean(model.predict(x) == y))


def train(model: VictimModel, dataset, epochs: int = 20, *, lr: float = 1e-3,
          batch_size: int = 32, seed: int = 0) -> dict[str, float]:
    """Cross-entropy training with Adam; mutates the model in place.

    Frozen layers are never updated; those below the lowest trainable one run
    once per call, through _front, and every step starts from their output.
    One Adam state covers all trainable parameters. Returns
    {"train_accuracy": ...}, the trained model's accuracy on the training split.
    """
    epochs, batch_size = _count(epochs, 0, "epochs"), _count(batch_size, 1, "batch size")
    if not 0.0 < lr < np.inf:
        raise InvalidInputError("learning rate must be positive and finite")
    x_train, y_train = dataset.arrays("train")
    n = x_train.shape[0]
    if n == 0:
        raise InvalidInputError("empty training set")
    if y_train.min() < 0 or y_train.max() >= model.num_classes:
        raise InvalidInputError("labels out of range for this model")
    x_train, _ = model._as_batch(x_train)
    trainable = [i for i, layer in enumerate(model.layers) if layer.params() and not layer.frozen]
    slots = [(i, name) for i in trainable for name in model.layers[i].PARAMS]
    offsets = np.cumsum([getattr(model.layers[i], name).size for i, name in slots])[:-1]
    # a prefix that holds no parameters (linear's Flatten) only reshapes: the steps run it, copying no split
    start = trainable[0] if trainable and any(layer.params() for layer in model.layers[:trainable[0]]) else 0
    features = model._front(x_train, start)
    state = AdamState(lr=lr)
    steps = epochs * -(-n // batch_size) if slots else 0
    for batch in islice(seeded_batches(n, batch_size, np.random.default_rng(seed)), steps):
        logits, caches = model._forward(features[batch], start)
        grads = model.backward_params(caches, cross_entropy_grad(logits, y_train[batch]) / batch.size)
        del caches  # the next step's forward runs without this step's activations
        delta, state = adam_update(state, np.concatenate([grads[i][name].ravel() for i, name in slots]))
        for (i, name), step in zip(slots, np.split(delta, offsets)):
            param = getattr(model.layers[i], name)
            setattr(model.layers[i], name, param + step.reshape(param.shape))
    return {"train_accuracy": accuracy(model, x_train, y_train)}
