"""Victim models: forwards, exact gradients, training, checkpoints."""

import copy
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import uapaudio
from uapaudio import (
    ARCHITECTURES,
    FormatError,
    InvalidInputError,
    accuracy,
    build_victim,
    generate_synthetic_dataset,
    load_model,
    save_model,
    train,
)
from uapaudio.models import Conv1D, Flatten, MaxPool1D, ReLU, _row_blocks, cross_entropy_grad, softmax
from uapaudio.optim import AdamState, adam_update, seeded_batches
from uapaudio.penalty import _objective
from uapaudio.tanhspace import perturbed_sample, to_tanh_space

from oracles import (
    conv_forward_tensordot,
    conv_input_grad_per_tap,
    conv_param_grads_by_phase,
    conv_param_grads_tensordot,
    linear_victim_from_params,
    maxpool_first_max,
    relu_before_pool,
    train_per_parameter,
    use_tensordot_conv,
)


class TestLinearClosedForm:
    def test_logits_match_affine_map(self, rng):
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        model = linear_victim_from_params(w, b)
        x = rng.uniform(0, 1, 6)
        np.testing.assert_allclose(model.logits(x), x @ w + b, atol=1e-12)

    def test_two_class_decision_rule(self, rng):
        # columns [w, -w], bias [b, -b]: predict 0 iff w.x + b > 0
        w = rng.normal(size=8)
        b = 0.3
        model = linear_victim_from_params(np.column_stack([w, -w]), np.array([b, -b]))
        for _ in range(20):
            x = rng.uniform(0, 1, 8)
            assert model.predict(x) == (0 if w @ x + b > 0 else 1)

    def test_tie_breaks_to_lowest_index(self):
        model = linear_victim_from_params(np.zeros((4, 3)), np.array([1.0, 1.0, 1.0]))
        assert model.predict(np.full(4, 0.5)) == 0

    def test_input_gradient_is_weight_column(self, rng):
        w = rng.normal(size=(5, 2))
        model = linear_victim_from_params(w, np.zeros(2))
        _, caches = model.forward_cached(rng.uniform(0, 1, 5))
        g = model.backward_input(caches, np.array([[0.0, 1.0]]))
        assert g.shape == (1, 5)
        np.testing.assert_allclose(g[0], w[:, 1], atol=1e-12)


class TestHeads:
    def test_softmax_normalized_and_shift_invariant(self, rng):
        z = rng.normal(size=7)
        p = softmax(z)
        assert p.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(softmax(z + 123.0), p, atol=1e-12)

    def test_cross_entropy_head(self, rng):
        z = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        grad = cross_entropy_grad(z, labels)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(grad, p - np.eye(4)[labels], atol=1e-12)
        # subtracting a one-hot row and subtracting 1.0 at the label give the same floats
        np.testing.assert_array_equal(grad, softmax(z) - np.eye(4)[labels])
        # it is the gradient of -log softmax(z)[label], row by row
        step = 1e-6
        for row, label in enumerate(labels):
            for j in range(4):
                e = np.zeros(4)
                e[j] = step
                fd = (np.log(softmax(z[row] - e)[label]) - np.log(softmax(z[row] + e)[label])) / (2 * step)
                assert grad[row, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBuildVictim:
    def test_registry_names(self):
        assert set(ARCHITECTURES) == {"rand-cnn", "gamma-cnn", "linear"}
        with pytest.raises(InvalidInputError):
            build_victim("mlp", 1024, 2)

    def test_needs_two_classes(self):
        with pytest.raises(InvalidInputError):
            build_victim("linear", 64, 1)

    def test_cnn_rejects_short_inputs(self):
        with pytest.raises(InvalidInputError):
            build_victim("rand-cnn", 512, 2)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_deterministic_init(self, arch):
        a = build_victim(arch, 1024, 3, seed=7)
        b = build_victim(arch, 1024, 3, seed=7)
        np.testing.assert_array_equal(a.parameter_vector(), b.parameter_vector())

    def test_seeds_differ(self):
        a = build_victim("rand-cnn", 1024, 3, seed=0)
        b = build_victim("rand-cnn", 1024, 3, seed=1)
        assert not np.array_equal(a.parameter_vector(), b.parameter_vector())

    def test_input_length_enforced(self):
        model = build_victim("linear", 64, 2)
        with pytest.raises(InvalidInputError):
            model.logits(np.zeros(65))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_empty_batch_is_invalid_input(self, arch):
        model = build_victim(arch, 1024, 3, seed=0)
        x = np.full((4, 1024), 0.5)
        for call in (model.logits, model.predict, model.forward_cached):
            with pytest.raises(InvalidInputError, match="empty batch"):
                call(x[:0])

    def test_batch_and_single_shapes(self, rng):
        model = build_victim("rand-cnn", 1024, 3, seed=0)
        x = rng.uniform(0, 1, (4, 1024))
        out = model.logits(x)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(model.logits(x[0]), out[0], atol=1e-12)
        assert isinstance(model.predict(x[0]), int)
        assert model.predict(x).shape == (4,)


class TestBlockedLogits:
    @pytest.mark.parametrize("dim", [1024, 4096])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_equal_to_forward_cached(self, arch, dim):
        # 33, 65 and 97 rows would leave a 1-row block after full blocks of 32 rows, and 34..41
        # at d=1024 a 2..9-row block: a conv row must not depend on its block's size. A Dense
        # GEMM rounds differently at many row counts (on linear at 130 and 209 rows, d=4096), so
        # the head runs once. Fortran-ordered and row-strided batches take the same path.
        model = build_victim(arch, dim, 3, seed=5)
        x = np.random.default_rng(5).uniform(0, 1, (3000, dim))
        for n in (1, 2, 31, 32, 33, 34, 41, 64, 65, 97, 130, 209, 600, 1500):
            for batch in (x[:n], np.asfortranarray(x[:n]), x[: 2 * n : 2]):
                assert model.logits(batch).tobytes() == model.forward_cached(batch)[0].tobytes(), \
                    (n, batch.strides)
        assert model.logits(x[0]).tobytes() == model.forward_cached(x[0])[0][0].tobytes()

    def test_row_blocks_cut_as_array_split(self):
        # the fewest blocks of at most 32 rows, the first n % count of them one row longer,
        # each array cut alike
        for n in range(1, 301):
            rows, labels = np.arange(2 * n).reshape(n, 2), np.arange(n)
            blocks = list(_row_blocks(rows, labels))
            count = -(-n // 32)
            sizes = [n // count + 1] * (n % count) + [n // count] * (count - n % count)
            assert [len(r) for r, _ in blocks] == [len(y) for _, y in blocks] == sizes, n
            assert [r.tobytes() for r, _ in blocks] == [b.tobytes() for b in np.array_split(rows, count)]
            assert np.concatenate([y for _, y in blocks]).tolist() == labels.tolist()

    def test_linear_logits_copy_no_batch(self):
        model = build_victim("linear", 4096, 3, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (1500, 4096))
        model.logits(x[:2])  # untraced: the first call pays one-time allocations
        tracemalloc.start()
        try:
            model.logits(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_peak_memory_stays_below_one_conv1_copy(self):
        model = build_victim("rand-cnn", 4096, 3, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (1500, 4096))
        conv1 = model.layers[0]
        im2col_bytes = x.shape[0] * conv1.out_length(4096) * conv1.weight.shape[1] * 8
        tracemalloc.start()
        try:
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < im2col_bytes / 10


class TestLayerOrder:
    """Each CNN block pools before its ReLU; a max commutes with a monotone map, float for float."""

    @pytest.mark.parametrize("dim", [1024, 4096])
    @pytest.mark.parametrize("batch", [1, 25, 32, 100])
    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_passes_equal_relu_before_pool(self, arch, batch, dim):
        model = build_victim(arch, dim, 3, seed=6)
        oracle = relu_before_pool(model)
        assert [type(layer) for layer in model.layers[:6]] == [Conv1D, MaxPool1D, ReLU] * 2
        assert [type(layer) for layer in oracle.layers[:6]] == [Conv1D, ReLU, MaxPool1D] * 2
        x = np.random.default_rng(batch).uniform(0, 1, (batch, dim))
        (logits, caches), (ref_logits, ref_caches) = model.forward_cached(x), oracle.forward_cached(x)
        assert logits.tobytes() == ref_logits.tobytes()
        dlogits = cross_entropy_grad(logits, np.arange(batch) % 3)
        assert model.backward_input(caches, dlogits).tobytes() == \
            oracle.backward_input(ref_caches, dlogits).tobytes()
        grads, ref_grads = model.backward_params(caches, dlogits), oracle.backward_params(ref_caches, dlogits)
        assert [g is None for g in grads] == [g is None for g in ref_grads]
        for g, ref in zip(grads, ref_grads):
            for name in g or {}:
                assert g[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_training_equals_relu_before_pool(self, arch):
        ds = generate_synthetic_dataset(3, 20, 1024, seed=6)
        model = build_victim(arch, 1024, 3, seed=6)
        oracle = relu_before_pool(copy.deepcopy(model))
        train(model, ds, epochs=2, seed=6)
        train(oracle, ds, epochs=2, seed=6)
        assert model.parameter_vector().tobytes() == oracle.parameter_vector().tobytes()


class TestConvInputGradient:
    """Conv1D's input gradient, one GEMM and shifted add per tap block, against one add per tap."""

    @staticmethod
    def _case(layer, batch, length, seed):
        rng = np.random.default_rng(seed)
        _, cache = layer.forward(rng.uniform(-1, 1, (batch, length, layer.weight.shape[2])))
        dy = rng.standard_normal((batch, layer.out_length(length), layer.weight.shape[0]))
        dx, _ = layer.backward(cache, dy, want_params=False)
        return dx, conv_input_grad_per_tap(layer.weight, layer.stride, dy, length)

    @pytest.mark.parametrize("batch", [1, 24, 25, 32, 100])
    @pytest.mark.parametrize("length", [127, 128])
    def test_conv2_is_byte_identical(self, batch, length):
        # 127 is conv2's input length at d=4096, whose last sample takes no tap; 128 has none spare
        dx, ref = self._case(build_victim("rand-cnn", 4096, 3, seed=0).layers[3], batch, length, batch)
        assert dx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("batch", [1, 25, 100])
    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_conv1_within_rounding(self, arch, batch):
        # one input channel: each per-tap product is a matrix-vector product, rounded differently
        dx, ref = self._case(build_victim(arch, 4096, 3, seed=0).layers[0], batch, 4096, batch)
        assert np.max(np.abs(dx - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_training_is_byte_identical_with_the_per_tap_oracle(self, arch, monkeypatch):
        ds = generate_synthetic_dataset(3, 10, 1024, seed=6, test_per_class=2)
        fast = build_victim(arch, 1024, 3, seed=6)
        train(fast, ds, epochs=2, batch_size=8, seed=6)
        original, input_grads = Conv1D.backward, []

        def per_tap(layer, cache, dy, want_params, want_input=True):
            _, grads = original(layer, cache, dy, want_params, want_input=False)
            if not want_input:
                return None, grads
            input_grads.append(dy.shape)
            return conv_input_grad_per_tap(layer.weight, layer.stride, dy, cache.shape[1]), grads

        monkeypatch.setattr(Conv1D, "backward", per_tap)
        slow = build_victim(arch, 1024, 3, seed=6)
        train(slow, ds, epochs=2, batch_size=8, seed=6)
        assert slow.parameter_vector().tobytes() == fast.parameter_vector().tobytes()
        # rand-cnn trains conv1, so conv2 passes it an input gradient; gamma-cnn's conv1 is frozen
        assert bool(input_grads) == (arch == "rand-cnn")

    @pytest.mark.parametrize("kernel, stride", [(16, 3), (16, 32), (16, 0)])
    def test_stride_must_divide_the_kernel(self, kernel, stride):
        with pytest.raises(InvalidInputError, match="must divide"):
            Conv1D(np.zeros((2, kernel, 1)), np.zeros(2), stride=stride)


_CONVS = pytest.mark.parametrize("arch, index", [("rand-cnn", 0), ("gamma-cnn", 0), ("rand-cnn", 3)],
                                 ids=["rand-conv1", "gamma-conv1", "conv2"])


def _conv_case(arch: str, index: int, dim: int, seed: int):
    """A registry conv layer with a random bias, and a generator positioned for its inputs."""
    model = build_victim(arch, dim, 3, seed=seed)
    layer = model.layers[index]
    rng = np.random.default_rng(seed + dim)
    layer.bias = rng.standard_normal(layer.bias.shape)  # the registry starts biases at 0
    length = dim if index == 0 else model.layers[0].out_length(dim) // 4
    return layer, length, rng


class TestConvParams:
    """Conv1D's forward over views of the input and its parameter gradients, against np.tensordot."""

    @pytest.mark.parametrize("dim", [1024, 4096])
    @pytest.mark.parametrize("batch", [1, 25, 32, 100])
    @_CONVS
    def test_byte_identical_to_tensordot(self, arch, index, batch, dim):
        layer, length, rng = _conv_case(arch, index, dim, batch)
        chans = layer.weight.shape[2]
        x = rng.uniform(-1, 1, (batch, length, chans))
        dy = rng.standard_normal((batch, layer.out_length(length), layer.weight.shape[0]))
        y, cache = layer.forward(x)
        _, grads = layer.backward(cache, dy, want_params=True, want_input=False)
        ref_y, _ = conv_forward_tensordot(layer, x)
        ref = conv_param_grads_tensordot(layer, x, dy)
        if batch == 1:
            # a batch-1 row is the row it is inside a large batch; the oracle's own 1-row product
            # (at d=1024, and conv2's at d=4096) is a small GEMM over a transposed weight, which
            # OpenBLAS rounds otherwise
            big = np.concatenate([x, rng.uniform(-1, 1, (99, length, chans))])
            ref_y = conv_forward_tensordot(layer, big)[0][:1]
        assert y.tobytes() == ref_y.tobytes()
        # the weight gradient sums in its own fixed order, which the phase oracle spells out
        by_phase = conv_param_grads_by_phase(layer, x, dy)["weight"]
        assert grads["weight"].tobytes() == by_phase.tobytes()
        assert np.max(np.abs(by_phase - ref["weight"])) <= 1e-14 * np.max(np.abs(ref["weight"]))
        assert grads["bias"].tobytes() == ref["bias"].tobytes()

    def test_weight_gradient_sums_a_long_batch_in_spans(self):
        # conv2's products sum at most 128 rows each, which OpenBLAS runs on one thread: 3 spans here
        layer, length, rng = _conv_case("rand-cnn", 3, 1024, 300)
        x = rng.uniform(-1, 1, (300, length, layer.weight.shape[2]))
        dy = rng.standard_normal((300, layer.out_length(length), layer.weight.shape[0]))
        _, grads = layer.backward(layer.forward(x)[1], dy, want_params=True, want_input=False)
        assert grads["weight"].tobytes() == conv_param_grads_by_phase(layer, x, dy)["weight"].tobytes()

    @pytest.mark.parametrize("dim", [1024, 4096])
    @_CONVS
    def test_rows_do_not_depend_on_the_batch_size(self, arch, index, dim):
        # no GEMM of one row: that goes to GEMV, as conv2's one window per phase at d=1024 would
        layer, length, rng = _conv_case(arch, index, dim, 8)
        x = rng.uniform(-1, 1, (100, length, layer.weight.shape[2]))
        full, _ = layer.forward(x)
        for batch in (1, 2, 25, 32):
            y, _ = layer.forward(x[:batch])
            for row in range(batch):
                assert y[row].tobytes() == full[row].tobytes(), (batch, row)

    def test_one_window_at_batch_1_is_no_gemv(self):
        # 16 frames hold one window of conv2's kernel: a lone row that GEMV would round otherwise
        layer, _, rng = _conv_case("rand-cnn", 3, 1024, 8)
        x = rng.uniform(-1, 1, (100, 16, 8))
        assert layer.forward(x[:1])[0].tobytes() == layer.forward(x)[0][:1].tobytes()

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_training_is_byte_identical_with_the_tensordot_oracle(self, arch, monkeypatch):
        ds = generate_synthetic_dataset(3, 20, 1024, seed=7, test_per_class=2)
        fast = build_victim(arch, 1024, 3, seed=7)
        train(fast, ds, epochs=2, seed=7)
        use_tensordot_conv(monkeypatch, conv_param_grads_by_phase)
        slow = build_victim(arch, 1024, 3, seed=7)
        train(slow, ds, epochs=2, seed=7)
        assert slow.parameter_vector().tobytes() == fast.parameter_vector().tobytes()


class TestConvCacheMemory:
    """Peak memory against the tensordot oracle, which caches the same contiguous input.

    The oracle's weight gradient copies the windows to im2col rows; a training
    step and the penalty objective copy no windows, so neither gets an allowance.
    """

    @staticmethod
    def _peak_bytes(call) -> int:
        call()  # untraced: the first call pays one-time allocations, which would count in its peak
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _check(self, call, monkeypatch):
        peak = self._peak_bytes(call)
        use_tensordot_conv(monkeypatch)
        assert peak <= self._peak_bytes(call)

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_training_step(self, arch, monkeypatch):
        model = build_victim(arch, 4096, 3, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (32, 4096))

        def step():
            logits, caches = model.forward_cached(x)
            model.backward_params(caches, cross_entropy_grad(logits, np.arange(32) % 3) / 32)

        self._check(step, monkeypatch)

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_penalty_objective(self, arch, monkeypatch):
        # 100 rows run as four blocks; each block's caches go before the next block's forward
        model = build_victim(arch, 4096, 3, seed=0)
        x_tanh = to_tanh_space(np.random.default_rng(0).uniform(0, 1, (100, 4096)))
        refs = np.arange(100) % 3
        v = np.zeros(4096)
        w_block = perturbed_sample(x_tanh[:25], v)

        def block():
            logits, caches = model.forward_cached(w_block)
            model.backward_input(caches, cross_entropy_grad(logits, refs[:25]))

        # At most four batch-wide arrays live at once (w, the hinge gradients, their
        # concatenation and the chain factor; NumPy reuses the temporaries of
        # 2w(1-w) and of the product in place), and a block's forward and backward
        # run beside at most two of them; a few length-d vectors come on top. Caches
        # that outlive their block, as the last block's would through the sum, exceed
        # this by one block's activations (1.5 MB).
        batch = x_tanh.nbytes
        bound = max(4 * batch, 2 * batch + self._peak_bytes(block)) + 8 * v.nbytes
        objective = lambda: _objective(model, x_tanh, v, refs, 0.2, 0.0, "untargeted")  # noqa: E731
        assert self._peak_bytes(objective) <= bound
        self._check(objective, monkeypatch)


class TestMaxPool:
    @pytest.mark.parametrize("batch", [1, 100])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_equal_to_first_max_oracle(self, batch, width):
        rng = np.random.default_rng(batch + width)
        # ReLU'd values on a coarse grid: many all-zero windows and repeated maxima, and -0.0
        # beside 0.0 in some. No width here divides the length 127, so a tail gets no window.
        x = np.maximum(rng.integers(-3, 3, (batch, 127, 5)) * 0.5, 0.0)
        x[:, :12, :] = 0.0
        x[:, 1:12:2, 1] = -0.0
        dy = rng.standard_normal((batch, x.shape[1] // width, 5))
        dy[:, 0, 0] = -0.0
        pool = MaxPool1D(width)
        y, cache = pool.forward(x)
        dx, _ = pool.backward(cache, dy, want_params=False)
        y_ref, dx_ref = maxpool_first_max(x, width, dy)
        assert y.tobytes() == y_ref.tobytes()
        assert dx.tobytes() == dx_ref.tobytes()
        assert not dx[:, (x.shape[1] // width) * width:, :].any()

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_dy(self, layout):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 127, 5))
        wide = rng.standard_normal((7, 31, 10))
        dy = wide[:, :, ::2] if layout == "strided" else np.asfortranarray(wide[:, :, :5])
        assert not dy.flags.c_contiguous
        pool = MaxPool1D(4)
        _, cache = pool.forward(x)
        dx, _ = pool.backward(cache, dy, want_params=False)
        assert dx.tobytes() == maxpool_first_max(x, 4, dy)[1].tobytes()


class TestInputGradient:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_matches_central_differences(self, arch, rng):
        model = build_victim(arch, 1024, 3, seed=3)
        x = rng.uniform(0.2, 0.8, 1024)
        logits, caches = model.forward_cached(x)
        # (scalar of the logits, its gradient w.r.t. them): logit 1, cross-entropy about class 2
        heads = [(lambda z: z[1], np.eye(3)[[1]]),
                 (lambda z: -np.log(softmax(z)[2]), cross_entropy_grad(logits, [2]))]
        for value, dlogits in heads:
            g = model.backward_input(caches, dlogits)
            assert g.shape == (1, 1024)
            step = 1e-3
            for i in rng.choice(1024, size=25, replace=False):
                e = np.zeros(1024)
                e[i] = step
                fd = (value(model.logits(x + e)) - value(model.logits(x - e))) / (2 * step)
                assert g[0, i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestBackwardParams:
    @staticmethod
    def _batch(arch, rng):
        model = build_victim(arch, 1024, 3, seed=4)
        _, caches = model.forward_cached(rng.uniform(0, 1, (4, 1024)))
        return model, caches, rng.normal(size=(4, 3))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_matches_full_reverse_pass(self, arch, rng):
        model, caches, dlogits = self._batch(arch, rng)
        # reference: every layer's backward, input gradient included
        dh, expected = dlogits, [None] * len(model.layers)
        for i in range(len(model.layers) - 1, -1, -1):
            layer = model.layers[i]
            dh, expected[i] = layer.backward(caches[i], dh,
                                             want_params=bool(layer.params()) and not layer.frozen)
        got = model.backward_params(caches, dlogits)
        assert [g is None for g in got] == [g is None for g in expected]
        for g, e in zip(got, expected):
            if e is not None:
                assert g.keys() == e.keys()
                assert all(np.array_equal(g[k], e[k]) for k in e)

    @pytest.mark.parametrize("arch, calls", [("rand-cnn", 1), ("gamma-cnn", 0), ("linear", 0)])
    def test_first_layer_computes_no_input_gradient(self, arch, calls, rng, monkeypatch):
        model, caches, dlogits = self._batch(arch, rng)
        first, returned = model.layers[0], []
        original = first.backward

        def spy(*args, **kwargs):
            dx, grads = original(*args, **kwargs)
            returned.append(dx)
            return dx, grads

        # frozen or parameter-free first layers (gamma-cnn, linear's Flatten) are never called
        monkeypatch.setattr(first, "backward", spy)
        model.backward_params(caches, dlogits)
        assert len(returned) == calls
        assert all(dx is None for dx in returned)


class TestTraining:
    def test_linear_separable_problem(self):
        ds = generate_synthetic_dataset(2, 40, 128, seed=5, test_per_class=10)
        model = build_victim("linear", 128, 2, seed=5)
        train(model, ds, epochs=15, seed=5)
        x, y = ds.arrays("train")
        assert accuracy(model, x, y) >= 0.95

    def test_victim_fixture_fits_training_set(self, victim, train_xy):
        assert accuracy(victim, *train_xy) >= 0.9

    def test_zero_epochs_is_identity(self, bandtone_ds):
        model = build_victim("rand-cnn", bandtone_ds.dim, 3, seed=0)
        before = model.parameter_vector().copy()
        untrained = accuracy(model, *bandtone_ds.arrays("train"))
        assert train(model, bandtone_ds, epochs=0) == {"train_accuracy": untrained}
        np.testing.assert_array_equal(model.parameter_vector(), before)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_returns_the_trained_models_train_accuracy(self, arch):
        ds = generate_synthetic_dataset(3, 10, 1024, seed=4, val_per_class=2, test_per_class=2)
        model = build_victim(arch, 1024, 3, seed=4)
        result = train(model, ds, epochs=2, batch_size=7, seed=4)
        assert result == {"train_accuracy": accuracy(model, *ds.arrays("train"))}

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("batch_size", [7, 32])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_byte_identical_to_the_per_parameter_loop(self, arch, batch_size, epochs):
        # 45 rows: a short last batch at either size, and a front pass of two blocks
        ds = generate_synthetic_dataset(3, 15, 1024, seed=8, test_per_class=2)
        fast, slow = build_victim(arch, 1024, 3, seed=8), build_victim(arch, 1024, 3, seed=8)
        result = train(fast, ds, epochs=epochs, batch_size=batch_size, seed=8)
        assert result == train_per_parameter(slow, ds, epochs, batch_size=batch_size, seed=8)
        assert fast.parameter_vector().tobytes() == slow.parameter_vector().tobytes()

    @staticmethod
    def _forward_calls(monkeypatch, kind, arch, epochs) -> list[int]:
        """Rows of each forward call that layer 0, of class kind, makes in 60-row training at batch 16."""
        ds = generate_synthetic_dataset(3, 20, 1024, seed=9, test_per_class=2)
        model = build_victim(arch, 1024, 3, seed=9)
        original, rows = kind.forward, []

        def spy(layer, x):
            if layer is model.layers[0]:
                rows.append(x.shape[0])
            return original(layer, x)

        monkeypatch.setattr(kind, "forward", spy)
        train(model, ds, epochs=epochs, batch_size=16, seed=9)
        return rows

    def test_frozen_front_runs_once_per_call(self, monkeypatch):
        # gamma-cnn's frozen conv1: the front pass and the closing accuracy, 30 rows a block each
        for epochs in (1, 3):
            assert self._forward_calls(monkeypatch, Conv1D, "gamma-cnn", epochs) == [30, 30, 30, 30]

    def test_trained_first_layer_runs_in_every_step(self, monkeypatch):
        # rand-cnn trains conv1, so it has no front pass: 4 steps an epoch, then the accuracy's blocks
        for epochs in (1, 3):
            rows = self._forward_calls(monkeypatch, Conv1D, "rand-cnn", epochs)
            assert rows == [16, 16, 16, 12] * epochs + [30, 30]

    def test_parameter_free_prefix_runs_in_every_step(self, monkeypatch):
        # linear's Flatten is a free reshape: no front pass copies the split; the accuracy flattens it whole
        assert self._forward_calls(monkeypatch, Flatten, "linear", 2) == [16, 16, 16, 12] * 2 + [60]

    @pytest.mark.parametrize("dim", [512, 2048])
    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_split_of_another_length_is_rejected(self, arch, epochs, dim):
        ds = generate_synthetic_dataset(3, 4, dim, seed=1, test_per_class=1)
        model = build_victim(arch, 1024, 3, seed=1)
        before = model.parameter_vector().tobytes()
        with pytest.raises(InvalidInputError, match="expected input of length"):
            train(model, ds, epochs=epochs)
        assert model.parameter_vector().tobytes() == before

    def test_model_without_trainable_layers_is_left_unchanged(self):
        ds = generate_synthetic_dataset(3, 10, 1024, seed=3, test_per_class=2)
        model = build_victim("gamma-cnn", 1024, 3, seed=3)
        for layer in model.layers:
            layer.frozen = True
        before = model.parameter_vector().tobytes()
        assert train(model, ds, epochs=2, seed=3) == {"train_accuracy": accuracy(model, *ds.arrays("train"))}
        assert model.parameter_vector().tobytes() == before

    def test_gamma_front_end_stays_frozen(self):
        ds = generate_synthetic_dataset(2, 20, 1024, seed=2, test_per_class=5)
        model = build_victim("gamma-cnn", 1024, 2, seed=2)
        bank = model.layers[0].weight.copy()
        head = model.layers[-1].weight.copy()
        train(model, ds, epochs=2, seed=2)
        np.testing.assert_array_equal(model.layers[0].weight, bank)
        assert not np.array_equal(model.layers[-1].weight, head)

    def test_rand_front_end_updates(self):
        ds = generate_synthetic_dataset(2, 20, 1024, seed=2, test_per_class=5)
        model = build_victim("rand-cnn", 1024, 2, seed=2)
        first = model.layers[0].weight.copy()
        train(model, ds, epochs=2, seed=2)
        assert not np.array_equal(model.layers[0].weight, first)

    def test_label_range_checked(self, bandtone_ds):
        model = build_victim("linear", bandtone_ds.dim, 2, seed=0)
        with pytest.raises(InvalidInputError):
            train(model, bandtone_ds, epochs=1)

    @pytest.mark.parametrize("arch", ["rand-cnn", "gamma-cnn"])
    def test_does_not_depend_on_the_blas_thread_count(self, arch):
        # each thread count trains in its own process, because OpenBLAS reads it at load time
        script = ("import hashlib, sys\n"
                  "from uapaudio import build_victim, generate_synthetic_dataset, train\n"
                  "ds = generate_synthetic_dataset(3, 60, 4096, seed=7, test_per_class=2)\n"
                  "model = build_victim(sys.argv[1], 4096, 3, seed=7)\n"
                  "train(model, ds, epochs=1, seed=7)\n"
                  "print(hashlib.sha256(model.parameter_vector().tobytes()).hexdigest())\n")
        src = str(Path(uapaudio.__file__).resolve().parents[1])
        digests = []
        for n in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}
            digests.append(subprocess.run([sys.executable, "-c", script, arch], capture_output=True, text=True,
                                          check=True, timeout=120, env=env).stdout)
        assert digests[0] == digests[1] != ""


class TestCheckpoints:
    # trained parameters use every bit of their float64 values, which the file must keep
    @pytest.mark.parametrize("arch, epochs", [
        *(pytest.param(arch, 0, id=arch) for arch in ARCHITECTURES),
        *(pytest.param(arch, 2, id=f"{arch}-trained") for arch in ARCHITECTURES),
    ])
    def test_round_trip_preserves_logits(self, arch, epochs, tmp_path, rng):
        model = build_victim(arch, 1024, 3, seed=4)
        train(model, generate_synthetic_dataset(3, 10, 1024, seed=4, test_per_class=2), epochs=epochs, seed=4)
        f = tmp_path / "m.uapc"
        save_model(model, f)
        loaded = load_model(f)
        assert loaded.arch == arch and loaded.input_dim == 1024
        assert loaded.parameter_vector().tobytes() == model.parameter_vector().tobytes()
        x = rng.uniform(0, 1, (3, 1024))
        np.testing.assert_array_equal(loaded.logits(x), model.logits(x))

    def test_resave_byte_identical(self, tmp_path):
        model = build_victim("gamma-cnn", 1024, 2, seed=1)
        a, b = tmp_path / "a.uapc", tmp_path / "b.uapc"
        save_model(model, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_frozen_flags_survive(self, tmp_path):
        model = build_victim("gamma-cnn", 1024, 2, seed=1)
        f = tmp_path / "m.uapc"
        save_model(model, f)
        assert load_model(f).layers[0].frozen is True

    def test_kind_enforced(self, tmp_path, rng):
        from uapaudio.container import write_container

        f = tmp_path / "x.uapc"
        write_container(f, {"kind": "perturbation"}, {"v_signal": rng.normal(size=8)})
        with pytest.raises(FormatError):
            load_model(f)

    # replacement specs for layer 0, a conv1d with fields stride (int) and frozen (bool)
    BAD_LAYER0 = {
        "unknown-type": {"type": "conv2d", "stride": 8, "frozen": False},
        "missing-field": {"type": "conv1d", "frozen": False},
        "extra-field": {"type": "conv1d", "stride": 8, "frozen": False, "dilation": 1},
        "str-stride": {"type": "conv1d", "stride": "8", "frozen": False},
        "spec-not-object": "conv1d",
        "float-stride": {"type": "conv1d", "stride": 8.0, "frozen": False},
        "int-frozen": {"type": "conv1d", "stride": 8, "frozen": 0},
    }

    # manifest entries the old generic loader accepted or mishandled: the stored
    # layers are valid rand-cnn layers, but not the architecture the manifest names
    BAD_ARCH = {
        "arch-custom": "custom",
        "arch-list": ["rand-cnn"],
        "arch-number": 3,
    }

    # replacement blobs that the container accepts but the architecture does not fit
    BAD_BLOBS = {
        "short-dense-weight": ("layer7.weight", lambda w: w.ravel()[:10]),
        "transposed-dense-weight": ("layer9.weight", lambda w: w.T),
        "one-value-bias": ("layer9.bias", lambda b: b[:1]),
        "conv-channels": ("layer3.weight", lambda w: w[:, :, :4]),
        "conv-kernel-too-long": ("layer0.weight", lambda w: np.zeros((8, 2048, 1))),
    }

    # manifest sizes no numpy array or float can hold, each over a 1024-dim, 3-class victim
    BAD_SIZES = {
        "input-dim-huge": ("linear", {"input_dim": 2**61}),
        "classes-huge": ("rand-cnn", {"num_classes": 2**61}),
        "rate-huge": ("gamma-cnn", {"sample_rate": 10**400}),
        "rate-past-wav": ("rand-cnn", {"sample_rate": 2**40}),  # no WAV header can carry it
    }

    @pytest.mark.parametrize("defect", ["no-layers", "layers-not-list", "no-weight", "nan-weight", "inf-bias",
                                        "input-dim", "classes", "zero-stride", "frozen-dense",
                                        "relu-before-pool", *BAD_LAYER0, *BAD_BLOBS, *BAD_ARCH, *BAD_SIZES])
    def test_malformed_checkpoint_is_format_error(self, defect, tmp_path):
        from uapaudio.container import read_container, write_container

        f = tmp_path / "m.uapc"
        arch, sizes = self.BAD_SIZES.get(defect, ("rand-cnn", {}))
        save_model(build_victim(arch, 1024, 3, seed=4), f)
        manifest, blobs = read_container(f)
        manifest.update(sizes)
        if defect == "no-layers":
            del manifest["layers"]
        elif defect == "layers-not-list":
            manifest["layers"] = 10
        elif defect == "no-weight":
            del blobs["layer0.weight"]
        elif defect == "nan-weight":
            blobs["layer3.weight"][0, 0, 0] = np.nan
        elif defect == "inf-bias":
            blobs["layer9.bias"][-1] = -np.inf
        elif defect == "input-dim":
            manifest["input_dim"] = 2048
        elif defect == "classes":
            manifest["num_classes"] = 4
        elif defect == "zero-stride":
            manifest["layers"][3]["stride"] = 0
        elif defect == "frozen-dense":
            # self-consistent, and loadable by a generic layer loader, but not rand-cnn's head
            manifest["layers"][7]["frozen"] = True
        elif defect == "relu-before-pool":
            # the layer order of rand-cnn checkpoints from before each block pooled before its ReLU
            manifest["layers"][1:3] = manifest["layers"][4:6] = [{"type": "relu"},
                                                                 {"type": "maxpool1d", "width": 4}]
        elif defect in self.BAD_ARCH:
            manifest["arch"] = self.BAD_ARCH[defect]
        elif defect in self.BAD_BLOBS:
            name, change = self.BAD_BLOBS[defect]
            blobs[name] = change(blobs[name])
        elif defect in self.BAD_LAYER0:
            manifest["layers"][0] = self.BAD_LAYER0[defect]
        write_container(f, manifest, blobs)
        with pytest.raises(FormatError, match="layer|output shape"):
            load_model(f)

    @pytest.mark.parametrize("arch, sizes", [
        ("linear", {"input_dim": 10**8}),
        ("linear", {"input_dim": 3000, "num_classes": 3000}),
        ("rand-cnn", {"input_dim": 10**8}),
        ("gamma-cnn", {"num_classes": 10**8}),
    ])
    def test_sizes_past_the_stored_weights_are_refused_before_building(self, arch, sizes, tmp_path, monkeypatch):
        from uapaudio import models
        from uapaudio.container import read_container, write_container

        f = tmp_path / "m.uapc"
        save_model(build_victim(arch, 1024, 3, seed=4), f)
        manifest, blobs = read_container(f)
        write_container(f, {**manifest, **sizes}, blobs)
        monkeypatch.setattr(models, "build_victim", lambda *args, **kwargs: pytest.fail("built"))
        with pytest.raises(FormatError, match="too few"):
            load_model(f)

    def test_save_refuses_a_non_registry_architecture(self, tmp_path):
        model = build_victim("linear", 64, 2)
        model.arch = "custom"
        with pytest.raises(InvalidInputError, match="custom"):
            save_model(model, tmp_path / "m.uapc")
        assert not (tmp_path / "m.uapc").exists()


class TestAdam:
    def test_first_step_is_signed_lr(self, rng):
        # bias correction makes step one exactly -lr * sign(g) up to eps
        g = rng.normal(size=12)
        delta, state = adam_update(AdamState(lr=0.05), g)
        np.testing.assert_allclose(delta, -0.05 * np.sign(g), atol=1e-6)
        assert state.t == 1

    def test_recurrence_matches_reference(self, rng):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        state = AdamState(lr=lr)  # the betas and eps are fixed; the reference states them
        m = np.zeros(5)
        u = np.zeros(5)
        x_ref = np.zeros(5)
        x = np.zeros(5)
        for t in range(1, 8):
            g = rng.normal(size=5)
            delta, state = adam_update(state, g)
            x = x + delta
            m = b1 * m + (1 - b1) * g
            u = b2 * u + (1 - b2) * g**2
            x_ref = x_ref - lr * (m / (1 - b1**t)) / (np.sqrt(u / (1 - b2**t)) + eps)
            np.testing.assert_allclose(x, x_ref, atol=1e-12)

    def test_rejects_nonfinite_gradient(self):
        with pytest.raises(InvalidInputError):
            adam_update(AdamState(), np.array([np.nan]))

    def test_state_is_immutable(self, rng):
        state = AdamState()
        adam_update(state, rng.normal(size=3))
        assert state.t == 0 and state.m is None


def _per_epoch_batches(n: int, size: int, rng: np.random.Generator, epochs: int):
    # reference order: one permutation per epoch, sliced in turn; seeded_batches must match it
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, size):
            yield order[start : start + size]


class TestSeededBatches:
    @pytest.mark.parametrize("n", [1, 7, 600])
    @pytest.mark.parametrize("size", [1, 7, 32, 100, 1000])
    def test_same_batches_as_a_per_epoch_loop(self, n, size):
        epochs = 3
        steps = epochs * -(-n // size)
        new_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
        new = list(islice(seeded_batches(n, size, new_rng), steps))
        old = list(_per_epoch_batches(n, size, old_rng, epochs))
        assert len(new) == len(old) == steps
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a, b)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

