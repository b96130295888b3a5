"""Box-free reparameterisation of waveforms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    InvalidInputError,
    perturbed_sample,
    render_signal_v,
    to_tanh_space,
)
from oracles import recover_vprime

unit_signals = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=64
).map(np.asarray)
small_vprimes = st.lists(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False), min_size=1, max_size=64
).map(np.asarray)


class TestToTanhSpace:
    def test_midpoint_is_zero(self):
        assert to_tanh_space(np.array([0.5]))[0] == 0.0

    def test_endpoint_clamp_value(self):
        # arctanh(1 - 1e-7) with the default epsilon guard
        w = to_tanh_space(np.array([0.0, 1.0]))
        assert w[1] == pytest.approx(8.40562139102231, rel=1e-12)
        assert w[0] == pytest.approx(-8.40562139102231, rel=1e-12)

    def test_monotone(self):
        x = np.linspace(0.0, 1.0, 50)
        assert np.all(np.diff(to_tanh_space(x)) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            to_tanh_space(np.array([1.01]))
        with pytest.raises(InvalidInputError):
            to_tanh_space(np.array([-0.01]))

    def test_rejects_empty_and_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            to_tanh_space(np.array([]))


class TestPerturbedSample:
    @given(unit_signals)
    def test_zero_perturbation_round_trip(self, x):
        # the epsilon guard shrinks the box by <= eps/2 per endpoint
        x_tanh = to_tanh_space(x)
        w = perturbed_sample(x_tanh, np.zeros_like(x_tanh))
        assert np.allclose(w, x, atol=1e-6)

    @given(unit_signals, small_vprimes)
    def test_output_strictly_inside_box(self, x, v):
        if len(v) != len(x):
            v = np.resize(v, len(x))
        w = perturbed_sample(to_tanh_space(x), v)
        assert np.all(w > 0.0) and np.all(w < 1.0)

    def test_saturation_guarded(self):
        w = perturbed_sample(np.array([8.4]), np.array([30.0]))
        assert w[0] < 1.0
        with np.errstate(divide="raise"):
            np.log1p(-w)  # must not hit log(0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            perturbed_sample(np.zeros(3), np.zeros(4))

    def test_broadcasts_over_batch(self):
        batch = np.zeros((5, 8))
        v = np.full(8, 0.3)
        w = perturbed_sample(batch, v)
        assert w.shape == (5, 8)
        assert np.allclose(w, w[0])


class TestRecoverVprime:
    @given(unit_signals, small_vprimes)
    def test_inverts_perturbation(self, x, v):
        if len(v) != len(x):
            v = np.resize(v, len(x))
        x_tanh = to_tanh_space(np.clip(x, 0.01, 0.99))
        w = perturbed_sample(x_tanh, v)
        assert np.allclose(recover_vprime(w, x_tanh), v, atol=1e-6)


class TestRenderSignalV:
    def test_zero_renders_midpoint_exactly(self):
        out = render_signal_v(np.zeros(16))
        assert np.all(out == 0.5)

    def test_monotone(self):
        v = np.linspace(-5.0, 5.0, 40)
        assert np.all(np.diff(render_signal_v(v)) > 0)

    def test_clips_to_unit_box(self):
        out = render_signal_v(np.array([-40.0, 0.0, 40.0]))
        assert out[0] == 0.0 and out[2] == 1.0

    def test_rejects_nonfinite_and_bad_epsilon(self):
        with pytest.raises(InvalidInputError):
            render_signal_v(np.array([np.inf]))

    @given(small_vprimes)
    def test_always_valid_signal(self, v):
        out = render_signal_v(v)
        assert np.all((out >= 0.0) & (out <= 1.0))
