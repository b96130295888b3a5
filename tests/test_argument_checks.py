"""Bad numbers fail loudly: non-finite and out-of-range settings, samples and targets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    GreedyConfig,
    InvalidInputError,
    PenaltyConfig,
    Perturbation,
    accuracy,
    build_victim,
    ddn_minimal_perturbation,
    evaluate_uap,
    generate_synthetic_dataset,
    greedy_uap,
    load_dataset_dir,
    penalty_uap,
    project_lp,
    save_dataset_dir,
    to_tanh_space,
    train,
    two_proportion_z,
)

non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
not_positive = st.floats(max_value=0.0, allow_infinity=False) | non_finite
negative = st.floats(max_value=-5e-324, allow_infinity=False) | non_finite
not_unit_interval = not_positive | st.floats(min_value=1.0, exclude_min=True)  # outside (0, 1]


def below(count: int):
    """Whole numbers under count, plus every non-finite value."""
    return st.integers(max_value=count - 1) | non_finite


def bad_count(least: int):
    """What a count of at least `least` must reject: below(least) and fractions up to 99."""
    return below(least) | st.floats(min_value=0.0, max_value=99.0).filter(lambda v: not v.is_integer())


# (config class, field, values the field must reject)
BAD_FIELDS = [
    (GreedyConfig, "xi", not_positive),
    (GreedyConfig, "delta", not_unit_interval),
    (GreedyConfig, "max_epochs", bad_count(1)),
    (GreedyConfig, "inner_steps", bad_count(1)),
    (GreedyConfig, "p", st.sampled_from([np.nan, -np.inf, 0.0, 1.0, 3.0])),
    (PenaltyConfig, "c", not_positive),
    (PenaltyConfig, "kappa", negative),
    (PenaltyConfig, "delta", not_unit_interval),
    (PenaltyConfig, "batch_size", bad_count(1)),
    (PenaltyConfig, "max_iters", bad_count(1)),
    (PenaltyConfig, "min_iters", bad_count(0) | st.integers(min_value=101)),  # max_iters is 100
]


@pytest.mark.parametrize("cls,name,bad", BAD_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in BAD_FIELDS])
@given(data=st.data())
def test_config_rejects_non_finite_and_out_of_range(cls, name, bad, data):
    value = data.draw(bad)
    with pytest.raises(InvalidInputError):
        cls(**{name: value})


COUNT_FIELDS = [(GreedyConfig, "max_epochs"), (GreedyConfig, "inner_steps"), (PenaltyConfig, "batch_size"),
                (PenaltyConfig, "max_iters"), (PenaltyConfig, "min_iters")]


@pytest.mark.parametrize("cls,name", COUNT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in COUNT_FIELDS])
def test_config_keeps_a_whole_float_count_as_an_int(cls, name):
    value = getattr(cls(**{name: 3.0}), name)
    assert value == 3 and type(value) is int


@given(steps=bad_count(1))
def test_inner_attack_rejects_a_bad_step_count(steps):
    with pytest.raises(InvalidInputError, match="steps"):
        ddn_minimal_perturbation(build_victim("linear", 256, 2), np.full(256, 0.5), steps=steps)


def test_penalty_projection_rejects_non_finite_radius():
    for xi in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(InvalidInputError):
            PenaltyConfig(project=(2.0, xi))
    with pytest.raises(InvalidInputError):
        PenaltyConfig(project=(np.nan, 1.0))
    for not_a_pair in ((2.0,), 2.0):
        with pytest.raises(InvalidInputError, match="pair"):
            PenaltyConfig(project=not_a_pair)


@pytest.mark.parametrize("p", [2.0, np.inf])
@given(xi=not_positive)
def test_projection_rejects_non_finite_and_non_positive_radius(p, xi):
    with pytest.raises(InvalidInputError):
        project_lp(np.ones(3), p, xi)


@given(m=bad_count(1) | st.just(874.5))
def test_z_test_rejects_non_finite_and_non_positive_count(m):
    with pytest.raises(InvalidInputError):
        two_proportion_z(0.4, 0.6, m)


_TINY = generate_synthetic_dataset(2, 2, 256, seed=0)


@pytest.mark.parametrize("name", ["epochs", "batch_size", "lr"])
@given(data=st.data())
def test_train_rejects_non_finite_and_out_of_range(name, data):
    bad = {"epochs": bad_count(0), "batch_size": bad_count(1), "lr": not_positive}[name]
    model = build_victim("linear", 256, 2, seed=0)
    before = model.parameter_vector().copy()
    kwargs = {"epochs": 1, name: data.draw(bad)}
    with pytest.raises(InvalidInputError):
        train(model, _TINY, **kwargs)
    np.testing.assert_array_equal(model.parameter_vector(), before)


def test_train_runs_whole_float_counts_as_ints():
    a, b = build_victim("linear", 256, 2, seed=0), build_victim("linear", 256, 2, seed=0)
    assert train(a, _TINY, epochs=2.0, batch_size=3.0) == train(b, _TINY, epochs=2, batch_size=3)
    assert a.parameter_vector().tobytes() == b.parameter_vector().tobytes()


@pytest.mark.parametrize("name,bad", [("val_per_class", -1), ("test_per_class", -1),
                                      ("test_per_class", np.nan), ("sample_rate", 0),
                                      ("sample_rate", -16000), ("sample_rate", np.nan),
                                      ("sample_rate", 2**31), ("sample_rate", 16000.5),
                                      ("num_classes", 2.5), ("per_class", 2.5), ("dim", 256.5),
                                      ("val_per_class", 0.5), ("test_per_class", 1.5)])
def test_generation_rejects_negative_counts_and_rates(name, bad):
    args = {"num_classes": 2, "per_class": 2, "dim": 256, "seed": 0, name: bad}
    with pytest.raises(InvalidInputError):
        generate_synthetic_dataset(**args)


def test_generation_takes_whole_float_counts_as_ints():
    def digest(ds):
        return [(x.tobytes(), y.tobytes()) for x, y in map(ds.arrays, ("train", "val", "test"))]

    ints = generate_synthetic_dataset(3, 2, 256, seed=0, val_per_class=1, test_per_class=3)
    floats = generate_synthetic_dataset(3.0, 2.0, 256.0, seed=0, val_per_class=1.0, test_per_class=3.0)
    assert digest(floats) == digest(ints)
    assert (type(floats.num_classes), type(floats.dim)) == (int, int)


def test_generation_keeps_a_whole_float_rate_as_an_int(tmp_path):
    save_dataset_dir(generate_synthetic_dataset(2, 2, 256, seed=0, sample_rate=8000.0), tmp_path / "d")
    assert load_dataset_dir(tmp_path / "d").sample_rate == 8000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteSamples:
    def _samples(self, bad):
        x = np.full((3, 256), 0.5)
        x[1, 7] = bad
        return x

    def test_greedy(self, bad):
        with pytest.raises(InvalidInputError):
            greedy_uap(build_victim("linear", 256, 2), self._samples(bad), GreedyConfig())

    def test_ddn(self, bad):
        with pytest.raises(InvalidInputError):
            ddn_minimal_perturbation(build_victim("linear", 256, 2), self._samples(bad)[1])

    def test_tanh_space(self, bad):
        with pytest.raises(InvalidInputError):
            to_tanh_space(self._samples(bad))

    def test_penalty(self, bad):
        with pytest.raises(InvalidInputError):
            penalty_uap(build_victim("linear", 256, 2), self._samples(bad), np.zeros(3), PenaltyConfig())

    def test_evaluate(self, bad):
        pert = Perturbation(v_signal=np.zeros(256), mode="untargeted")
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            evaluate_uap(build_victim("linear", 256, 2), (self._samples(bad), None), pert)


_LINEAR = build_victim("linear", 256, 2)
# the four callers of the one sample check, each given a 3 x 256 batch
SAMPLE_CALLERS = {
    "ddn": lambda x: ddn_minimal_perturbation(_LINEAR, x[1]),
    "evaluate": lambda x: evaluate_uap(_LINEAR, (x, None),
                                       Perturbation(v_signal=np.zeros(256), mode="untargeted")),
    "greedy": lambda x: greedy_uap(_LINEAR, x, GreedyConfig()),
    "tanh_space": to_tanh_space,
}


@pytest.mark.parametrize("caller", SAMPLE_CALLERS)
@given(bad=negative | st.floats(min_value=1.0, exclude_min=True), at=st.integers(0, 255))
def test_samples_outside_the_box_are_rejected(caller, bad, at):
    x = np.full((3, 256), 0.5)
    x[1, at] = bad
    with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
        SAMPLE_CALLERS[caller](x)


@pytest.mark.parametrize("target", [3, 9, -1])
class TestTargetAgainstVictim:
    """A target class the victim does not have is an error, not an IndexError or a 0.0 ASR."""

    def test_greedy(self, target):
        with pytest.raises(InvalidInputError, match="not a class"):
            greedy_uap(build_victim("linear", 256, 3), np.full((2, 256), 0.5),
                       GreedyConfig(mode="targeted", target=target))

    def test_penalty(self, target):
        with pytest.raises(InvalidInputError, match="not a class"):
            penalty_uap(build_victim("linear", 256, 3), np.full((2, 256), 0.5), None,
                        PenaltyConfig(mode="targeted", target=target))

    def test_evaluate(self, target):
        pert = Perturbation(v_signal=np.zeros(256), mode="targeted", target=target)
        with pytest.raises(InvalidInputError, match="not a class"):
            evaluate_uap(build_victim("linear", 256, 3), (np.full((2, 256), 0.5), None), pert)


@pytest.mark.parametrize("labels", [np.zeros(1, dtype=int), np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int)],
                         ids=["one", "short", "column"])
class TestLabelsAlignWithSamples:
    """Labels, when given, are a 1-D array with one entry per sample."""

    def test_penalty(self, labels):
        with pytest.raises(InvalidInputError, match="labels must align"):
            penalty_uap(_LINEAR, np.full((3, 256), 0.5), labels, PenaltyConfig())

    def test_evaluate(self, labels):
        pert = Perturbation(v_signal=np.zeros(256), mode="untargeted")
        with pytest.raises(InvalidInputError, match="labels must align"):
            evaluate_uap(_LINEAR, (np.full((3, 256), 0.5), labels), pert)

    def test_accuracy(self, labels):
        with pytest.raises(InvalidInputError, match="labels must align"):
            accuracy(_LINEAR, np.full((3, 256), 0.5), labels)
