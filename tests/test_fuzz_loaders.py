"""Loaders on corrupted files: each input either loads or raises a UapAudioError.

Inputs are valid files cut short at any offset, with one byte replaced, with a
manifest key deleted, with a blob's recorded shape changed, or with one
non-finite parameter value. Any exception other than UapAudioError fails.
Files whose entries are well formed but of the wrong type or out of range
must raise FormatError.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapaudio import (
    FormatError,
    Perturbation,
    UapAudioError,
    build_victim,
    generate_synthetic_dataset,
    load_dataset_dir,
    load_model,
    load_perturbation,
    save_dataset_dir,
    save_model,
    save_perturbation,
)
from uapaudio.audio import load_wav
from uapaudio.container import MAGIC, canonical_json, read_container

MUTATIONS = settings(max_examples=150)


class _Files(dict):
    def __repr__(self) -> str:  # keeps hypothesis reports short
        return f"<valid files {sorted(self)}>"


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of one valid file of each kind, keyed by file name."""
    root = tmp_path_factory.mktemp("valid")
    save_model(build_victim("rand-cnn", 1024, 3, seed=0), root / "model.uapc")
    v = np.linspace(-0.1, 0.1, 64)
    save_perturbation(Perturbation(v_tanh=2 * v, mode="targeted", target=1, p=2.0, xi=0.5),
                      root / "pert.uapc")
    save_dataset_dir(generate_synthetic_dataset(2, 1, 128, seed=0, test_per_class=1), root / "data")
    files = _Files({p.name: p.read_bytes() for p in (root / "model.uapc", root / "pert.uapc")})
    files.update({f"data/{p.name}": p.read_bytes() for p in sorted((root / "data").iterdir())})
    return files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# a valid file cut short at an offset, or with the byte at an offset changed to another value
corruptions = st.tuples(st.sampled_from(["cut", "flip"]), st.integers(0, 1 << 20), st.integers(1, 255))


def _corrupt(data: bytes, corruption: tuple[str, int, int]) -> bytes:
    kind, pos, delta = corruption
    pos %= len(data)
    if kind == "cut":
        return data[:pos]
    return data[:pos] + bytes([(data[pos] + delta) % 256]) + data[pos + 1 :]


def _loads_or_typed_error(loader, path) -> None:
    try:
        loader(path)
    except UapAudioError:
        pass


def _raw_container(manifest: dict, payload: bytes) -> bytes:
    meta = canonical_json(manifest)
    return MAGIC + len(meta).to_bytes(4, "little") + meta + payload


def _split(data: bytes) -> tuple[dict, bytes]:
    length = int.from_bytes(data[len(MAGIC) : len(MAGIC) + 4], "little")
    start = len(MAGIC) + 4
    return json.loads(data[start : start + length]), data[start + length :]


CONTAINERS = [("model.uapc", load_model), ("pert.uapc", load_perturbation)]


class TestContainers:
    @pytest.mark.parametrize("name, loader", CONTAINERS)
    @MUTATIONS
    @given(corruption=corruptions)
    def test_corrupted_bytes(self, originals, workdir, name, loader, corruption):
        f = workdir / name
        f.write_bytes(_corrupt(originals[name], corruption))
        _loads_or_typed_error(loader, f)

    @pytest.mark.parametrize("name, loader", CONTAINERS)
    @given(data=st.data())
    def test_missing_key(self, originals, workdir, name, loader, data):
        manifest, payload = _split(originals[name])
        layer_keys = [(i, k) for i, spec in enumerate(manifest.get("layers", [])) for k in spec]
        where = data.draw(st.sampled_from([(None, k) for k in manifest] + layer_keys))
        if where[0] is None:
            del manifest[where[1]]
        else:
            del manifest["layers"][where[0]][where[1]]
        f = workdir / name
        f.write_bytes(_raw_container(manifest, payload))
        _loads_or_typed_error(loader, f)

    @pytest.mark.parametrize("name, loader", CONTAINERS)
    @given(data=st.data())
    def test_shape_lie(self, originals, workdir, name, loader, data):
        manifest, payload = _split(originals[name])
        entry = data.draw(st.sampled_from(manifest["blobs"]))
        true_count = int(np.prod(entry["shape"]))
        # a different shape over the same values, or a different count
        entry["shape"] = data.draw(st.one_of(
            st.permutations(entry["shape"]).map(list),
            st.sampled_from([[true_count], [1, true_count], [true_count, 1]]),
            st.lists(st.integers(0, 40), max_size=3),
        ))
        f = workdir / name
        f.write_bytes(_raw_container(manifest, payload))
        _loads_or_typed_error(loader, f)

    @pytest.mark.parametrize("name, loader", CONTAINERS)
    @given(data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_blob_is_rejected(self, originals, workdir, name, loader, data, value):
        manifest, payload = _split(originals[name])
        floats = np.frombuffer(payload, dtype="<f8").copy()
        floats[data.draw(st.integers(0, floats.size - 1))] = value
        f = workdir / name
        f.write_bytes(_raw_container(manifest, floats.tobytes()))
        with pytest.raises(UapAudioError, match="non-finite"):
            loader(f)

    @MUTATIONS
    @given(corruption=corruptions)
    def test_read_container(self, originals, workdir, corruption):
        f = workdir / "any.uapc"
        f.write_bytes(_corrupt(originals["model.uapc"], corruption))
        _loads_or_typed_error(read_container, f)


class TestWav:
    @MUTATIONS
    @given(corruption=corruptions)
    def test_corrupted_bytes(self, originals, workdir, corruption):
        f = workdir / "one.wav"
        f.write_bytes(_corrupt(originals["data/train_00_00000.wav"], corruption))
        _loads_or_typed_error(load_wav, f)


def _write_dataset(originals, root, edits: dict[str, bytes]):
    """Write the valid dataset files under root/data, with the bytes in edits in place of theirs."""
    for name, content in originals.items():
        if name.startswith("data/"):
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes(edits.get(name, content))
    return root / "data"


class TestDatasetDir:
    @MUTATIONS
    @given(data=st.data(), corruption=corruptions)
    def test_one_corrupted_file(self, originals, workdir, data, corruption):
        victim = data.draw(st.sampled_from(sorted(k for k in originals if k.startswith("data/"))))
        root = _write_dataset(originals, workdir, {victim: _corrupt(originals[victim], corruption)})
        _loads_or_typed_error(load_dataset_dir, root)

    @given(data=st.data())
    def test_manifest_missing_key(self, originals, workdir, data):
        manifest = json.loads(originals["data/manifest.json"])
        del manifest[data.draw(st.sampled_from(sorted(manifest)))]
        root = _write_dataset(originals, workdir, {"data/manifest.json": json.dumps(manifest).encode()})
        _loads_or_typed_error(load_dataset_dir, root)


class TestWellTypedOutOfRange:
    @pytest.mark.parametrize("entry", [{"num_classes": 0}, {"num_classes": 1}, {"dim": "128"},
                                       {"sample_rate": 16000.7}, {"sample_rate": 0}, {"dim": 0}],
                             ids=["classes-0", "classes-1", "dim-str", "rate-float", "rate-0", "dim-0"])
    def test_dataset_manifest(self, originals, tmp_path, entry):
        manifest = json.loads(originals["data/manifest.json"])
        manifest.update(entry)
        root = _write_dataset(originals, tmp_path, {"data/manifest.json": json.dumps(manifest).encode()})
        with pytest.raises(FormatError, match="manifest"):
            load_dataset_dir(root)

    @pytest.mark.parametrize("label", ["7", "-1", "2"])
    def test_dataset_label(self, originals, tmp_path, label):
        # the set has 2 classes: labels must lie in [0, 2)
        csv = originals["data/labels.csv"].decode().replace(",1,test", f",{label},test", 1)
        root = _write_dataset(originals, tmp_path, {"data/labels.csv": csv.encode()})
        with pytest.raises(FormatError, match=f"label {label} "):
            load_dataset_dir(root)

    @pytest.mark.parametrize("entry", [{"train_asr": "high"}, {"train_asr": 1.5}, {"train_asr": True},
                                       {"seed": "s"}, {"seed": 1.0}, {"params": [1.0]},
                                       {"params": {"epsilon": "x"}}, {"params": {"epsilon": 0.5}}],
                             ids=["train-asr-str", "train-asr-1.5", "train-asr-bool", "seed-str",
                                  "seed-float", "params-list", "epsilon-str", "epsilon-half"])
    def test_perturbation_entry(self, originals, tmp_path, entry):
        manifest, payload = _split(originals["pert.uapc"])
        manifest.update(entry)
        f = tmp_path / "pert.uapc"
        f.write_bytes(_raw_container(manifest, payload))
        with pytest.raises(FormatError, match=next(iter(entry))):
            load_perturbation(f)

    @pytest.mark.parametrize("seed", [[1, {"x": 2}], "banana", 1.0, True], ids=["list", "str", "float", "bool"])
    @pytest.mark.parametrize("loader", [load_model, load_dataset_dir, load_perturbation],
                             ids=["model", "dataset", "perturbation"])
    def test_stored_seed(self, originals, tmp_path, loader, seed):
        # the three loaders share one rule: a stored seed is an integer or null
        if loader is load_dataset_dir:
            manifest = json.loads(originals["data/manifest.json"])
            manifest["seed"] = seed
            path = _write_dataset(originals, tmp_path, {"data/manifest.json": json.dumps(manifest).encode()})
        else:
            name = "model.uapc" if loader is load_model else "pert.uapc"
            manifest, payload = _split(originals[name])
            manifest["seed"] = seed
            path = tmp_path / name
            path.write_bytes(_raw_container(manifest, payload))
        with pytest.raises(FormatError, match="seed must be an integer or null"):
            loader(path)
