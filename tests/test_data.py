"""Synthetic band-tone dataset generation and directory round trips."""

import hashlib
import tracemalloc
import wave

import numpy as np
import pytest

from uapaudio import (
    AudioSample,
    FormatError,
    InvalidInputError,
    generate_synthetic_dataset,
    load_dataset_dir,
    load_wav,
    save_dataset_dir,
    save_wav,
)
from uapaudio.container import read_csv
from uapaudio.data import AM_CYCLES, TONE_AMPLITUDE, SPLITS, band_edges, class_template


def band_power_ratio(x: np.ndarray, lo: float, hi: float) -> float:
    """Fraction of non-DC spectral power inside DFT bins [floor(lo), ceil(hi)]."""
    spec = np.abs(np.fft.rfft(2.0 * x - 1.0)) ** 2
    spec[0] = 0.0
    band = spec[int(np.floor(lo)) : int(np.ceil(hi)) + 1]
    return float(band.sum() / spec.sum())


class TestGeneration:
    def test_shapes_and_labels(self):
        ds = generate_synthetic_dataset(3, 8, 256, seed=0, val_per_class=2, test_per_class=4)
        x, y = ds.arrays("train")
        assert x.shape == (24, 256)
        assert np.bincount(y).tolist() == [8, 8, 8]
        assert len(ds.val) == 6 and len(ds.arrays("test")[0]) == 12

    def test_default_test_split_is_half(self):
        ds = generate_synthetic_dataset(2, 10, 256, seed=0)
        assert len(ds.test) == 10 and len(ds.val) == 0

    def test_deterministic(self):
        a = generate_synthetic_dataset(3, 5, 256, seed=11)
        b = generate_synthetic_dataset(3, 5, 256, seed=11)
        np.testing.assert_array_equal(a.arrays("train")[0], b.arrays("train")[0])
        c = generate_synthetic_dataset(3, 5, 256, seed=12)
        assert not np.array_equal(a.arrays("train")[0], c.arrays("train")[0])

    def test_samples_stay_in_unit_box(self):
        x, _ = generate_synthetic_dataset(4, 6, 512, noise_level=0.3, seed=3).arrays("train")
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_zero_noise_samples_of_a_class_identical(self):
        ds = generate_synthetic_dataset(3, 4, 256, noise_level=0.0, seed=0)
        x, y = ds.arrays("train")
        for k in range(3):
            rows = x[y == k]
            assert np.all(rows == rows[0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic_dataset(1, 4, 256)
        with pytest.raises(InvalidInputError):
            generate_synthetic_dataset(2, 0, 256)
        with pytest.raises(InvalidInputError):
            generate_synthetic_dataset(2, 4, 256, noise_level=1.0)
        with pytest.raises(InvalidInputError, match="noise level 0.83"):
            generate_synthetic_dataset(2, 4, 256, noise_level=0.83)  # the tone would leave [0, 1]
        generate_synthetic_dataset(2, 4, 256, noise_level=0.82)
        with pytest.raises(InvalidInputError):
            generate_synthetic_dataset(2, 4, 256).arrays("holdout")


class TestArrays:
    # SHA-256 over every split's sample and label bytes, as the earlier
    # sample-by-sample generator produced them
    DIGESTS = {
        0.05: "f9f92db43a406c1e1659f93a2bf01c141c23e2cae8fb61f7999f96d355de8679",
        0.0: "03bf5d767c191db17da9f3572e1017845f0c185f385c2c5d45a0ac15604ec3ac",
    }

    @pytest.mark.parametrize("noise_level", sorted(DIGESTS))
    def test_same_bits_as_sample_by_sample_generation(self, noise_level):
        ds = generate_synthetic_dataset(3, 4, 256, noise_level=noise_level, seed=0,
                                        val_per_class=2, test_per_class=3)
        h = hashlib.sha256()
        for name in ("train", "val", "test"):
            x, y = ds.arrays(name)
            assert x.dtype == np.float64 and y.dtype == np.int64
            h.update(x.tobytes())
            h.update(y.tobytes())
        assert h.hexdigest() == self.DIGESTS[noise_level]

    def test_stored_arrays_are_read_only_and_not_copied(self):
        ds = generate_synthetic_dataset(2, 3, 256, seed=0)
        x, y = ds.arrays("train")
        assert x is ds.train and y is ds.labels["train"]
        with pytest.raises(ValueError):
            x[0] = 0.5
        with pytest.raises(ValueError):
            y[0] = 1


class TestSpectralStructure:
    def test_zero_noise_waveform_is_periodic(self):
        ds = generate_synthetic_dataset(3, 1, 512, noise_level=0.0, seed=0)
        x, _ = ds.arrays("train")
        shift = 512 // AM_CYCLES
        for row in x:
            assert np.max(np.abs(row - np.roll(row, shift))) < 1e-9

    @pytest.mark.parametrize("dim", [256, 1024, 4096])
    def test_class_energy_concentrated_in_band(self, dim):
        num_classes = 3
        edges = band_edges(num_classes, dim)
        ds = generate_synthetic_dataset(num_classes, 2, dim, noise_level=0.0, seed=0)
        x, y = ds.arrays("train")
        for row, label in zip(x, y):
            ratio = band_power_ratio(row, edges[label], edges[label + 1])
            assert ratio > 0.8

    def test_bands_partition_without_overlap(self):
        edges = band_edges(4, 1024)
        assert np.all(np.diff(edges) > 0)
        # energy in a class's own band dwarfs energy in any other band
        ds = generate_synthetic_dataset(4, 1, 1024, noise_level=0.0, seed=0)
        x, y = ds.arrays("train")
        for row, label in zip(x, y):
            own = band_power_ratio(row, edges[label], edges[label + 1])
            for other in range(4):
                if other != label:
                    assert band_power_ratio(row, edges[other], edges[other + 1]) < 0.1 * own

    def test_template_peak_bound(self):
        edges = band_edges(2, 512)
        s = class_template(512, edges[0], edges[1])
        assert np.max(np.abs(s)) <= TONE_AMPLITUDE + 1e-12

    def test_band_edges_reject_tiny_dim(self):
        with pytest.raises(InvalidInputError):
            band_edges(8, 128)


class TestDirectoryRoundTrip:
    def test_wav_export_and_reload(self, tmp_path):
        ds = generate_synthetic_dataset(2, 3, 256, seed=4, val_per_class=1, test_per_class=2)
        save_dataset_dir(ds, tmp_path / "ds")
        loaded = load_dataset_dir(tmp_path / "ds")
        assert loaded.num_classes == 2 and loaded.dim == 256 and loaded.seed == 4
        for name in ("train", "val", "test"):
            x0, y0 = ds.arrays(name)
            x1, y1 = loaded.arrays(name)
            np.testing.assert_array_equal(y0, y1)
            # 16-bit PCM quantization
            assert np.max(np.abs(x0 - x1)) <= 1.0 / 65536

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "labels.csv").write_text("filename,label,split\n")
        with pytest.raises(FormatError):
            load_dataset_dir(tmp_path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"dim":8,"kind":"dataset","num_classes":2,"sample_rate":16000,"seed":0}')
        (tmp_path / "labels.csv").write_text("file,cls\nx.wav,0\n")
        with pytest.raises(FormatError):
            load_dataset_dir(tmp_path)

    def test_bad_split_tag(self, tmp_path):
        ds = generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0)
        save_dataset_dir(ds, tmp_path)
        text = (tmp_path / "labels.csv").read_text().replace("train", "holdout")
        (tmp_path / "labels.csv").write_text(text)
        with pytest.raises(FormatError):
            load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("defect", ["no-dim", "str-dim", "two-field-row", "non-integer-label"])
    def test_malformed_files_are_format_errors(self, defect, tmp_path):
        ds = generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0)
        save_dataset_dir(ds, tmp_path)
        manifest, labels = tmp_path / "manifest.json", tmp_path / "labels.csv"
        if defect == "no-dim":
            manifest.write_text(manifest.read_text().replace('"dim":256,', ""))
        elif defect == "str-dim":
            manifest.write_text(manifest.read_text().replace('"dim":256', '"dim":"wide"'))
        elif defect == "two-field-row":
            labels.write_text(labels.read_text().replace(",0,train", ",0"))
        else:
            labels.write_text(labels.read_text().replace(",1,train", ",one,train"))
        with pytest.raises(FormatError):
            load_dataset_dir(tmp_path)

    def test_sample_rate_mismatch(self, tmp_path):
        ds = generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0)
        save_dataset_dir(ds, tmp_path)
        wav = tmp_path / "train_01_00001.wav"
        save_wav(AudioSample(load_wav(wav).samples, sample_rate=8000), wav)
        with pytest.raises(FormatError, match="sample rate 8000"):
            load_dataset_dir(tmp_path)

    def test_manifest_rate_past_wav_range(self, tmp_path):
        save_dataset_dir(generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"sample_rate":16000', f'"sample_rate":{2**40}'))
        with pytest.raises(FormatError, match=r"whole number in \[1, 2\*\*31\)"):
            load_dataset_dir(tmp_path)

    def test_length_mismatch(self, tmp_path):
        ds = generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0)
        save_dataset_dir(ds, tmp_path)
        manifest = (tmp_path / "manifest.json").read_text().replace('"dim":256', '"dim":255')
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(FormatError):
            load_dataset_dir(tmp_path)

    def test_rows_are_the_bytes_of_load_wav(self, tmp_path):
        # each WAV is decoded straight into its split's array by load_wav's one rule, PCM extremes included
        ds = generate_synthetic_dataset(3, 4, 256, seed=1, val_per_class=1, test_per_class=2)
        save_dataset_dir(ds, tmp_path)
        pcm = np.random.default_rng(1).integers(-32768, 32768, 256).astype("<i2")
        pcm[:2] = -32768, 32767
        with wave.open(str(tmp_path / "val_01_00001.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(pcm.tobytes())
        loaded = load_dataset_dir(tmp_path)
        _, rows = read_csv(tmp_path / "labels.csv")
        row_of = {name: iter(loaded.arrays(name)[0]) for name in SPLITS}
        for fname, _, split in rows:
            assert next(row_of[split]).tobytes() == load_wav(tmp_path / fname).samples.tobytes(), fname
        low, high = loaded.val[1][:2]
        assert low == 0.0 and high == 0.5 + 32767 / 65536 < 1.0

    def test_length_and_rate_messages_name_the_file(self, tmp_path):
        save_dataset_dir(generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0), tmp_path)
        wav = tmp_path / "train_01_00001.wav"
        save_wav(AudioSample(load_wav(wav).samples, sample_rate=8000), wav)
        with pytest.raises(FormatError) as err:
            load_dataset_dir(tmp_path)
        assert str(err.value) == "train_01_00001.wav: sample rate 8000 != dataset rate 16000"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"dim":256', '"dim":255'))
        with pytest.raises(FormatError) as err:
            load_dataset_dir(tmp_path)
        assert str(err.value) == "train_00_00000.wav: length 256 != dataset dim 255"

    def test_huge_manifest_dim_allocates_nothing(self, tmp_path):
        # a split's array is allocated after a WAV has the manifest's dim: 2**40 is a length mismatch
        save_dataset_dir(generate_synthetic_dataset(2, 1, 256, seed=0, test_per_class=0), tmp_path)
        manifest = (tmp_path / "manifest.json").read_text().replace('"dim":256', f'"dim":{2**40}')
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(FormatError, match=f"length 256 != dataset dim {2**40}"):
            load_dataset_dir(tmp_path)

    def test_rows_are_checked_before_any_wav_is_read(self, tmp_path):
        # row 1 names a truncated WAV and row 3 holds a non-integer label: the label is refused
        save_dataset_dir(generate_synthetic_dataset(2, 2, 256, seed=0, test_per_class=0), tmp_path)
        labels = tmp_path / "labels.csv"
        lines = labels.read_text().splitlines()
        wav = tmp_path / lines[1].split(",")[0]
        wav.write_bytes(wav.read_bytes()[:-10])
        fname, _, split = lines[3].split(",")
        lines[3] = f"{fname},three,{split}"
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="label 'three' of .* is not an integer"):
            load_dataset_dir(tmp_path)

    def test_peak_memory_is_about_the_returned_arrays(self, tmp_path):
        # each WAV goes straight into its split's one array: no list of per-file arrays to stack
        save_dataset_dir(generate_synthetic_dataset(3, 100, 4096, seed=0, test_per_class=50), tmp_path)
        load_dataset_dir(tmp_path)  # untraced: the first call pays one-time allocations
        tracemalloc.start()
        try:
            loaded = load_dataset_dir(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for name in ("train", "val", "test") for a in loaded.arrays(name))
        assert peak < 1.5 * returned
