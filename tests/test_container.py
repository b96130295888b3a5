"""Artifact container format, CSV helpers, perturbation files."""

import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    FormatError,
    InvalidInputError,
    Perturbation,
    load_perturbation,
    save_perturbation,
)
from uapaudio.container import (
    MAGIC,
    canonical_json,
    fmt_float,
    read_container,
    read_csv,
    write_container,
    write_csv,
)
from uapaudio.tanhspace import render_signal_v


class TestFmtFloat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_parse_reemit_identity(self, x):
        assert float(fmt_float(x)) == x
        assert fmt_float(float(fmt_float(x))) == fmt_float(x)

    def test_plain_values(self):
        assert fmt_float(0.5) == "0.5"
        assert fmt_float(1) == "1.0"


class TestCsv:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "t.csv"
        header = ["a", "b"]
        rows = [["1", "x"], ["2", "y"]]
        write_csv(f, header, rows)
        assert read_csv(f) == (header, rows)

    def test_canonical_bytes(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["h"], [["1"], ["2"]])
        assert f.read_bytes() == b"h\n1\n2\n"

    def test_cell_rule(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["none", "f64", "int", "i64", "str"],
                  [[None, np.float64(0.1), 3, np.int64(-4), "x y"]])
        assert f.read_bytes() == f"none,f64,int,i64,str\n,{fmt_float(0.1)},3,-4,x y\n".encode()

    @pytest.mark.parametrize("text", ["a,b", "a\rb", "a\nb", "\n"])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_text_that_would_split_a_row_is_refused(self, tmp_path, text, where):
        # cells are unquoted, so a comma or line break in one would make a ragged CSV
        f = tmp_path / "t.csv"
        header, rows = (["h", text], [["1", "x"]]) if where == "header" else (["h", "s"], [["1", "x"], [2, text]])
        with pytest.raises(InvalidInputError, match="comma or line break"):
            write_csv(f, header, rows)
        assert not f.exists()

    def test_empty_rows(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["only", "header"], [])
        header, rows = read_csv(f)
        assert header == ["only", "header"] and rows == []

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_bytes(b"")
        with pytest.raises(FormatError):
            read_csv(f)


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestContainer:
    def test_round_trip(self, tmp_path, rng):
        f = tmp_path / "c.bin"
        blobs = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
        write_container(f, {"kind": "test", "n": 7}, blobs)
        manifest, loaded = read_container(f)
        assert manifest["kind"] == "test" and manifest["n"] == 7
        for name, arr in blobs.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(a, {"kind": "test"}, {"v": rng.normal(size=16)})
        manifest, blobs = read_container(a)
        manifest.pop("blobs")
        write_container(b, manifest, blobs)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_enforced(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_container(f)

    def test_format_1_is_refused_by_name(self, tmp_path):
        f = tmp_path / "old.bin"
        payload = canonical_json({"blobs": [{"name": "v", "shape": [2]}]})
        f.write_bytes(b"UAPC0001" + len(payload).to_bytes(4, "little") + payload + np.zeros(2, "<f4").tobytes())
        with pytest.raises(FormatError, match="format-1"):
            read_container(f)

    def test_truncated_blob(self, tmp_path):
        f = tmp_path / "t.bin"
        write_container(f, {}, {"v": np.arange(8.0)})
        f.write_bytes(f.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_container(f)

    def test_trailing_bytes(self, tmp_path):
        f = tmp_path / "t.bin"
        write_container(f, {}, {"v": np.arange(8.0)})
        f.write_bytes(f.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_container(f)

    def test_corrupt_manifest(self, tmp_path):
        f = tmp_path / "t.bin"
        payload = b"{broken"
        f.write_bytes(MAGIC + len(payload).to_bytes(4, "little") + payload)
        with pytest.raises(FormatError):
            read_container(f)

    @pytest.mark.parametrize("manifest", [
        {"blobs": [{"shape": [4]}]},  # no name
        {"blobs": [{"name": "v"}]},  # no shape
        {"blobs": [{"name": "v", "shape": ["4"]}]},  # non-integer shape
        {"blobs": [{"name": "v", "shape": [2.0, 2]}]},
        {"blobs": [{"name": "v", "shape": [-4]}]},
        {"blobs": [{"name": 7, "shape": [4]}]},
        {"blobs": ["v"]},  # entry is not an object
        ["not", "an", "object"],
    ], ids=["no-name", "no-shape", "str-shape", "float-shape", "negative-shape", "int-name",
            "str-entry", "list-manifest"])
    def test_malformed_manifest_is_format_error(self, manifest, tmp_path):
        f = tmp_path / "t.bin"
        payload = canonical_json(manifest) if isinstance(manifest, dict) else b'["not","an","object"]'
        f.write_bytes(MAGIC + len(payload).to_bytes(4, "little") + payload + np.zeros(4, "<f8").tobytes())
        with pytest.raises(FormatError):
            read_container(f)


class TestPerturbation:
    def _make(self, rng, method="penalty", **kw):
        # greedy is built from a signal-space vector, penalty from a tanh-space one
        name, scale = ("v_signal", 0.05) if method == "greedy" else ("v_tanh", 0.1)
        base = dict(
            mode="untargeted",
            p=2.0,
            xi=1.5,
            seed=9,
            train_asr=0.75,
            params={"c": 0.2, "kappa": 5.0},
        )
        base[name] = rng.normal(scale=scale, size=32)
        base.update(kw)
        return Perturbation(**base)

    def test_norm_helpers(self, tmp_path):
        # the saved manifest records the norms of the stored vector
        pert = Perturbation(v_signal=np.array([0.3, -0.4]), mode="untargeted")
        save_perturbation(pert, tmp_path / "p.uapc")
        norms = read_container(tmp_path / "p.uapc")[0]["norms"]
        assert norms["l2"] == pytest.approx(0.5)
        assert norms["linf"] == pytest.approx(0.4)
        assert pert.dim == 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Perturbation(v_signal=np.zeros((2, 2)), mode="untargeted")
        with pytest.raises(InvalidInputError):
            Perturbation(v_tanh=np.zeros((2, 2)), mode="untargeted")
        with pytest.raises(InvalidInputError):
            Perturbation(v_signal=np.zeros(4), mode="sideways")
        with pytest.raises(InvalidInputError, match="one vector"):
            Perturbation(v_signal=np.zeros(4), v_tanh=np.zeros(4), mode="untargeted")
        with pytest.raises(InvalidInputError, match="one vector"):
            Perturbation(mode="untargeted")
        with pytest.raises(InvalidInputError, match="no target class"):
            Perturbation(v_signal=np.zeros(4), mode="untargeted", target=5)

    @pytest.mark.parametrize("method", ["greedy", "penalty"])
    def test_replace_copies_and_fields_are_frozen(self, method, rng):
        pert = self._make(rng, method=method)
        copy = replace(pert, seed=3)
        assert (copy.seed, copy.method, copy.mode, copy.xi, copy.params) == (3, method, "untargeted", 1.5, pert.params)
        assert copy.v_signal.tobytes() == pert.v_signal.tobytes()
        assert (copy.v_tanh is None) == (method == "greedy")
        if method == "penalty":
            assert copy.v_tanh.tobytes() == pert.v_tanh.tobytes()
            # a new carrier beside the old rendering is two vectors; without it the copy renders its own
            with pytest.raises(InvalidInputError, match="one vector"):
                replace(pert, v_tanh=pert.v_tanh + 0.1)
            moved = replace(pert, v_tanh=pert.v_tanh + 0.1, v_signal=None)
            assert moved.v_signal.tobytes() == render_signal_v(pert.v_tanh + 0.1).tobytes()
        with pytest.raises(FrozenInstanceError):
            pert.v_tanh = np.zeros(32)
        with pytest.raises(FrozenInstanceError):
            pert.xi = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_vectors_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="perturbation must be finite"):
            Perturbation(v_signal=np.array([0.1, bad]), mode="untargeted")
        with pytest.raises(InvalidInputError, match="tanh-space perturbation must be finite"):
            Perturbation(v_tanh=np.array([bad, 0.1]), mode="untargeted")

    def test_save_load_fields(self, tmp_path, rng):
        f = tmp_path / "p.uapc"
        pert = self._make(rng, mode="targeted", target=2)
        save_perturbation(pert, f)
        loaded = load_perturbation(f)
        assert loaded.method == "penalty" and loaded.mode == "targeted"
        assert loaded.target == 2 and loaded.seed == 9
        assert loaded.xi == 1.5 and loaded.p == 2.0
        assert loaded.train_asr == 0.75
        assert loaded.params == {"c": 0.2, "kappa": 5.0}
        # the file keeps the tanh-space carrier; the signal vector is its rendering
        assert loaded.v_tanh.tobytes() == pert.v_tanh.tobytes()
        assert loaded.v_signal.tobytes() == render_signal_v(pert.v_tanh).tobytes()

    def test_inf_norm_round_trip(self, tmp_path, rng):
        f = tmp_path / "p.uapc"
        save_perturbation(self._make(rng, p=np.inf), f)
        assert load_perturbation(f).p == np.inf

    def test_resave_byte_identical(self, tmp_path, rng):
        a, b = tmp_path / "a.uapc", tmp_path / "b.uapc"
        save_perturbation(self._make(rng), a)
        save_perturbation(load_perturbation(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_greedy_file_has_no_tanh_blob(self, tmp_path, rng):
        f = tmp_path / "g.uapc"
        pert = self._make(rng, method="greedy", params={})
        save_perturbation(pert, f)
        assert load_perturbation(f).v_tanh is None

    def test_penalty_file_has_no_signal_blob(self, tmp_path, rng):
        f = tmp_path / "p.uapc"
        pert = self._make(rng)
        save_perturbation(pert, f)
        manifest, blobs = read_container(f)
        assert list(blobs) == ["v_tanh"]
        rendered = render_signal_v(pert.v_tanh)
        assert load_perturbation(f).v_signal.tobytes() == rendered.tobytes()
        assert manifest["norms"] == {"l2": float(np.linalg.norm(rendered)), "linf": float(np.max(rendered))}

    def test_greedy_linf_stays_within_xi(self, tmp_path):
        # a vector clipped at xi records xi, not a rounding of it
        f = tmp_path / "g.uapc"
        save_perturbation(Perturbation(v_signal=np.full(8, 0.2), mode="untargeted", p=np.inf, xi=0.2), f)
        manifest = read_container(f)[0]
        assert manifest["norms"]["linf"] <= manifest["xi"] == 0.2
        assert np.all(load_perturbation(f).v_signal == 0.2)

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"1e999"])
    def test_non_finite_xi_is_format_error(self, token, tmp_path, rng):
        # the JSON reader accepts these tokens; canonical JSON cannot write them
        f = tmp_path / "p.uapc"
        save_perturbation(replace(self._make(rng), xi="########"), f)
        data = f.read_bytes()
        f.write_bytes(data.replace(b'"########"', token.ljust(10)))
        with pytest.raises(FormatError, match="xi"):
            load_perturbation(f)

    def test_kind_enforced(self, tmp_path):
        f = tmp_path / "x.uapc"
        write_container(f, {"kind": "checkpoint"}, {"v_signal": np.zeros(4)})
        with pytest.raises(FormatError):
            load_perturbation(f)

    @pytest.mark.parametrize("defect", ["no-method", "no-mode", "no-signal", "nan-signal", "no-tanh", "nan-tanh",
                                        "inf-tanh", "str-p", "str-target", "float-target", "bool-target",
                                        "str-xi", "zero-xi", "negative-xi", "bad-mode", "bad-method",
                                        "targeted-no-target", "untargeted-target", "penalty-signal-only",
                                        "greedy-tanh-only", "both-vectors"])
    def test_malformed_file_is_format_error(self, defect, tmp_path, rng):
        # a greedy file stores only v_signal, a penalty file only v_tanh
        f = tmp_path / "p.uapc"
        greedy = defect.endswith("-signal") or defect.startswith("greedy")
        save_perturbation(self._make(rng, method="greedy" if greedy else "penalty"), f)
        manifest, blobs = read_container(f)
        if defect == "no-method":
            del manifest["method"]
        elif defect == "no-mode":
            del manifest["mode"]
        elif defect == "no-signal":
            del blobs["v_signal"]
        elif defect == "nan-signal":
            blobs["v_signal"][3] = np.nan
        elif defect == "no-tanh":
            del blobs["v_tanh"]
        elif defect == "nan-tanh":
            blobs["v_tanh"][3] = np.nan
        elif defect == "str-p":
            manifest["p"] = "inx"
        elif defect.startswith("bad-"):
            manifest[defect[4:]] = "foo"
        elif defect == "targeted-no-target":
            manifest["mode"], manifest["target"] = "targeted", None
        elif defect == "untargeted-target":
            manifest["target"] = 1
        elif defect == "penalty-signal-only":
            blobs = {"v_signal": render_signal_v(blobs["v_tanh"])}
        elif defect == "greedy-tanh-only":
            blobs = {"v_tanh": blobs["v_signal"]}
        elif defect == "both-vectors":
            blobs["v_signal"] = render_signal_v(blobs["v_tanh"])
        elif defect.endswith("-target"):
            manifest["target"] = {"str": "x", "float": 1.5, "bool": True}[defect[:-7]]
        elif defect.endswith("-xi"):
            manifest["xi"] = {"str": "wide", "zero": 0, "negative": -0.2}[defect[:-3]]
        else:
            blobs["v_tanh"][0] = np.inf
        write_container(f, manifest, blobs)
        with pytest.raises(FormatError):
            load_perturbation(f)

    @given(kind=st.sampled_from(["v_signal", "v_tanh"]),
           values=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=16))
    def test_round_trip_keeps_the_vector_and_its_method(self, kind, values):
        pert = Perturbation(**{kind: np.array(values)}, mode="untargeted")
        with tempfile.TemporaryDirectory() as root:
            save_perturbation(pert, Path(root) / "p.uapc")
            loaded = load_perturbation(Path(root) / "p.uapc")
        assert loaded.method == pert.method == ("greedy" if kind == "v_signal" else "penalty")
        assert loaded.v_signal.tobytes() == pert.v_signal.tobytes()
        assert (loaded.v_tanh is None) == (pert.v_tanh is None)
        if pert.v_tanh is not None:
            assert loaded.v_tanh.tobytes() == pert.v_tanh.tobytes()
